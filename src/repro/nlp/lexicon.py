"""Multi-language threat keyword lexicon.

§II-A: "the use of natural language processing techniques to identify threats
from the use of keywords that typically indicate a threat in major languages;
such as ddos, security breach, leak and more".  Keywords are grouped by
threat category so the tagger can both flag relevance and name the threat
type.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

#: category -> language -> keywords (lowercase; multi-word phrases allowed).
THREAT_LEXICON: Mapping[str, Mapping[str, Tuple[str, ...]]] = {
    "ddos": {
        "en": ("ddos", "denial of service", "botnet", "amplification attack",
               "flood attack", "service outage"),
        "es": ("denegación de servicio", "ataque de denegación", "botnet"),
        "fr": ("déni de service", "attaque par déni", "botnet"),
        "pt": ("negação de serviço", "ataque de negação", "botnet"),
        "de": ("dienstverweigerung", "überlastungsangriff", "botnetz"),
    },
    "data-breach": {
        "en": ("security breach", "data breach", "leak", "leaked", "exfiltration",
               "stolen credentials", "dumped database", "exposed records"),
        "es": ("brecha de seguridad", "fuga de datos", "filtración",
               "credenciales robadas"),
        "fr": ("fuite de données", "violation de données", "vol de données"),
        "pt": ("violação de dados", "fuga de dados", "vazamento"),
        "de": ("datenleck", "datenpanne", "gestohlene zugangsdaten"),
    },
    "malware": {
        "en": ("malware", "ransomware", "trojan", "worm", "spyware", "keylogger",
               "rootkit", "backdoor", "dropper", "infostealer", "cryptominer"),
        "es": ("malware", "ransomware", "troyano", "gusano", "secuestro de datos"),
        "fr": ("logiciel malveillant", "rançongiciel", "cheval de troie", "ver"),
        "pt": ("malware", "ransomware", "cavalo de troia", "verme"),
        "de": ("schadsoftware", "erpressungstrojaner", "trojaner", "wurm"),
    },
    "phishing": {
        "en": ("phishing", "spear phishing", "credential harvesting",
               "fake login", "spoofed email", "business email compromise"),
        "es": ("suplantación de identidad", "correo fraudulento", "phishing"),
        "fr": ("hameçonnage", "courriel frauduleux", "phishing"),
        "pt": ("phishing", "e-mail fraudulento", "roubo de credenciais"),
        "de": ("phishing", "gefälschte e-mail", "passwortdiebstahl"),
    },
    "vulnerability-exploitation": {
        "en": ("vulnerability", "exploit", "zero-day", "0day", "remote code execution",
               "rce", "privilege escalation", "arbitrary code", "proof of concept",
               "cve", "unpatched", "security flaw", "injection"),
        "es": ("vulnerabilidad", "ejecución remota de código", "escalada de privilegios",
               "día cero"),
        "fr": ("vulnérabilité", "exécution de code à distance", "faille de sécurité",
               "jour zéro"),
        "pt": ("vulnerabilidade", "execução remota de código", "falha de segurança",
               "dia zero"),
        "de": ("sicherheitslücke", "schwachstelle", "rechteausweitung",
               "codeausführung"),
    },
    "intrusion": {
        "en": ("unauthorized access", "intrusion", "compromised server", "hacked",
               "defaced", "lateral movement", "command and control", "c2 server",
               "brute force", "apt"),
        "es": ("acceso no autorizado", "intrusión", "servidor comprometido",
               "fuerza bruta"),
        "fr": ("accès non autorisé", "intrusion", "serveur compromis",
               "force brute"),
        "pt": ("acesso não autorizado", "intrusão", "servidor comprometido",
               "força bruta"),
        "de": ("unbefugter zugriff", "einbruch", "kompromittierter server",
               "brute-force"),
    },
}

SUPPORTED_LANGUAGES: Tuple[str, ...] = ("en", "es", "fr", "pt", "de")

THREAT_CATEGORIES: Tuple[str, ...] = tuple(THREAT_LEXICON.keys())


def keywords_for(category: str, languages: Iterable[str] = SUPPORTED_LANGUAGES) -> List[str]:
    """All keywords of a category across the requested languages."""
    per_language = THREAT_LEXICON.get(category)
    if per_language is None:
        raise KeyError(f"unknown threat category {category!r}")
    out: List[str] = []
    for language in languages:
        out.extend(per_language.get(language, ()))
    return out


def all_keywords(languages: Iterable[str] = SUPPORTED_LANGUAGES) -> Dict[str, str]:
    """keyword -> category over the requested languages.

    Multi-category keywords resolve to the first category in declaration
    order (stable, so tagging is deterministic).
    """
    mapping: Dict[str, str] = {}
    for category in THREAT_CATEGORIES:
        for keyword in keywords_for(category, languages):
            mapping.setdefault(keyword, category)
    return mapping


class ThreatTagger:
    """Tags free text with threat categories by phrase matching.

    Longer phrases win over their substrings ("denial of service" beats
    "service") because matching scans phrases longest-first.
    """

    def __init__(self, languages: Iterable[str] = SUPPORTED_LANGUAGES) -> None:
        self._keyword_to_category = all_keywords(languages)
        self._ordered = sorted(self._keyword_to_category, key=len, reverse=True)
        self._first_runs = [_first_run(keyword) for keyword in self._ordered]

    def tag(self, text: str) -> Dict[str, List[str]]:
        """Return category -> matched keywords for ``text``."""
        lowered = text.lower()
        # A word-bounded hit puts the keyword's first alphanumeric run at a
        # whole run of the text, so a keyword whose first run is not among
        # the text's runs cannot match and is not searched for.  "" stands
        # for keywords without a run, which are always searched.
        runs = set(_ALNUM_RUN.findall(lowered))
        runs.add("")
        consumed: Set[Tuple[int, int]] = set()
        hits: Dict[str, List[str]] = {}
        for keyword, first_run in zip(self._ordered, self._first_runs):
            if first_run not in runs:
                continue
            start = 0
            while True:
                index = lowered.find(keyword, start)
                if index == -1:
                    break
                span = (index, index + len(keyword))
                start = index + 1
                if any(s < span[1] and span[0] < e for s, e in consumed):
                    continue
                if not _word_bounded(lowered, span):
                    continue
                consumed.add(span)
                category = self._keyword_to_category[keyword]
                hits.setdefault(category, []).append(keyword)
        return hits

    def categories(self, text: str) -> List[str]:
        """Matched categories ordered by number of keyword hits (desc)."""
        hits = self.tag(text)
        return sorted(hits, key=lambda c: (-len(hits[c]), c))

    def is_threat_related(self, text: str) -> bool:
        """Whether any threat keyword matches the text."""
        return bool(self.tag(text))


#: A maximal run of characters for which ``str.isalnum`` is true: ``\w``
#: minus the underscore, the same test :func:`_word_bounded` applies.
_ALNUM_RUN = re.compile(r"[^\W_]+")


def _first_run(keyword: str) -> str:
    """The keyword's first alphanumeric run ("" when it has none)."""
    match = _ALNUM_RUN.search(keyword)
    return match.group() if match else ""


def _word_bounded(text: str, span: Tuple[int, int]) -> bool:
    """True when the span does not cut a word in half."""
    start, end = span
    before_ok = start == 0 or not text[start - 1].isalnum()
    after_ok = end >= len(text) or not text[end].isalnum()
    return before_ok and after_ok
