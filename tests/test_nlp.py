"""Tests for the NLP substrate: lexicon, classifier, extraction."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.nlp import (
    GazetteerExtractor,
    NaiveBayesClassifier,
    RelevanceClassifier,
    SUPPORTED_LANGUAGES,
    THREAT_CATEGORIES,
    THREAT_LEXICON,
    ThreatTagger,
    all_keywords,
    extract_iocs,
    keywords_for,
    refang,
    tokenize,
)


class TestLexicon:
    def test_paper_keywords_present(self):
        # §II-A names these explicitly.
        keywords = set(all_keywords())
        assert "ddos" in keywords
        assert "security breach" in keywords
        assert "leak" in keywords

    def test_all_major_languages_covered(self):
        assert set(SUPPORTED_LANGUAGES) == {"en", "es", "fr", "pt", "de"}
        for category in THREAT_CATEGORIES:
            langs = set(THREAT_LEXICON[category])
            assert {"en", "es", "fr", "pt", "de"} <= langs

    def test_keywords_for_unknown_category(self):
        with pytest.raises(KeyError):
            keywords_for("nonexistent")

    def test_keywords_for_language_subset(self):
        english_only = keywords_for("ddos", languages=["en"])
        assert "ddos" in english_only
        assert "déni de service" not in english_only


class TestThreatTagger:
    def test_tags_by_category(self):
        tagger = ThreatTagger()
        hits = tagger.tag("new ransomware campaign and a data breach")
        assert "malware" in hits
        assert "data-breach" in hits

    def test_longest_phrase_wins(self):
        tagger = ThreatTagger()
        hits = tagger.tag("massive denial of service attack")
        assert hits == {"ddos": ["denial of service"]}

    def test_word_boundaries_respected(self):
        tagger = ThreatTagger()
        # 'leak' must not match inside 'bleak'.
        assert tagger.tag("the outlook is bleak") == {}

    def test_multilingual_matching(self):
        tagger = ThreatTagger()
        assert "vulnerability-exploitation" in tagger.tag(
            "nueva vulnerabilidad crítica en el servidor")
        assert "ddos" in tagger.tag("attaque par déni de service en cours")

    def test_categories_ordered_by_hits(self):
        tagger = ThreatTagger()
        text = "ransomware trojan worm outbreak after a single leak"
        categories = tagger.categories(text)
        assert categories[0] == "malware"

    def test_is_threat_related(self):
        tagger = ThreatTagger()
        assert tagger.is_threat_related("phishing campaign detected")
        assert not tagger.is_threat_related("bake sale on friday")


def longest_first_tag(text, languages=SUPPORTED_LANGUAGES):
    """The reference tagger: search every keyword, longest first."""
    keyword_to_category = all_keywords(languages)
    lowered = text.lower()
    consumed = set()
    hits = {}
    for keyword in sorted(keyword_to_category, key=len, reverse=True):
        start = 0
        while True:
            index = lowered.find(keyword, start)
            if index == -1:
                break
            end = index + len(keyword)
            start = index + 1
            if any(s < end and index < e for s, e in consumed):
                continue
            if index > 0 and lowered[index - 1].isalnum():
                continue
            if end < len(lowered) and lowered[end].isalnum():
                continue
            consumed.add((index, end))
            hits.setdefault(keyword_to_category[keyword], []).append(keyword)
    return hits


KEYWORDS = sorted(all_keywords())
#: Keywords whole, upper-cased and cut, with separators and characters
#: whose case mapping is unusual (``"\u0130".lower()`` is two characters).
TEXT_PIECES = st.one_of(
    st.sampled_from(KEYWORDS),
    st.sampled_from(KEYWORDS).map(str.upper),
    st.sampled_from(KEYWORDS).flatmap(
        lambda keyword: st.integers(1, len(keyword)).flatmap(
            lambda cut: st.sampled_from([keyword[:cut], keyword[cut:]]))),
    st.sampled_from([" ", "  ", "-", "_", "0", "42", ".", ",", "!", "'", "(",
                     "\n", "\u00e9", "\u00df", "\u1e9e", "\u0130", "\u03a3",
                     "\u00fc", "x", "\u00aa", "\u2460", "\u0301"]),
    st.text(max_size=3),
)


@settings(max_examples=800, deadline=None)
@given(st.lists(TEXT_PIECES, max_size=14).map("".join),
       st.sampled_from([SUPPORTED_LANGUAGES, ("en",), ("fr", "de")]))
@example("a zero-day exploit, then BRUTE-FORCE", SUPPORTED_LANGUAGES)
@example("e-mail fraudulento; attaque par D\u00c9NI de service", SUPPORTED_LANGUAGES)
@example("ddos_botnet leak2 c2 server 0day", SUPPORTED_LANGUAGES)
@example("\u0130 ransomware \u00fcberlastungsangriff!", ("fr", "de"))
def test_tagger_matches_the_longest_first_scan(text, languages):
    hits = ThreatTagger(languages).tag(text)
    expected = longest_first_tag(text, languages)
    assert hits == expected
    assert list(hits) == list(expected)


class TestNaiveBayes:
    def test_untrained_predict_raises(self):
        with pytest.raises(ValidationError):
            NaiveBayesClassifier().predict("x")

    def test_learns_simple_separation(self):
        model = NaiveBayesClassifier()
        model.train_many([
            ("exploit vulnerability attack", "bad"),
            ("attack breach exploit", "bad"),
            ("picnic sunshine flowers", "good"),
            ("flowers garden sunshine", "good"),
        ])
        assert model.predict("new exploit attack").label == "bad"
        assert model.predict("sunshine and flowers").label == "good"

    def test_confidence_is_probability(self):
        model = NaiveBayesClassifier()
        model.train("a b c", "x")
        model.train("d e f", "y")
        prediction = model.predict("a b")
        assert 0.5 <= prediction.confidence <= 1.0

    def test_tokenize_stems_and_drops_stopwords(self):
        tokens = tokenize("The attackers exploited the servers")
        assert "the" not in tokens
        assert "exploit" in tokens  # 'exploited' stemmed


class TestRelevanceClassifier:
    @pytest.fixture(scope="class")
    def classifier(self):
        return RelevanceClassifier()

    @pytest.mark.parametrize("text", [
        "critical remote code execution vulnerability exploited in apache struts",
        "massive ddos attack takes down dns provider",
        "ransomware encrypts hospital records",
        "phishing emails impersonate bank to steal credentials",
        "data breach exposes millions of user records",
    ])
    def test_threat_text_is_relevant(self, classifier, text):
        assert classifier.predict(text).label == RelevanceClassifier.RELEVANT

    @pytest.mark.parametrize("text", [
        "the local bakery introduces a new sourdough recipe",
        "city council approves new bicycle lanes downtown",
        "university announces dormitory construction project",
    ])
    def test_benign_text_is_irrelevant(self, classifier, text):
        assert classifier.predict(text).label == RelevanceClassifier.IRRELEVANT

    def test_is_relevant_threshold(self, classifier):
        assert classifier.is_relevant("zero-day exploit published", threshold=0.6)

    def test_online_training_shifts_decision(self):
        classifier = RelevanceClassifier(seed_training=False)
        classifier.train("quarterly earnings report", relevant=False)
        classifier.train("exploit kit activity", relevant=True)
        assert classifier.predict("exploit kit campaign").label == "relevant"


class TestExtraction:
    def test_refang(self):
        assert refang("hxxp://evil[.]example") == "http://evil.example"
        assert refang("1.2.3[.]4") == "1.2.3.4"
        assert refang("user[@]mail[dot]com") == "user@mail.com"

    def test_extract_all_types(self):
        text = (
            "C2 at hxxp://evil[.]example/gate.php and 198.51.100.77, "
            "dropper md5 d41d8cd98f00b204e9800998ecf8427e, "
            "payload sha256 " + "ab" * 32 + ", contact ops@bad.example, "
            "exploits CVE-2017-9805 via malicious-domain.xyz"
        )
        entities = extract_iocs(text)
        assert entities.urls == ("http://evil.example/gate.php",)
        assert entities.ipv4 == ("198.51.100.77",)
        assert entities.md5 == ("d41d8cd98f00b204e9800998ecf8427e",)
        assert entities.sha256 == ("ab" * 32,)
        assert entities.emails == ("ops@bad.example",)
        assert entities.cves == ("CVE-2017-9805",)
        assert "malicious-domain.xyz" in entities.domains

    def test_invalid_ip_rejected(self):
        assert extract_iocs("version 999.888.777.666 released").ipv4 == ()

    def test_sha256_not_double_counted_as_md5(self):
        entities = extract_iocs("hash " + "cd" * 32)
        assert entities.sha256 == ("cd" * 32,)
        assert entities.md5 == ()

    def test_domain_inside_url_not_duplicated(self):
        entities = extract_iocs("see http://known.example/path")
        assert entities.domains == ()

    def test_dedupe_case_insensitive(self):
        entities = extract_iocs("EVIL.example and evil.EXAMPLE")
        assert len(entities.domains) == 1

    def test_empty_text(self):
        assert extract_iocs("").is_empty()

    def test_count(self):
        assert extract_iocs("198.51.100.1 and 198.51.100.2").count() == 2


class TestGazetteer:
    def test_default_entities(self):
        extractor = GazetteerExtractor()
        found = extractor.extract("APT28 hit organizations in Spain via Apache")
        assert "apt28" in found["threat-actor"]
        assert "spain" in found["location"]
        assert "apache" in found["organization"]

    def test_word_boundary(self):
        extractor = GazetteerExtractor()
        assert "location" not in extractor.extract("paella hispania")

    def test_custom_gazetteer(self):
        extractor = GazetteerExtractor({"acme corp": "organization"})
        assert extractor.extract("ACME Corp was targeted") == {
            "organization": ["acme corp"]}

    def test_add_entry(self):
        extractor = GazetteerExtractor({})
        extractor.add("Zenith", "organization")
        assert extractor.extract("zenith systems down")["organization"] == ["zenith"]
