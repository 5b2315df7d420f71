"""STIX 2.0 Patterning: tokenizer, parser and evaluator.

Indicators carry a ``pattern`` such as::

    [ipv4-addr:value = '198.51.100.3'] OR [domain-name:value IN ('evil.example', 'bad.example')]

This module implements the useful core of the STIX patterning grammar:

- comparison expressions over object paths (``file:hashes.'SHA-256'``),
  with operators ``= != < <= > >= IN LIKE MATCHES ISSUBSET ISSUPERSET``
  and ``NOT``;
- observation expressions combining ``[...]`` terms with ``AND``, ``OR`` and
  ``FOLLOWEDBY`` plus parentheses;
- qualifiers ``WITHIN n SECONDS``, ``REPEATS n TIMES`` and
  ``START t STOP t``.

Evaluation runs against a sequence of :class:`Observation` values, each a
timestamped set of cyber-observable dicts, and returns whether the pattern
fires — this is what the SIEM connector uses to replay rIoC-derived
indicators over infrastructure telemetry.
"""

from __future__ import annotations

import datetime as _dt
import ipaddress
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..clock import ensure_utc, parse_timestamp
from ..errors import PatternError

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

#: A quoted string literal; backslash escapes the next character.
_STRING = r"'(?:[^'\\]|\\.)*'"

_TOKEN_RE = re.compile(
    rf"""
    (?P<WS>\s+)
  | (?P<TIMESTAMP>t'[^']*')
  | (?P<STRING>{_STRING})
  | (?P<FLOAT>-?\d+\.\d+)
  | (?P<INT>-?\d+)
  | (?P<LBRACKET>\[) | (?P<RBRACKET>\])
  | (?P<LPAREN>\() | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<OP><=|>=|!=|=|<|>)
  | (?P<PATH>[a-zA-Z][\w-]*(?::[\w.'\[\]*\\-]+)+)
  | (?P<NAME>[A-Za-z][A-Za-z0-9_-]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "AND", "OR", "NOT", "FOLLOWEDBY", "IN", "LIKE", "MATCHES",
    "ISSUBSET", "ISSUPERSET", "WITHIN", "SECONDS", "REPEATS", "TIMES",
    "START", "STOP", "EXISTS", "TRUE", "FALSE",
}


@dataclass(frozen=True)
class Token:
    """One lexer token (kind, text, position)."""
    kind: str
    value: str
    position: int


def tokenize(text: str) -> List[Token]:
    """Split a pattern string into tokens; raises PatternError on junk."""
    tokens: List[Token] = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None:
            raise PatternError(f"unexpected character {text[index]!r} at {index}")
        kind = match.lastgroup or ""
        value = match.group()
        if kind == "NAME" and value.upper() in _KEYWORDS:
            kind = value.upper()
            value = value.upper()
        if kind != "WS":
            tokens.append(Token(kind, value, index))
        index = match.end()
    return tokens


def _timestamp_value(token: Token) -> _dt.datetime:
    """The instant a ``t'...'`` token names; raises PatternError if none."""
    try:
        return parse_timestamp(token.value[2:-1])
    except ValueError:
        raise PatternError(
            f"invalid timestamp literal at {token.position}") from None


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectPath:
    """``file:hashes.'SHA-256'`` -> type ``file``, components on the object."""

    object_type: str
    components: Tuple[str, ...]

    def __str__(self) -> str:
        parts = []
        for comp in self.components:
            # STIX property identifiers are lowercase letters/digits with
            # underscores; anything else (e.g. the 'SHA-256' hash key) must
            # be rendered quoted, as it was written in the source pattern.
            if re.match(r"^[a-z_][a-z0-9_]*$", comp) or comp == "*" or comp.isdigit():
                parts.append(comp)
            else:
                parts.append(f"'{comp}'")
        return f"{self.object_type}:{'.'.join(parts)}"


@dataclass(frozen=True)
class Comparison:
    """A single ``path op value`` test."""

    path: ObjectPath
    operator: str
    value: Any
    negated: bool = False

    def __str__(self) -> str:
        rendered = _render_literal(self.value)
        text = f"{self.path} {self.operator} {rendered}"
        return f"NOT {text}" if self.negated else text


@dataclass(frozen=True)
class BooleanExpr:
    """AND/OR over comparison expressions within one observation."""

    operator: str  # "AND" | "OR"
    operands: Tuple[Any, ...]

    def __str__(self) -> str:
        return "(" + f" {self.operator} ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Qualifier:
    """A parsed observation qualifier."""
    kind: str  # WITHIN | REPEATS | STARTSTOP
    seconds: Optional[float] = None
    times: Optional[int] = None
    start: Optional[_dt.datetime] = None
    stop: Optional[_dt.datetime] = None


@dataclass(frozen=True)
class ObservationTerm:
    """``[ comparison_expr ]`` plus qualifiers."""

    expression: Any  # Comparison | BooleanExpr
    qualifiers: Tuple[Qualifier, ...] = ()


@dataclass(frozen=True)
class ObservationCombo:
    """AND/OR/FOLLOWEDBY over observation terms."""

    operator: str
    operands: Tuple[Any, ...]
    qualifiers: Tuple[Qualifier, ...] = ()


def _render_literal(value: Any) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_render_literal(v) for v in value) + ")"
    return str(value)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: Sequence[Token], text: str) -> None:
        self._tokens = list(tokens)
        self._pos = 0
        self._text = text

    def _peek(self) -> Optional[Token]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise PatternError(f"unexpected end of pattern: {self._text!r}")
        self._pos += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._next()
        if token.kind != kind:
            raise PatternError(
                f"expected {kind} at {token.position}, got {token.kind} ({token.value!r})")
        return token

    # observation level ----------------------------------------------------

    def parse_pattern(self) -> Any:
        """Parse the full pattern and reject trailing input."""
        expr = self.parse_observation_expression()
        if self._peek() is not None:
            token = self._peek()
            raise PatternError(f"trailing input at {token.position}: {token.value!r}")
        return expr

    def parse_observation_expression(self) -> Any:
        """Parse AND/OR/FOLLOWEDBY combinations."""
        left = self.parse_observation_term()
        while True:
            token = self._peek()
            if token is None or token.kind not in ("AND", "OR", "FOLLOWEDBY"):
                return left
            operator = self._next().kind
            right = self.parse_observation_term()
            if isinstance(left, ObservationCombo) and left.operator == operator \
                    and not left.qualifiers:
                left = ObservationCombo(operator, left.operands + (right,))
            else:
                left = ObservationCombo(operator, (left, right))

    def parse_observation_term(self) -> Any:
        """Parse one [...] term or parenthesized group."""
        token = self._peek()
        if token is None:
            raise PatternError("unexpected end of pattern")
        if token.kind == "LBRACKET":
            self._next()
            expression = self.parse_comparison_expression()
            self._expect("RBRACKET")
            qualifiers = self.parse_qualifiers()
            return ObservationTerm(expression, qualifiers)
        if token.kind == "LPAREN":
            self._next()
            inner = self.parse_observation_expression()
            self._expect("RPAREN")
            qualifiers = self.parse_qualifiers()
            if qualifiers:
                if isinstance(inner, ObservationTerm):
                    inner = ObservationTerm(inner.expression, inner.qualifiers + qualifiers)
                else:
                    inner = ObservationCombo(inner.operator, inner.operands,
                                             inner.qualifiers + qualifiers)
            return inner
        raise PatternError(f"expected '[' or '(' at {token.position}, got {token.value!r}")

    def parse_qualifiers(self) -> Tuple[Qualifier, ...]:
        """Parse trailing WITHIN/REPEATS/START-STOP qualifiers."""
        qualifiers: List[Qualifier] = []
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "WITHIN":
                self._next()
                number = self._next()
                if number.kind not in ("INT", "FLOAT"):
                    raise PatternError("WITHIN requires a number of seconds")
                self._expect("SECONDS")
                qualifiers.append(Qualifier("WITHIN", seconds=float(number.value)))
            elif token.kind == "REPEATS":
                self._next()
                number = self._expect("INT")
                self._expect("TIMES")
                count = int(number.value)
                if count < 1:
                    raise PatternError("REPEATS requires a positive count")
                qualifiers.append(Qualifier("REPEATS", times=count))
            elif token.kind == "START":
                self._next()
                start = self._timestamp_literal()
                self._expect("STOP")
                stop = self._timestamp_literal()
                qualifiers.append(Qualifier("STARTSTOP", start=start, stop=stop))
            else:
                break
        return tuple(qualifiers)

    def _timestamp_literal(self) -> _dt.datetime:
        token = self._next()
        if token.kind != "TIMESTAMP":
            raise PatternError(f"expected timestamp literal at {token.position}")
        return _timestamp_value(token)

    # comparison level -------------------------------------------------------

    def parse_comparison_expression(self) -> Any:
        """Parse the comparison-level AND/OR grammar."""
        return self._parse_or()

    def _parse_or(self) -> Any:
        left = self._parse_and()
        operands = [left]
        while self._peek() is not None and self._peek().kind == "OR":
            self._next()
            operands.append(self._parse_and())
        if len(operands) == 1:
            return left
        return BooleanExpr("OR", tuple(operands))

    def _parse_and(self) -> Any:
        left = self._parse_comparison_unit()
        operands = [left]
        while self._peek() is not None and self._peek().kind == "AND":
            self._next()
            operands.append(self._parse_comparison_unit())
        if len(operands) == 1:
            return left
        return BooleanExpr("AND", tuple(operands))

    def _parse_comparison_unit(self) -> Any:
        token = self._peek()
        if token is None:
            raise PatternError("unexpected end of comparison expression")
        if token.kind == "LPAREN":
            self._next()
            inner = self.parse_comparison_expression()
            self._expect("RPAREN")
            return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> Comparison:
        path_token = self._expect("PATH")
        path = _parse_object_path(path_token.value)
        negated = False
        token = self._next()
        if token.kind == "NOT":
            negated = True
            token = self._next()
        if token.kind == "OP":
            operator = token.value
            value = self._literal()
        elif token.kind in ("IN",):
            operator = "IN"
            value = self._literal_list()
        elif token.kind in ("LIKE", "MATCHES", "ISSUBSET", "ISSUPERSET"):
            operator = token.kind
            value = self._literal()
            if not isinstance(value, str):
                raise PatternError(f"{operator} requires a string literal")
        else:
            raise PatternError(
                f"expected comparison operator at {token.position}, got {token.value!r}")
        return Comparison(path=path, operator=operator, value=value, negated=negated)

    def _literal(self) -> Any:
        token = self._next()
        if token.kind == "STRING":
            raw = token.value[1:-1]
            return raw.replace("\\'", "'").replace("\\\\", "\\")
        if token.kind == "INT":
            return int(token.value)
        if token.kind == "FLOAT":
            return float(token.value)
        if token.kind == "TIMESTAMP":
            return _timestamp_value(token)
        if token.kind in ("TRUE", "FALSE"):
            return token.kind == "TRUE"
        raise PatternError(f"expected literal at {token.position}, got {token.value!r}")

    def _literal_list(self) -> Tuple[Any, ...]:
        self._expect("LPAREN")
        values = [self._literal()]
        while self._peek() is not None and self._peek().kind == "COMMA":
            self._next()
            values.append(self._literal())
        self._expect("RPAREN")
        return tuple(values)


def _parse_object_path(text: str) -> ObjectPath:
    object_type, _, rest = text.partition(":")
    if not rest:
        raise PatternError(f"object path {text!r} is missing its property path")
    components: List[str] = []
    buffer = ""
    index = 0
    while index < len(rest):
        char = rest[index]
        if char == "'":
            end = rest.find("'", index + 1)
            if end == -1:
                raise PatternError(f"unterminated quoted path component in {text!r}")
            components.append(rest[index + 1:end])
            index = end + 1
        elif char == ".":
            if buffer:
                components.append(buffer)
                buffer = ""
            index += 1
        elif char == "[":
            if buffer:
                components.append(buffer)
                buffer = ""
            end = rest.find("]", index)
            if end == -1:
                raise PatternError(f"unterminated index in {text!r}")
            components.append(rest[index + 1:end] or "*")
            index = end + 1
        else:
            buffer += char
            index += 1
    if buffer:
        components.append(buffer)
    if not components:
        raise PatternError(f"object path {text!r} has no components")
    return ObjectPath(object_type=object_type, components=tuple(components))


def parse_pattern(text: str) -> Any:
    """Parse a STIX pattern string into its AST root."""
    if not text or not text.strip():
        raise PatternError("empty pattern")
    return _Parser(tokenize(text), text).parse_pattern()


def validate_pattern(text: str) -> bool:
    """Return True when the pattern parses; raise PatternError otherwise."""
    parse_pattern(text)
    return True


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observation:
    """A timestamped set of cyber observables, keyed like STIX observed-data."""

    objects: Mapping[str, Mapping[str, Any]]
    timestamp: _dt.datetime

    @classmethod
    def single(cls, obj: Mapping[str, Any], timestamp: _dt.datetime) -> "Observation":
        """An observation holding exactly one observable."""
        return cls(objects={"0": obj}, timestamp=ensure_utc(timestamp))


def _resolve_path(obj: Mapping[str, Any], components: Sequence[str]) -> List[Any]:
    """Resolve path components against an observable; returns all matches."""
    current: List[Any] = [obj]
    for comp in components:
        nxt: List[Any] = []
        for node in current:
            if isinstance(node, Mapping):
                if comp == "*":
                    nxt.extend(node.values())
                elif comp in node:
                    nxt.append(node[comp])
            elif isinstance(node, (list, tuple)):
                if comp == "*":
                    nxt.extend(node)
                elif comp.lstrip("-").isdigit():
                    idx = int(comp)
                    if -len(node) <= idx < len(node):
                        nxt.append(node[idx])
        current = nxt
        if not current:
            break
    return current


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _compare(operator: str, actual: Any, expected: Any) -> bool:
    try:
        if operator == "=":
            return actual == expected
        if operator == "!=":
            return actual != expected
        if operator == "<":
            return actual < expected
        if operator == "<=":
            return actual <= expected
        if operator == ">":
            return actual > expected
        if operator == ">=":
            return actual >= expected
        if operator == "IN":
            return actual in expected
        if operator == "LIKE":
            return isinstance(actual, str) and _like_to_regex(expected).match(actual) is not None
        if operator == "MATCHES":
            return isinstance(actual, str) and re.search(expected, actual) is not None
        if operator == "ISSUBSET":
            return (isinstance(actual, str)
                    and ipaddress.ip_network(actual, strict=False).subnet_of(
                        ipaddress.ip_network(expected, strict=False)))
        if operator == "ISSUPERSET":
            return (isinstance(actual, str)
                    and ipaddress.ip_network(expected, strict=False).subnet_of(
                        ipaddress.ip_network(actual, strict=False)))
    except (TypeError, ValueError):
        return False
    raise PatternError(f"unsupported operator {operator!r}")


def _eval_comparison_on_observation(node: Any, observation: Observation) -> bool:
    if isinstance(node, BooleanExpr):
        results = (_eval_comparison_on_observation(op, observation) for op in node.operands)
        return all(results) if node.operator == "AND" else any(results)
    if isinstance(node, Comparison):
        matched = False
        for obj in observation.objects.values():
            if obj.get("type") != node.path.object_type:
                continue
            for actual in _resolve_path(obj, node.path.components):
                if _compare(node.operator, actual, node.value):
                    matched = True
                    break
            if matched:
                break
        return (not matched) if node.negated else matched
    raise PatternError(f"cannot evaluate node {node!r}")


def _matching_indices(term: ObservationTerm,
                      observations: Sequence[Observation]) -> List[int]:
    indices = [i for i, obs in enumerate(observations)
               if _eval_comparison_on_observation(term.expression, obs)]
    return _apply_qualifiers(indices, term.qualifiers, observations)


def _apply_qualifiers(indices: List[int], qualifiers: Sequence[Qualifier],
                      observations: Sequence[Observation]) -> List[int]:
    """Apply qualifiers in normative order: STARTSTOP, WITHIN, then REPEATS.

    The order matters regardless of how the pattern spells them:
    ``REPEATS n TIMES WITHIN s SECONDS`` means *n repetitions inside the
    window*, so the window restriction must narrow the candidate set before
    the repetition count is checked.
    """
    ordered = sorted(qualifiers,
                     key=lambda q: {"STARTSTOP": 0, "WITHIN": 1, "REPEATS": 2}[q.kind])
    for qualifier in ordered:
        if qualifier.kind == "STARTSTOP":
            indices = [i for i in indices
                       if qualifier.start <= observations[i].timestamp < qualifier.stop]
        elif qualifier.kind == "WITHIN":
            if indices:
                window = _dt.timedelta(seconds=qualifier.seconds or 0.0)
                times = sorted(observations[i].timestamp for i in indices)
                if (times[-1] - times[0]) > window:
                    # Keep the densest window: slide over sorted times and
                    # keep the set of indices inside the best-populated one.
                    best_start = times[0]
                    best_count = 0
                    for start in times:
                        count = sum(1 for t in times if start <= t <= start + window)
                        if count > best_count:
                            best_count = count
                            best_start = start
                    indices = [
                        i for i in indices
                        if best_start <= observations[i].timestamp <= best_start + window
                    ]
        elif qualifier.kind == "REPEATS":
            if len(indices) < (qualifier.times or 1):
                indices = []
    return indices


def _eval_observation_node(node: Any, observations: Sequence[Observation]) -> List[int]:
    """Return the sorted indices of observations satisfying the node."""
    if isinstance(node, ObservationTerm):
        return _matching_indices(node, observations)
    if isinstance(node, ObservationCombo):
        child_matches = [_eval_observation_node(op, observations) for op in node.operands]
        if node.operator == "OR":
            hit = sorted({i for matches in child_matches for i in matches})
            if not any(child_matches):
                hit = []
        elif node.operator == "AND":
            if all(child_matches):
                hit = sorted({i for matches in child_matches for i in matches})
            else:
                hit = []
        elif node.operator == "FOLLOWEDBY":
            hit = []
            last_time: Optional[_dt.datetime] = None
            satisfied = True
            for matches in child_matches:
                eligible = [i for i in matches
                            if last_time is None or observations[i].timestamp >= last_time]
                if not eligible:
                    satisfied = False
                    break
                first = min(eligible, key=lambda i: observations[i].timestamp)
                hit.append(first)
                last_time = observations[first].timestamp
            if not satisfied:
                hit = []
        else:
            raise PatternError(f"unknown observation operator {node.operator!r}")
        return _apply_qualifiers(sorted(set(hit)), node.qualifiers, observations)
    raise PatternError(f"cannot evaluate observation node {node!r}")


class CompiledPattern:
    """A parsed pattern ready for repeated evaluation."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.ast = parse_pattern(text)

    def matches(self, observations: Sequence[Observation]) -> bool:
        """True when the observation sequence satisfies the pattern."""
        return bool(_eval_observation_node(self.ast, list(observations)))

    def matching_observations(self, observations: Sequence[Observation]) -> List[int]:
        """Indices of the observations that contributed to the match."""
        return _eval_observation_node(self.ast, list(observations))

    def comparisons(self) -> List[Comparison]:
        """Flatten every comparison in the pattern (for indicator indexing)."""
        found: List[Comparison] = []

        def walk(node: Any) -> None:
            if isinstance(node, Comparison):
                found.append(node)
            elif isinstance(node, BooleanExpr):
                for operand in node.operands:
                    walk(operand)
            elif isinstance(node, ObservationTerm):
                walk(node.expression)
            elif isinstance(node, ObservationCombo):
                for operand in node.operands:
                    walk(operand)

        walk(self.ast)
        return found


def match(pattern_text: str, observations: Sequence[Observation]) -> bool:
    """One-shot convenience wrapper around :class:`CompiledPattern`."""
    return CompiledPattern(pattern_text).matches(observations)


def equals_pattern(object_path: str, value: str) -> str:
    """Build the canonical single-equality pattern (``[path = 'value']``)."""
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    return f"[{object_path} = '{escaped}']"


#: The shape :func:`equals_pattern` builds: one ``[path = 'string']``
#: observation over a plain object path (``type:name`` with dotted
#: ``name`` or quoted ``'KEY'`` components, as in ``file:hashes.'SHA-1'``)
#: and the tokenizer's STRING literal.  Every string this matches
#: tokenizes and parses as that one equality, so it needs no parse to be
#: known valid.
_PATH_COMPONENT = r"(?:[A-Za-z_][A-Za-z0-9_]*|'[A-Za-z0-9-]+')"
_POINT_EQUALITY_RE = re.compile(
    rf"\[[a-z][a-z0-9-]*:{_PATH_COMPONENT}(?:\.{_PATH_COMPONENT})* = {_STRING}\]")


def is_valid_pattern(text: str) -> bool:
    """Whether ``text`` parses as a STIX pattern.

    A point equality in :func:`equals_pattern`'s shape is accepted by one
    regular-expression match; every other string goes to
    :func:`parse_pattern`.
    """
    if _POINT_EQUALITY_RE.fullmatch(text):
        return True
    try:
        parse_pattern(text)
    except PatternError:
        return False
    return True
