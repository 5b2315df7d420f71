"""IoC score decay over time (MISP decaying-models style).

Threat intelligence ages: a domain sighted a year ago is weaker evidence
than one sighted yesterday.  The paper encodes recency *at scoring time*
(the timeliness features); this module adds the complementary *continuous*
view used by MISP's decaying models so consumers can ask "what is this
eIoC's score worth **now**?" without re-running the heuristic analysis.

The decay follows MISP's polynomial model::

    score(t) = base_score * (1 - (t / lifetime) ** (1 / decay_speed))

clamped at zero once ``t`` reaches ``lifetime``.  As in MISP, a larger
``decay_speed`` decays *faster* early on (the exponent 1/decay_speed pulls
the ratio toward 1); ``decay_speed = 1`` gives a straight line.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..clock import Clock, SimulatedClock, ensure_utc
from ..errors import ValidationError
from ..misp import MispEvent, MispStore
from .ioc import threat_score_of


@dataclass(frozen=True)
class DecayModel:
    """Parameters of one decay curve."""

    lifetime: _dt.timedelta = _dt.timedelta(days=365)
    decay_speed: float = 3.0

    def __post_init__(self) -> None:
        if self.lifetime <= _dt.timedelta(0):
            raise ValidationError("lifetime must be positive")
        if self.decay_speed <= 0:
            raise ValidationError("decay_speed must be positive")

    def factor(self, age: _dt.timedelta) -> float:
        """The multiplicative decay factor in [0, 1] at a given age."""
        if age <= _dt.timedelta(0):
            return 1.0
        ratio = age / self.lifetime
        if ratio >= 1.0:
            return 0.0
        return 1.0 - ratio ** (1.0 / self.decay_speed)

    def current_score(self, base_score: float, age: _dt.timedelta) -> float:
        """The decayed score of a base score at a given age."""
        if not 0.0 <= base_score <= 5.0:
            raise ValidationError(f"base score out of range: {base_score}")
        return base_score * self.factor(age)

    def is_expired(self, age: _dt.timedelta) -> bool:
        """Whether an IoC of this age is past its lifetime."""
        return age >= self.lifetime


#: Default models per threat category.  Network indicators churn fast
#: (short lifetime, high decay_speed = steep early decay); hashes and
#: vulnerabilities stay actionable for years (long lifetime, decay_speed
#: below 1 = value holds up through most of the lifetime).
CATEGORY_MODELS = {
    "ip-blocklist": DecayModel(lifetime=_dt.timedelta(days=30), decay_speed=3.0),
    "malware-domains": DecayModel(lifetime=_dt.timedelta(days=90), decay_speed=2.5),
    "phishing": DecayModel(lifetime=_dt.timedelta(days=30), decay_speed=3.0),
    "malware-hashes": DecayModel(lifetime=_dt.timedelta(days=730), decay_speed=1.0),
    "vulnerability-exploitation": DecayModel(lifetime=_dt.timedelta(days=1095),
                                             decay_speed=0.8),
    "threat-news": DecayModel(lifetime=_dt.timedelta(days=60), decay_speed=2.0),
}

DEFAULT_MODEL = DecayModel()

_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)
_SECOND = _dt.timedelta(seconds=1)


def model_for_category(category: Optional[str]) -> DecayModel:
    """The decay model of a threat category (the default when unknown)."""
    return CATEGORY_MODELS.get(category, DEFAULT_MODEL)


@dataclass(frozen=True)
class DecayedScore:
    """The decayed view of one eIoC at one instant."""

    event_uuid: str
    base_score: float
    current_score: float
    age: _dt.timedelta
    expired: bool


class ScoreDecayEngine:
    """Computes current (decayed) scores over a MISP store's eIoCs."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or SimulatedClock()

    def model_for(self, event: MispEvent) -> DecayModel:
        """Select the decay model for an event's category."""
        from .compose import tags_to_category
        return model_for_category(tags_to_category(event))

    def evaluate(self, event: MispEvent) -> Optional[DecayedScore]:
        """Decayed score of one eIoC; None when it carries no score."""
        base = threat_score_of(event)
        if base is None:
            return None
        age = self._clock.now() - ensure_utc(event.timestamp)
        model = self.model_for(event)
        return DecayedScore(
            event_uuid=event.uuid,
            base_score=base,
            current_score=model.current_score(base, age),
            age=age,
            expired=model.is_expired(age))

    def evaluate_summary(self, event_uuid: str, category: Optional[str],
                         base_score: float, timestamp: _dt.datetime
                         ) -> DecayedScore:
        """Decayed score from a pre-extracted (category, base, timestamp).

        Exactly equivalent to :meth:`evaluate` on the full event — the
        model choice (``CATEGORY_MODELS`` by category, else the default)
        and the curve are the same — but needs no event payload, so
        incrementally-maintained rollups can re-score from summaries
        without deserializing anything.
        """
        age = self._clock.now() - ensure_utc(timestamp)
        model = model_for_category(category)
        return DecayedScore(
            event_uuid=event_uuid,
            base_score=base_score,
            current_score=model.current_score(base_score, age),
            age=age,
            expired=model.is_expired(age))

    def sweep(self, store: MispStore) -> Tuple[List[DecayedScore], List[str]]:
        """Evaluate every scored event; returns (live scores, expired uuids)."""
        live: List[DecayedScore] = []
        expired: List[str] = []
        for event in store.list_events():
            decayed = self.evaluate(event)
            if decayed is None:
                continue
            if decayed.expired:
                expired.append(decayed.event_uuid)
            else:
                live.append(decayed)
        return live, expired

    def sweep_summaries(self, summaries: Mapping[str, Mapping[str, Any]]
                        ) -> Tuple[int, List[str]]:
        """:meth:`sweep` over report summaries instead of stored events.

        ``summaries`` maps event uuids to
        :func:`~repro.core.report.summarize_event` output, whose epoch
        ``ts``, ``category`` and ``base`` are all expiry needs: an event
        expires once its age reaches its category's lifetime, so each
        category has one cutoff per call and nothing is decoded.  Returns
        ``(live count, expired uuids)``, the uuids in :meth:`sweep` order
        (``timestamp DESC, uuid``).  Unscored events never expire.
        """
        now = self._clock.now()
        cutoffs: Dict[Optional[str], int] = {}
        live = 0
        expired: List[Tuple[int, str]] = []
        for uuid, summary in summaries.items():
            base = summary["base"]
            if base is None:
                continue
            if not 0.0 <= base <= 5.0:
                raise ValidationError(f"base score out of range: {base}")
            category = summary["category"]
            cutoff = cutoffs.get(category)
            if cutoff is None:
                # Stored timestamps are whole seconds, so flooring the
                # cutoff keeps ``ts <= cutoff`` exact.
                lifetime = model_for_category(category).lifetime
                cutoff = (now - lifetime - _EPOCH) // _SECOND
                cutoffs[category] = cutoff
            if summary["ts"] <= cutoff:
                expired.append((-summary["ts"], uuid))
            else:
                live += 1
        expired.sort()
        return live, [uuid for _ts, uuid in expired]
