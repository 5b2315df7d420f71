"""Declarative SLOs evaluated with multi-window burn rates.

An :class:`SloRule` states an objective over one per-cycle metric ("cycle
p99 latency <= 2s", "at most 5% degraded cycles") plus an error budget:
the fraction of cycles allowed to violate the objective.  The engine
evaluates each rule over two windows of the cycle time series
(:class:`~repro.obs.timeseries.MetricTimeSeries`):

- the **burn rate** of a window is ``bad_fraction / budget`` — how many
  times faster than allowed the error budget is being consumed (1.0 means
  exactly on budget);
- **fast window** (default 5 cycles) catches sharp regressions quickly;
- **slow window** (default 20 cycles) confirms they are sustained.

Severity follows the multi-window pattern from the SRE literature: a rule
is ``failing`` (page) only when *both* windows burn hot — the fast window
above ``fast_burn`` and the slow window above ``slow_burn`` — and
``degraded`` (ticket) when either the fast window spikes or the slow
window shows the budget burning at all (slow burn >= 1.0).  Statuses are
exported as ``caop_slo_*`` gauges and merged into
:class:`~repro.resilience.health.PlatformHealth` as ``slo:<rule>``
components by the platform (this module deliberately does not import the
resilience layer — severities reuse the same ok/degraded/failing strings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import ValidationError
from .metrics import MetricsRegistry, NULL_REGISTRY
from .timeseries import MetricTimeSeries

SLO_OK = "ok"
SLO_DEGRADED = "degraded"
SLO_FAILING = "failing"

_COMPARATORS = {
    "<=": lambda value, objective: value <= objective,
    ">=": lambda value, objective: value >= objective,
    "<": lambda value, objective: value < objective,
    ">": lambda value, objective: value > objective,
}


@dataclass(frozen=True)
class SloRule:
    """One objective over a per-cycle metric, with burn-rate windows."""

    name: str
    metric: str
    objective: float
    comparison: str = "<="
    #: Fraction of cycles allowed to violate the objective.
    budget: float = 0.05
    fast_window: int = 5
    slow_window: int = 20
    #: Burn-rate multiples that, exceeded *together*, mean ``failing``.
    fast_burn: float = 2.0
    slow_burn: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.comparison not in _COMPARATORS:
            raise ValidationError(
                f"slo {self.name}: unknown comparison {self.comparison!r}")
        if not 0.0 < self.budget <= 1.0:
            raise ValidationError(
                f"slo {self.name}: budget must be in (0, 1]")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValidationError(
                f"slo {self.name}: need 0 < fast_window <= slow_window")

    def is_good(self, value: float) -> bool:
        """Whether one cycle's value satisfies the objective."""
        return _COMPARATORS[self.comparison](value, self.objective)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SloRule":
        """Build a rule from its JSON form (the ``caop slo --rules`` file)."""
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValidationError(f"slo rule: unknown fields {unknown}")
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ValidationError(f"slo rule: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rule definition."""
        return {
            "name": self.name, "metric": self.metric,
            "objective": self.objective, "comparison": self.comparison,
            "budget": self.budget, "fast_window": self.fast_window,
            "slow_window": self.slow_window, "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn, "description": self.description,
        }


@dataclass
class SloStatus:
    """One rule's evaluation at one instant."""

    rule: SloRule
    severity: str = SLO_OK
    fast_burn_rate: float = 0.0
    slow_burn_rate: float = 0.0
    #: Fraction of slow-window cycles meeting the objective (1.0 = all).
    compliance: float = 1.0
    samples: int = 0
    detail: str = ""

    @property
    def alerting(self) -> bool:
        """Whether this status should raise an alert."""
        return self.severity != SLO_OK

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly status (CLI/report surface)."""
        return {
            "rule": self.rule.name,
            "severity": self.severity,
            "fast_burn_rate": self.fast_burn_rate,
            "slow_burn_rate": self.slow_burn_rate,
            "compliance": self.compliance,
            "samples": self.samples,
            "detail": self.detail,
        }


def default_slo_rules() -> List[SloRule]:
    """The platform's stock SLOs over ``run_cycle`` snapshot values."""
    return [
        SloRule(
            name="cycle-latency", metric="cycle_seconds", objective=2.0,
            comparison="<=", budget=0.05,
            description="A pipeline cycle completes within 2 s wall-clock."),
        SloRule(
            name="degraded-cycles", metric="degraded", objective=0.0,
            comparison="<=", budget=0.05,
            description="At most 5% of cycles run degraded (stage errors)."),
        SloRule(
            name="drop-ratio", metric="drop_ratio", objective=0.01,
            comparison="<=", budget=0.10,
            description="Fetched records dropped by faults stay under 1%."),
        SloRule(
            name="share-staleness", metric="share_stale_cycles",
            objective=1.0, comparison="<=", budget=0.10,
            description="Outbound shares lag at most one cycle behind."),
    ]


class SloEngine:
    """Evaluates SLO rules over the per-cycle time series."""

    def __init__(self, rules: Optional[Sequence[SloRule]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 capacity: int = 512) -> None:
        self.rules: List[SloRule] = list(
            rules if rules is not None else default_slo_rules())
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValidationError("slo rule names must be unique")
        self.timeseries = MetricTimeSeries(capacity=capacity)
        self._statuses: List[SloStatus] = []
        metrics = metrics or NULL_REGISTRY
        self._m_burn = metrics.gauge(
            "caop_slo_burn_rate",
            "Error-budget burn rate per SLO rule and window "
            "(1.0 = burning exactly on budget)")
        self._m_compliance = metrics.gauge(
            "caop_slo_compliance",
            "Fraction of slow-window cycles meeting each SLO objective")
        self._m_alert_cycles = metrics.counter(
            "caop_slo_alert_cycles_total",
            "Evaluations in which an SLO rule was alerting, by severity")

    def observe_cycle(self, cycle: int, at: Any,
                      values: Mapping[str, float]) -> None:
        """Snapshot one cycle's metric values into the time series.

        The platform feeds every field of
        :meth:`~repro.core.platform.CycleReport.to_record` (production
        counts such as ``ciocs_created``/``shares_sent``, ``degraded``, and
        the steady-state signals ``deltas_consumed`` / ``idle``, 1.0 on
        quiet cycles) plus ``cycle_seconds``, ``drop_ratio`` and
        ``share_stale_cycles``, so custom rules can state objectives over
        any of them.
        """
        self.timeseries.append(cycle, at, values)

    @staticmethod
    def _bad_fraction(rule: SloRule, values: Sequence[float]) -> float:
        if not values:
            return 0.0
        bad = sum(1 for value in values if not rule.is_good(value))
        return bad / len(values)

    def evaluate(self) -> List[SloStatus]:
        """Re-evaluate every rule against the current time series."""
        statuses: List[SloStatus] = []
        for rule in self.rules:
            fast_values = self.timeseries.series(rule.metric, rule.fast_window)
            slow_values = self.timeseries.series(rule.metric, rule.slow_window)
            fast = self._bad_fraction(rule, fast_values) / rule.budget
            slow = self._bad_fraction(rule, slow_values) / rule.budget
            compliance = 1.0 - self._bad_fraction(rule, slow_values)
            if fast >= rule.fast_burn and slow >= rule.slow_burn:
                severity = SLO_FAILING
            elif fast >= rule.fast_burn or slow >= 1.0:
                severity = SLO_DEGRADED
            else:
                severity = SLO_OK
            status = SloStatus(
                rule=rule, severity=severity, fast_burn_rate=fast,
                slow_burn_rate=slow, compliance=compliance,
                samples=len(slow_values),
                detail=(f"burn fast={fast:.2f}x slow={slow:.2f}x "
                        f"compliance={compliance:.0%} "
                        f"over {len(slow_values)} cycle(s)"))
            statuses.append(status)
            self._m_burn.set(fast, rule=rule.name, window="fast")
            self._m_burn.set(slow, rule=rule.name, window="slow")
            self._m_compliance.set(compliance, rule=rule.name)
            if status.alerting:
                self._m_alert_cycles.inc(rule=rule.name,
                                         severity=status.severity)
        self._statuses = statuses
        return statuses

    def last_statuses(self) -> List[SloStatus]:
        """The statuses from the most recent :meth:`evaluate` call."""
        return list(self._statuses)

    def alerts(self) -> List[SloStatus]:
        """The currently alerting statuses (degraded or failing)."""
        return [status for status in self._statuses if status.alerting]
