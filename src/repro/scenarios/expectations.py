"""Scenario expectations and the structured scenario result.

The scenario subsystem used to be a demo: runs printed metrics and
"passed" as long as they did not crash. This module turns it into a
regression oracle. Two pieces:

* :class:`ScenarioResult` — one picklable, JSON-able result type for
  every driver. Every driver summarises its run into the same windowed
  :class:`~repro.experiments.harness.RunResult` (a live run's is its
  :class:`~repro.scenarios.runner.LiveScenarioReport`'s ``result``), and
  :meth:`ScenarioResult.from_run` flattens it into a ``name ->
  MetricValue`` mapping where every metric carries its provenance
  (``"sim:delivery"``, ``"process:rates"``, ...), so an expectation or a
  baseline diff can always say *where* a number came from.

* The expectation vocabulary — small frozen values
  (:class:`ReliabilityAtLeast`, :class:`RedundancyAtMost`,
  :class:`ConvergenceWithin`, :class:`NoDroppedSenders`,
  :class:`AdaptiveBeatsStatic`) attached to a
  :class:`~repro.scenarios.spec.ScenarioSpec` (usually via the
  ``@scenario(..., expectations=...)`` registry decorator) and evaluated
  against a :class:`ScenarioResult` with
  :func:`evaluate_expectations`. Every driver reports every metric, so
  every expectation is evaluated on every driver; one whose metric a
  result lacks (a hand-built result, say) is *skipped*, not failed.

:class:`AdaptiveBeatsStatic` is the paper's headline claim as a check:
it compares the scenario's run against a *companion* run of the same
spec with the static (non-adaptive) protocol and demands the adaptive
metric wins by a margin. The sweep runner
(:func:`~repro.experiments.sweep.run_scenario_checks`) executes the
companion in the same shard as the scenario itself.

Everything here is deliberately dependency-light: results are built by
duck-typing over the drivers' result objects, so this module imports
neither the experiment harness nor the runtimes and stays cycle-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.metrics.convergence import convergence_rounds

__all__ = [
    "MetricValue",
    "ScenarioResult",
    "ScenarioCheck",
    "ExpectationCheck",
    "Expectation",
    "ReliabilityAtLeast",
    "RedundancyAtMost",
    "ConvergenceWithin",
    "NoDroppedSenders",
    "AdaptiveBeatsStatic",
    "evaluate_expectations",
    "needs_companion",
]


# ----------------------------------------------------------------------
# the unified result type
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class MetricValue:
    """One measured quantity, where it was measured, and what it is.

    ``kind`` drives tolerance-banded baseline comparison (sim compares
    exactly regardless): ``"count"`` (non-negative integral totals —
    relative band plus absolute slack for near-zero wobble),
    ``"fraction"`` (bounded [0, 1] — absolute band), or ``"ratio"``
    (unbounded rates/ratios — relative band). Explicit metadata, not a
    value-shape heuristic: 0 vs 1 is a harmless count wobble but a total
    fraction collapse, and only the producer knows which it is.
    """

    value: float
    source: str  # provenance, e.g. "sim:delivery", "threaded:transport"
    kind: str = "ratio"  # "count" | "fraction" | "ratio"


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario run, as a flat named-metric mapping.

    Every driver produces this shape through :meth:`from_run`, which is
    what expectations evaluate and baselines snapshot. Picklable, and
    JSON-able via :func:`repro.experiments.sweep.to_jsonable`.
    """

    scenario: str
    driver: str  # "sim" | "threaded" | "process"
    profile: str = ""
    n_nodes: int = 0
    metrics: Mapping[str, MetricValue] = field(default_factory=dict)

    def get(self, name: str) -> Optional[float]:
        """The metric's value, or None if this driver did not report it."""
        entry = self.metrics.get(name)
        return None if entry is None else entry.value

    def source(self, name: str) -> Optional[str]:
        entry = self.metrics.get(name)
        return None if entry is None else entry.source

    @classmethod
    def from_run(cls, result, profile: str = "", driver: str = "sim") -> "ScenarioResult":
        """Distil a :class:`~repro.experiments.harness.RunResult` that
        ``driver`` produced; provenance names the driver (``"sim:…"``,
        ``"threaded:…"`` or ``"process:…"``)."""
        spec = result.spec
        delivery = result.delivery
        latency = delivery.mean_latency

        def metric(value, area: str, kind: str = "ratio") -> MetricValue:
            return MetricValue(value, f"{driver}:{area}", kind)

        metrics = {
            "messages": metric(float(delivery.messages), "delivery", "count"),
            "atomicity": metric(delivery.atomicity, "delivery", "fraction"),
            "avg_receiver_fraction": metric(
                delivery.avg_receiver_fraction, "delivery", "fraction"
            ),
            "complete_fraction": metric(delivery.complete_fraction, "delivery", "fraction"),
            "redundancy": metric(result.gossip_redundancy, "gossip"),
            "delivery_redundancy": metric(delivery.redundancy, "delivery"),
            "mean_latency_s": metric(latency, "convergence"),
            "convergence_rounds": metric(
                convergence_rounds(latency, spec.system.gossip_period), "convergence"
            ),
            "offered_rate": metric(result.offered_rate, "rates"),
            "input_rate": metric(result.input_rate, "rates"),
            "output_rate": metric(result.output_rate, "rates"),
            "drop_age_mean": metric(result.drop_age_mean, "drops"),
            "drops_overflow": metric(result.drops_overflow, "drops", "count"),
            "drops_age_out": metric(result.drops_age_out, "drops", "count"),
            "senders_total": metric(float(result.senders_total), "senders", "count"),
            "senders_reached": metric(float(result.senders_reached), "senders", "count"),
        }
        return cls(
            scenario=spec.scenario or spec.protocol,
            driver=driver,
            profile=profile,
            n_nodes=spec.n_nodes,
            metrics=metrics,
        )


# ----------------------------------------------------------------------
# expectation checks
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ExpectationCheck:
    """The outcome of evaluating one expectation against one result."""

    expectation: str  # the expectation's repr, e.g. "ReliabilityAtLeast(0.95)"
    metric: str
    passed: bool
    observed: Optional[float] = None
    bound: Optional[float] = None
    skipped: bool = False  # metric unavailable on this driver — not a failure
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")


def _skip(expectation: "Expectation", metric: str, why: str) -> ExpectationCheck:
    return ExpectationCheck(
        expectation=repr(expectation),
        metric=metric,
        passed=True,
        skipped=True,
        detail=why,
    )


class Expectation:
    """Base class: a frozen value with ``check(result, companion=None)``.

    Subclasses set ``metric`` (the :class:`ScenarioResult` entry they
    read) and implement :meth:`check`. ``companion_protocol`` is non-None
    for cross-run expectations; the check runner then executes the same
    scenario once more under that protocol and passes its result as
    ``companion``.
    """

    metric: str = ""
    companion_protocol: Optional[str] = None

    def check(
        self,
        result: ScenarioResult,
        companion: Optional[ScenarioResult] = None,
    ) -> ExpectationCheck:
        raise NotImplementedError


def _bound_check(
    exp: Expectation,
    result: ScenarioResult,
    bound: float,
    ok,
    relation: str,
) -> ExpectationCheck:
    observed = result.get(exp.metric)
    if observed is None:
        return _skip(exp, exp.metric, f"driver {result.driver!r} does not report it")
    if math.isnan(observed):
        return ExpectationCheck(
            expectation=repr(exp),
            metric=exp.metric,
            passed=False,
            observed=observed,
            bound=bound,
            detail="observed value is NaN (no data in the window)",
        )
    return ExpectationCheck(
        expectation=repr(exp),
        metric=exp.metric,
        passed=ok(observed),
        observed=observed,
        bound=bound,
        detail=f"{exp.metric}={observed:.4g} {relation} {bound:g}",
    )


@dataclass(frozen=True, repr=False)
class ReliabilityAtLeast(Expectation):
    """The paper's headline property: delivery reliability stays high.

    ``metric`` defaults to atomicity (share of messages reaching >95% of
    the group); pass ``metric="avg_receiver_fraction"`` for the softer
    Figure 8(a) reading.
    """

    threshold: float = 0.95
    metric: str = "atomicity"

    def __repr__(self) -> str:
        if self.metric == "atomicity":
            return f"ReliabilityAtLeast({self.threshold:g})"
        return f"ReliabilityAtLeast({self.threshold:g}, metric={self.metric!r})"

    def check(self, result, companion=None) -> ExpectationCheck:
        return _bound_check(
            self, result, self.threshold, lambda v: v >= self.threshold, ">="
        )


@dataclass(frozen=True, repr=False)
class RedundancyAtMost(Expectation):
    """Gossip pays for reliability with duplicates — bound the price.

    ``redundancy`` is duplicate deliveries per unique delivery over the
    measurement window (the cost axis of the reliability-vs-cost
    envelope in De Florio & Blondia's gossip-family analysis).
    """

    ratio: float = 5.0
    metric: str = "redundancy"

    def __repr__(self) -> str:
        return f"RedundancyAtMost({self.ratio:g})"

    def check(self, result, companion=None) -> ExpectationCheck:
        return _bound_check(self, result, self.ratio, lambda v: v <= self.ratio, "<=")


@dataclass(frozen=True, repr=False)
class ConvergenceWithin(Expectation):
    """Mean dissemination latency, in gossip rounds, stays bounded."""

    rounds: float = 10.0
    metric: str = "convergence_rounds"

    def __repr__(self) -> str:
        return f"ConvergenceWithin({self.rounds:g})"

    def check(self, result, companion=None) -> ExpectationCheck:
        return _bound_check(self, result, self.rounds, lambda v: v <= self.rounds, "<=")


@dataclass(frozen=True, repr=False)
class NoDroppedSenders(Expectation):
    """Every sender got at least one message through to the group.

    A sender is *dropped* when none of its window messages reached
    anyone beyond the sender itself — the pathology where admission
    control or buffer pressure silences a member entirely.
    """

    metric: str = "senders_reached"

    def __repr__(self) -> str:
        return "NoDroppedSenders()"

    def check(self, result, companion=None) -> ExpectationCheck:
        reached = result.get("senders_reached")
        total = result.get("senders_total")
        if reached is None or total is None:
            return _skip(self, self.metric, f"driver {result.driver!r} does not report it")
        return ExpectationCheck(
            expectation=repr(self),
            metric=self.metric,
            passed=reached >= total,
            observed=reached,
            bound=total,
            detail=f"{reached:g} of {total:g} senders reached the group",
        )


@dataclass(frozen=True, repr=False)
class AdaptiveBeatsStatic(Expectation):
    """The adaptive protocol must beat the static one by ``margin``.

    Cross-run: the runner executes the scenario once more with
    ``companion_protocol`` (plain lpbcast — static buffering, no
    admission control) and this check demands
    ``adaptive >= static + margin`` on ``metric``. Skipped when no
    companion result is supplied (e.g. threaded runs).
    """

    margin: float = 0.0
    metric: str = "atomicity"
    companion_protocol: str = "lpbcast"

    def __repr__(self) -> str:
        if self.metric == "atomicity":
            return f"AdaptiveBeatsStatic({self.margin:g})"
        return f"AdaptiveBeatsStatic({self.margin:g}, metric={self.metric!r})"

    def check(self, result, companion=None) -> ExpectationCheck:
        if companion is None:
            return _skip(self, self.metric, "no companion (static) run available")
        ours = result.get(self.metric)
        theirs = companion.get(self.metric)
        if ours is None or theirs is None:
            return _skip(self, self.metric, f"driver {result.driver!r} does not report it")
        if math.isnan(ours) or math.isnan(theirs):
            return ExpectationCheck(
                expectation=repr(self),
                metric=self.metric,
                passed=False,
                observed=ours,
                bound=theirs,
                detail="NaN in adaptive or static run (no data in the window)",
            )
        return ExpectationCheck(
            expectation=repr(self),
            metric=self.metric,
            passed=ours >= theirs + self.margin,
            observed=ours,
            bound=theirs + self.margin,
            detail=(
                f"adaptive {self.metric}={ours:.4g} vs static "
                f"{theirs:.4g} + margin {self.margin:g}"
            ),
        )


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def needs_companion(expectations: Sequence[Expectation]) -> Optional[str]:
    """The companion protocol the expectations require, if any."""
    for exp in expectations:
        if exp.companion_protocol is not None:
            return exp.companion_protocol
    return None


def evaluate_expectations(
    expectations: Sequence[Expectation],
    result: ScenarioResult,
    companion: Optional[ScenarioResult] = None,
) -> tuple[ExpectationCheck, ...]:
    """Evaluate every expectation against ``result``, in order."""
    return tuple(exp.check(result, companion) for exp in expectations)


@dataclass(frozen=True)
class ScenarioCheck:
    """One scenario run plus its evaluated expectations.

    This is what a check shard ships back across the process boundary:
    the distilled :class:`ScenarioResult` (and the static companion's,
    when one was required), never the raw collector.
    """

    scenario: str
    result: ScenarioResult
    checks: tuple[ExpectationCheck, ...] = ()
    companion: Optional[ScenarioResult] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[ExpectationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed and not c.skipped)
