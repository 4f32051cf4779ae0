"""Sharded parallel execution of experiment sweeps.

A sweep is a list of :class:`~repro.experiments.harness.RunSpec`s; this
module fans them across a :mod:`multiprocessing` pool so multi-figure
sessions and many-seed replications use every core. Because each spec is
a fully isolated simulation keyed by its own seed, the results are
**identical whatever the job count** — ``--jobs 4`` reproduces ``--jobs
1`` bit for bit, in spec order (the determinism tests assert this).

:func:`run_specs` returns the distilled :class:`RunResult` per spec;
:func:`merged_metrics` instead ships each shard's whole (picklable)
:class:`~repro.metrics.collector.MetricsCollector` back and reduces them
with :meth:`~repro.metrics.collector.MetricsCollector.merge` — for
analyses that need raw message records from sender-disjoint shards of
one logical experiment rather than per-run summaries.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
from typing import Any, Iterable, Optional, Sequence

from repro.experiments.harness import (
    RunResult,
    RunSpec,
    build_cluster,
    run_once,
    spec_for_scenario,
)
from repro.metrics.collector import MetricsCollector

__all__ = [
    "run_specs",
    "run_scenario_matrix",
    "run_scenario_checks",
    "run_spec_checks",
    "merged_metrics",
    "to_jsonable",
]


def _pool(jobs: int):
    # Platform-default start method: fork on Linux (cheap, inherits
    # sys.path), spawn on macOS/Windows (workers re-import, so the
    # package must be importable — pyproject's src layout covers it).
    return multiprocessing.get_context().Pool(processes=jobs)


def run_specs(specs: Iterable[RunSpec], jobs: int = 1) -> list[RunResult]:
    """Execute every spec, ``jobs`` at a time; results in spec order."""
    specs = list(specs)
    if jobs is None or jobs <= 1 or len(specs) <= 1:
        return [run_once(spec) for spec in specs]
    with _pool(min(jobs, len(specs))) as pool:
        # chunksize 1: specs have wildly different costs (buffer sweeps
        # scale superlinearly in load), so fine-grained stealing wins.
        return pool.map(run_once, specs, chunksize=1)


def run_scenario_matrix(
    names: Optional[Sequence[str]] = None,
    profile: Any = None,
    jobs: int = 1,
    dispatch: str = "batched",
    horizon: Optional[float] = None,
) -> list[RunResult]:
    """Run a scenario matrix, ``jobs`` at a time; results in name order.

    Defaults to *every* registered scenario (the whole registry sweeps in
    parallel). Scenario runs are ordinary :class:`RunSpec`s after
    lowering, so the job-count determinism guarantee of :func:`run_specs`
    carries over verbatim; each result's ``spec.scenario`` records which
    scenario produced it.
    """
    # the registry sits above this layer; resolve it at call time
    from repro.scenarios.registry import get_scenario, scenario_names

    if names is None:
        names = scenario_names()
    specs = [
        spec_for_scenario(get_scenario(name, profile), dispatch=dispatch, horizon=horizon)
        for name in names
    ]
    return run_specs(specs, jobs=jobs)


@dataclasses.dataclass(frozen=True)
class _CheckJob:
    """One shard of a scenario check matrix (picklable)."""

    spec: Any  # ScenarioSpec, expectations attached
    profile_name: str
    dispatch: str = "batched"
    horizon: Optional[float] = None
    evaluate: bool = True  # False: result capture only (baseline updates)


def _check_one(job: _CheckJob):
    """Run one scenario, its static companion if an expectation demands
    one, and evaluate the expectations — all inside the shard, so only
    the small distilled results cross the process boundary."""
    from repro.scenarios.expectations import (
        ScenarioCheck,
        ScenarioResult,
        evaluate_expectations,
        needs_companion,
    )

    spec = job.spec
    run = run_once(spec_for_scenario(spec, dispatch=job.dispatch, horizon=job.horizon))
    result = ScenarioResult.from_run(run, profile=job.profile_name)
    if not job.evaluate:
        return ScenarioCheck(scenario=spec.name, result=result)
    companion = None
    protocol = needs_companion(spec.expectations)
    if protocol is not None:
        static_spec = spec.replace(protocol=protocol, adaptive=None, rate_limit=None)
        static_run = run_once(
            spec_for_scenario(static_spec, dispatch=job.dispatch, horizon=job.horizon)
        )
        companion = ScenarioResult.from_run(static_run, profile=job.profile_name)
    return ScenarioCheck(
        scenario=spec.name,
        result=result,
        checks=evaluate_expectations(spec.expectations, result, companion),
        companion=companion,
    )


def run_spec_checks(
    specs: Sequence[Any],
    profile_name: str,
    jobs: int = 1,
    dispatch: str = "batched",
    horizon: Optional[float] = None,
    evaluate: bool = True,
) -> list:
    """Run *already-built* scenario specs with per-shard evaluation.

    The shard layer under :func:`run_scenario_checks`, exposed directly
    so callers that build specs themselves (the scenario fuzzer, ad-hoc
    compositions) shard through the same pool with the same determinism
    guarantee: checks are identical whatever the job count or dispatch
    mode, in spec order.
    """
    jobs_list = [
        _CheckJob(
            spec=spec,
            profile_name=profile_name,
            dispatch=dispatch,
            horizon=horizon,
            evaluate=evaluate,
        )
        for spec in specs
    ]
    if jobs is None or jobs <= 1 or len(jobs_list) <= 1:
        return [_check_one(job) for job in jobs_list]
    with _pool(min(jobs, len(jobs_list))) as pool:
        return pool.map(_check_one, jobs_list, chunksize=1)


def run_scenario_checks(
    names: Optional[Sequence[str]] = None,
    profile: Any = None,
    jobs: int = 1,
    dispatch: str = "batched",
    horizon: Optional[float] = None,
    evaluate: bool = True,
) -> list:
    """Run a scenario matrix *with expectation evaluation per shard*.

    Like :func:`run_scenario_matrix`, but each shard also runs the
    static companion any :class:`AdaptiveBeatsStatic`-style expectation
    needs and evaluates the spec's expectations in the worker, returning
    :class:`~repro.scenarios.expectations.ScenarioCheck`s in name order.
    Determinism carries over: the checks are identical whatever the job
    count or dispatch mode. ``evaluate=False`` captures results only —
    baseline updates use it to skip companion runs whose checks would be
    discarded.
    """
    from repro.experiments.profiles import get_profile
    from repro.scenarios.registry import get_scenario, scenario_names

    if names is None:
        names = scenario_names()
    resolved = profile if profile is not None else get_profile()
    return run_spec_checks(
        [get_scenario(name, resolved) for name in names],
        profile_name=resolved.name,
        jobs=jobs,
        dispatch=dispatch,
        horizon=horizon,
        evaluate=evaluate,
    )


def _collect_once(spec: RunSpec) -> MetricsCollector:
    cluster = build_cluster(spec)
    cluster.run(until=spec.duration)
    return cluster.metrics


def merged_metrics(specs: Iterable[RunSpec], jobs: int = 1) -> MetricsCollector:
    """Run every spec and reduce all collectors into one.

    Shards must have non-colliding event ids to be meaningfully merged:
    distinct sender nodes per spec, or observation shards of one logical
    run. Independent seeds that reuse the same senders produce colliding
    ``EventId``s — :meth:`MetricsCollector.merge` raises on those; use
    :func:`run_specs` / :mod:`repro.experiments.replication` to compare
    runs statistically instead.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one spec")
    if jobs is None or jobs <= 1 or len(specs) <= 1:
        collectors = [_collect_once(spec) for spec in specs]
    else:
        with _pool(min(jobs, len(specs))) as pool:
            collectors = pool.map(_collect_once, specs, chunksize=1)
    merged = collectors[0]
    for collector in collectors[1:]:
        merged.merge(collector)
    return merged


# ----------------------------------------------------------------------
# machine-readable output
# ----------------------------------------------------------------------
def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/tuples and sanitise NaN for JSON."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None  # NaN/inf have no strict-JSON representation
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)

