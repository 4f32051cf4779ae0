"""Unit tests for the expectation layer: pass/fail/skip/tolerance edges."""

import math
import pickle

from repro.scenarios.expectations import (
    AdaptiveBeatsStatic,
    ConvergenceWithin,
    MetricValue,
    NoDroppedSenders,
    RedundancyAtMost,
    ReliabilityAtLeast,
    ScenarioResult,
    evaluate_expectations,
    needs_companion,
)


def result(**metrics) -> ScenarioResult:
    return ScenarioResult(
        scenario="fabricated",
        driver="sim",
        profile="test",
        n_nodes=16,
        metrics={name: MetricValue(value, "test") for name, value in metrics.items()},
    )


# ----------------------------------------------------------------------
# bound checks: pass, fail, and the exact-threshold edge
# ----------------------------------------------------------------------
def test_reliability_pass_fail_and_edge():
    exp = ReliabilityAtLeast(0.95)
    assert exp.check(result(atomicity=0.96)).passed
    assert not exp.check(result(atomicity=0.94)).passed
    # the bound is inclusive: exactly at the threshold passes
    assert exp.check(result(atomicity=0.95)).passed


def test_reliability_alternate_metric():
    exp = ReliabilityAtLeast(0.9, metric="avg_receiver_fraction")
    check = exp.check(result(avg_receiver_fraction=0.93, atomicity=0.1))
    assert check.passed
    assert check.metric == "avg_receiver_fraction"


def test_redundancy_and_convergence_are_upper_bounds():
    assert RedundancyAtMost(5.0).check(result(redundancy=5.0)).passed
    assert not RedundancyAtMost(5.0).check(result(redundancy=5.01)).passed
    assert ConvergenceWithin(3.0).check(result(convergence_rounds=2.9)).passed
    assert not ConvergenceWithin(3.0).check(result(convergence_rounds=3.1)).passed


def test_missing_metric_skips_instead_of_failing():
    check = ReliabilityAtLeast(0.95).check(result(redundancy=1.0))
    assert check.skipped
    assert check.passed  # a skip never turns a run red
    assert check.verdict == "SKIP"


def test_nan_metric_fails_not_skips():
    check = ReliabilityAtLeast(0.95).check(result(atomicity=math.nan))
    assert not check.passed
    assert not check.skipped
    assert "NaN" in check.detail


def test_no_dropped_senders():
    ok = NoDroppedSenders().check(result(senders_total=3.0, senders_reached=3.0))
    assert ok.passed
    bad = NoDroppedSenders().check(result(senders_total=3.0, senders_reached=2.0))
    assert not bad.passed
    missing = NoDroppedSenders().check(result(atomicity=1.0))
    assert missing.skipped


# ----------------------------------------------------------------------
# the cross-run expectation
# ----------------------------------------------------------------------
def test_adaptive_beats_static_margin_edges():
    exp = AdaptiveBeatsStatic(0.1)
    adaptive = result(atomicity=0.95)
    assert exp.check(adaptive, result(atomicity=0.80)).passed
    assert exp.check(adaptive, result(atomicity=0.85)).passed  # inclusive edge
    assert not exp.check(adaptive, result(atomicity=0.86)).passed


def test_adaptive_beats_static_skips_without_companion():
    check = AdaptiveBeatsStatic(0.1).check(result(atomicity=0.99), companion=None)
    assert check.skipped and check.passed


def test_needs_companion():
    assert needs_companion((ReliabilityAtLeast(0.9),)) is None
    assert needs_companion((ReliabilityAtLeast(0.9), AdaptiveBeatsStatic())) == "lpbcast"


def test_evaluate_expectations_preserves_order():
    exps = (ReliabilityAtLeast(0.5), RedundancyAtMost(2.0), NoDroppedSenders())
    checks = evaluate_expectations(
        exps, result(atomicity=0.9, redundancy=3.0, senders_total=2.0, senders_reached=2.0)
    )
    assert [c.passed for c in checks] == [True, False, True]
    assert [c.expectation for c in checks] == [repr(e) for e in exps]


# ----------------------------------------------------------------------
# result construction from the drivers
# ----------------------------------------------------------------------
def _slow_receivers_run():
    from repro.experiments.harness import run_once, spec_for_scenario
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import smoke_profile

    prof = smoke_profile()
    spec = spec_for_scenario(get_scenario("slow-receivers", prof), horizon=12.0)
    return prof, run_once(spec)


def test_from_sim_carries_provenance():
    prof, run = _slow_receivers_run()
    res = ScenarioResult.from_run(run, profile=prof.name)
    assert res.scenario == "slow-receivers"
    assert res.driver == "sim"
    assert res.source("atomicity") == "sim:delivery"
    assert res.source("redundancy") == "sim:gossip"
    assert 0.0 <= res.get("atomicity") <= 1.0
    assert res.get("senders_total") == len(prof.sender_ids())
    # picklable: shards ship these across process boundaries
    assert pickle.loads(pickle.dumps(res)) == res


def test_from_run_names_the_live_driver():
    # a live run's RunResult flattens into the sim's vocabulary; only the
    # provenance says which driver measured it
    prof, run = _slow_receivers_run()
    sim = ScenarioResult.from_run(run, profile=prof.name)
    res = ScenarioResult.from_run(run, profile=prof.name, driver="threaded")
    assert res.driver == "threaded"
    assert set(res.metrics) == set(sim.metrics)
    assert res.source("input_rate") == "threaded:rates"
    assert res.source("redundancy") == "threaded:gossip"
    assert res.get("redundancy") == sim.get("redundancy")
    # wall-clock quantities must never become baseline metrics
    assert res.get("wall_seconds") is None
    # every expectation is evaluated on a live result; none skips
    checks = evaluate_expectations(
        (ReliabilityAtLeast(0.5), NoDroppedSenders(), RedundancyAtMost(1e6)), res
    )
    assert [c.verdict for c in checks] == ["PASS", "PASS", "PASS"]
