"""Driver parity: every library scenario fully lowers onto the live host.

The coverage audit (:func:`repro.scenarios.runner.live_coverage`)
is the same classification ``run_scenario_threaded`` derives its
report's ``injected``/``skipped`` tuples from, so asserting it over the
whole registry pins ``skipped_count == 0`` for every shipped scenario
without paying for twelve wall-clock runs; two representative scenarios
(one fault-scripted, one churn-over-partial-views) then run end to end
to prove the lowering actually executes.
"""

import pytest

from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import (
    live_coverage,
    run_scenario_threaded,
    smoke_profile,
)


@pytest.mark.parametrize("name", scenario_names())
def test_threaded_driver_skips_nothing_in_the_library(name):
    spec = get_scenario(name, smoke_profile())
    injected, skipped = live_coverage(spec)
    assert skipped == (), (
        f"scenario {name!r} has conditions the threaded driver cannot "
        f"lower: {skipped}"
    )


def test_every_condition_kind_appears_injected_somewhere():
    # the library collectively exercises every lowering path
    seen = set()
    for name in scenario_names():
        injected, _ = live_coverage(get_scenario(name, smoke_profile()))
        seen.update(injected)
    text = " | ".join(seen)
    for marker in (
        "loss window",
        "per-link loss window",
        "partition window",
        "one-way partition window",
        "bandwidth cap window",
        "crash window",
        "churn event",
        "topology/latency",
        "baseline loss",
        "partial membership",
    ):
        assert marker in text, f"no library scenario injects {marker!r}"


def test_fault_scripted_scenario_runs_threaded_with_zero_skips():
    spec = get_scenario("partition-heal", smoke_profile()).with_horizon(8.0)
    report = run_scenario_threaded(spec)
    assert report.skipped_count == 0
    assert any("partition window" in item for item in report.injected)
    assert report.delivered_total > 0


def test_threaded_result_reports_the_wire_counters():
    # the host's rule set counts what it ate, and the windowed result
    # reports it in the sim's fields
    spec = get_scenario("correlated-loss", smoke_profile()).with_horizon(8.0)
    result = run_scenario_threaded(spec).result
    assert result.net_lost > 0
    assert result.net_partitioned == result.net_capped == 0


def test_asymmetric_scenario_runs_threaded_with_zero_skips():
    spec = get_scenario("asymmetric-uplink", smoke_profile()).with_horizon(8.0)
    report = run_scenario_threaded(spec)
    assert report.skipped_count == 0
    assert any("one-way partition window" in item for item in report.injected)
    assert report.chaos_oneway_dropped > 0  # the directed cut really bit
    assert report.delivered_total > 0


def test_churn_scenario_runs_threaded_with_zero_skips():
    spec = get_scenario("rolling-churn", smoke_profile()).with_horizon(8.0)
    report = run_scenario_threaded(spec)
    assert report.skipped_count == 0
    assert any("churn event" in item for item in report.injected)
    assert any("partial membership" in item for item in report.injected)
    assert report.delivered_total > 0


def test_threaded_report_carries_the_hosts_send_failures():
    # rolling-churn sends to members that have left; the threaded report
    # reads the host's counter, the same one every process shard reports
    spec = get_scenario("rolling-churn", smoke_profile())
    report = run_scenario_threaded(spec)
    assert report.send_failures > 0
    assert report.decode_errors == 0
