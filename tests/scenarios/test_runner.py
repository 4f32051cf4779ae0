"""Tests for scenario execution on both drivers."""

import math

import pytest

from repro.gossip.config import SystemConfig
from repro.scenarios.conditions import BufferSqueeze, CorrelatedLoss
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import (
    LiveScenarioReport,
    run_scenario,
    run_scenario_threaded,
    smoke_profile,
)
from repro.scenarios.spec import ScenarioSpec, SenderSpec
from repro.workload.cluster import SimCluster


def tiny_spec(**kw):
    params = dict(
        name="tiny",
        n_nodes=8,
        system=SystemConfig(buffer_capacity=30, dedup_capacity=300),
        senders=(SenderSpec(0, 5.0), SenderSpec(4, 5.0)),
        duration=30.0,
        warmup=10.0,
        drain=5.0,
        seed=5,
    )
    params.update(kw)
    return ScenarioSpec(**params)


def test_run_scenario_sim_by_name():
    result = run_scenario("flash-crowd", profile=smoke_profile(), horizon=15.0)
    assert result.spec.scenario == "flash-crowd"
    assert result.delivery.messages > 0


def test_run_scenario_rejects_unknown_driver():
    with pytest.raises(ValueError, match="unknown driver"):
        run_scenario(tiny_spec(), driver="quantum")


def test_sim_cluster_from_scenario_applies_schedules():
    spec = tiny_spec().stressed(
        CorrelatedLoss(time=5.0, duration=3.0, p=1.0),
        BufferSqueeze(time=0.0, capacity=7, nodes=(7,)),
    )
    cluster = SimCluster.from_scenario(spec)
    cluster.run(until=1.0)
    # the t=0 squeeze has been applied...
    assert cluster.protocol_of(7).buffer.capacity == 7
    # ...and the loss window engages on schedule
    cluster.run(until=6.0)
    assert type(cluster.network._loss).__name__ == "BernoulliLoss"
    cluster.run(until=10.0)
    assert type(cluster.network._loss).__name__ == "NoLoss"


def test_threaded_run_delivers_and_reports():
    spec = tiny_spec()
    report = run_scenario_threaded(spec, wall_seconds=1.2)
    assert isinstance(report, LiveScenarioReport)
    assert report.driver == "threaded" and report.port_attempts == 0
    assert report.scenario == "tiny"
    assert report.offers > 0
    assert report.admitted > 0
    assert report.delivered_total > 0
    assert report.skipped == ()


def test_threaded_run_summarises_the_window_with_adaptive_gauges():
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(12.0)
    result = run_scenario_threaded(spec).result
    assert result.spec.window == (4.0, 10.0)
    assert result.delivery.messages > 0
    assert 0 < result.input_rate <= result.offered_rate
    # the live host samples every node's gauges once per round
    for gauge in (result.allowed_rate_total, result.avg_age_mean, result.min_buff_mean):
        assert math.isfinite(gauge)


def test_threaded_run_injects_former_sim_only_conditions():
    # loss windows and partial membership used to be reported as skipped;
    # the chaos transport and live views now lower both
    spec = tiny_spec(membership="partial", view_size=4).stressed(
        CorrelatedLoss(time=5.0, duration=3.0, p=0.5)
    )
    report = run_scenario_threaded(spec, wall_seconds=0.4)
    assert report.skipped == () and report.skipped_count == 0
    assert any("loss window" in item for item in report.injected)
    assert any("partial membership" in item for item in report.injected)
    # the count is surfaced structurally, not by string-matching reasons
    assert report.injected_count == len(report.injected) == 2


def test_threaded_path_rejects_overlapping_windows_like_sim():
    # specs validate at construction, but FaultScript is mutable: the one
    # lowering re-validates on every driver
    from repro.sim.faults import OverlappingFaultsError

    spec = tiny_spec().stressed(CorrelatedLoss(time=5.0, duration=10.0, p=0.5))
    spec.faults.loss(8.0, 2.0, 0.9)  # sneak in an overlap post-validation
    with pytest.raises(OverlappingFaultsError):
        run_scenario_threaded(spec, wall_seconds=0.2)


def test_threaded_run_still_reports_unknown_conditions_as_skipped():
    from dataclasses import dataclass

    from repro.sim.faults import FaultScript

    @dataclass(frozen=True)
    class AlienWindow:  # a fault kind no driver lowering knows about
        time: float = 1.0
        duration: float = 1.0

    spec = tiny_spec().replace(faults=FaultScript([AlienWindow()]))
    report = run_scenario_threaded(spec, wall_seconds=0.3)
    assert report.skipped_count == 1
    assert "unrecognised fault" in report.skipped[0]


def test_threaded_full_coverage_reports_zero_skips():
    report = run_scenario_threaded(tiny_spec(), wall_seconds=0.3)
    assert report.skipped_count == 0


def test_threaded_run_applies_timed_capacity_changes():
    # squeeze early enough (in scaled time) that the run observes it
    spec = tiny_spec().stressed(BufferSqueeze(time=2.0, capacity=9, nodes=(7,)))
    scale = 0.1 / spec.system.gossip_period
    report = run_scenario_threaded(spec, wall_seconds=max(1.0, 2.0 * scale + 0.8))
    assert report.offers > 0


def test_run_scenario_threaded_by_name():
    report = run_scenario(
        "slow-receivers", driver="threaded", profile=smoke_profile(), horizon=6.0
    )
    assert report.scenario == "slow-receivers"
    assert report.delivered_total > 0
