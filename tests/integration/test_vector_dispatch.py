"""Integration: ``--dispatch vector`` is a drop-in third dispatch mode.

Every registered scenario must produce a RunResult identical to batched
dispatch (the CI parity gate for the vector mode), sharding a vector
matrix across workers must reproduce the serial run, the aggregate-only
metrics mode must not change any reported quantity, and the columnar
mega lane must refuse the dynamic-membership operations it cannot
honour rather than silently mis-simulate them.
"""

import dataclasses

import pytest

from repro.experiments.harness import (
    build_cluster,
    run_once,
    spec_for_scenario,
    vector_fallback_reason,
)
from repro.experiments.profiles import QUICK
from repro.experiments.sweep import run_scenario_matrix
from repro.gossip.config import SystemConfig
from repro.membership.churn import ChurnScript
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import smoke_profile
from repro.scenarios.spec import FixedLinks
from repro.sim.faults import CrashWindow, FaultScript
from repro.sim.network import ConstantLatency
from repro.workload.cluster import SimCluster

_MATRIX_PROFILE = dataclasses.replace(
    smoke_profile(QUICK),
    name="vector-matrix",
    n_nodes=12,
    duration=24.0,
    warmup=8.0,
    drain=4.0,
    offered_load=18.0,
)


def _assert_results_identical(a, b):
    """Field-wise RunResult equality, NaN-tolerant, spec excluded."""
    for field in dataclasses.fields(a):
        if field.name == "spec":
            continue
        va = getattr(a, field.name)
        vb = getattr(b, field.name)
        assert va == vb or (va != va and vb != vb), field.name


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_identical_vector_vs_batched(name):
    """Every registered scenario — including the round-synchronous
    mega-flood, which actually engages the columnar lane — runs to the
    same RunResult under vector and batched dispatch."""
    spec = get_scenario(name, _MATRIX_PROFILE)
    batched = run_once(spec_for_scenario(spec, dispatch="batched"))
    vector = run_once(spec_for_scenario(spec, dispatch="vector"))
    _assert_results_identical(batched, vector)


@pytest.mark.parametrize(
    "name",
    [
        "mega-flood",
        "mega-correlated-loss",
        "mega-partition-heal",
        "mega-catastrophic-crash",
        "mega-flaky-edge",
        "giga-flood",
    ],
)
def test_mega_family_engages_the_columnar_lane(name):
    """The mega family and giga-flood route onto the mega lane even at
    test scale (it is the regime the lane accelerates); the parity test
    above would be vacuous for them otherwise."""
    spec = get_scenario(name, _MATRIX_PROFILE)
    cluster = build_cluster(spec_for_scenario(spec, dispatch="vector"))
    assert cluster.vector is not None


# ----------------------------------------------------------------------
# chaos on the columnar lane: faulted library scenarios, vectorized
# ----------------------------------------------------------------------
def _vectorized(spec):
    """The vector-eligible variant of a library scenario.

    Keeps the scenario's fault/churn schedule and workload, but pins
    the protocol profile to the regime the columnar lane accelerates:
    baseline lpbcast over full membership, round-synchronous schedule,
    constant latency. Restart/join instants are snapped to the round
    grid (the lane only re-admits nodes on tick boundaries); window
    open/close edges need no snapping.
    """
    period = spec.system.gossip_period

    def snap(t):
        return round(t / period) * period

    faults = FaultScript(
        [
            dataclasses.replace(f, restart_at=snap(f.restart_at))
            if isinstance(f, CrashWindow) and f.restart_at is not None
            else f
            for f in spec.faults.faults
        ]
    )
    churn = ChurnScript(
        [
            dataclasses.replace(e, time=snap(e.time))
            if e.action == "join"
            else e
            for e in spec.churn.events
        ]
    )
    return dataclasses.replace(
        spec,
        protocol="lpbcast",
        adaptive=None,
        rate_limit=None,
        membership="full",
        view_size=None,
        system=dataclasses.replace(
            spec.system, round_phase=0.0, round_jitter=0.0
        ),
        topology=FixedLinks(0.01),
        faults=faults,
        churn=churn,
    )


_CHAOS_SCENARIOS = [
    "correlated-loss",
    "partition-heal",
    "catastrophic-crash",
    "flaky-edge",
    "asymmetric-uplink",
    "congested-switch",
    "rolling-churn",
]


@pytest.mark.parametrize("name", _CHAOS_SCENARIOS)
def test_faulted_scenario_variants_engage_and_match(name):
    """The chaos vocabulary lowers onto the columnar lane: for each
    faulted library scenario, the vectorized variant actually engages
    the mega lane (not a silent fallback) and reproduces the batched
    per-node run bit for bit — loss draws, window edges, crash/restart
    column resets and all."""
    spec = _vectorized(get_scenario(name, _MATRIX_PROFILE))
    assert build_cluster(spec_for_scenario(spec, dispatch="vector")).vector is not None
    batched = run_once(spec_for_scenario(spec, dispatch="batched"))
    vector = run_once(spec_for_scenario(spec, dispatch="vector"))
    _assert_results_identical(batched, vector)


def test_vector_matrix_identical_across_job_counts():
    """Sharding a vector-dispatch matrix across workers reproduces the
    serial run bit for bit."""
    names = ["mega-flood", "flash-crowd", "overload-baseline"]
    serial = run_scenario_matrix(
        names, profile=_MATRIX_PROFILE, jobs=1, dispatch="vector"
    )
    sharded = run_scenario_matrix(
        names, profile=_MATRIX_PROFILE, jobs=3, dispatch="vector"
    )
    assert [r.spec.scenario for r in serial] == names
    for a, b in zip(serial, sharded):
        assert a.spec == b.spec
        _assert_results_identical(a, b)


def test_aggregate_metrics_do_not_change_results():
    """Aggregate-only collection drops receiver sets and gauges, not
    numbers: the distilled RunResult is identical (gauge-derived fields
    are NaN for lpbcast either way)."""
    spec = get_scenario("mega-flood", _MATRIX_PROFILE)
    full = run_once(spec_for_scenario(spec, dispatch="vector"))
    aggregate = run_once(
        spec_for_scenario(spec, dispatch="vector", aggregate_metrics=True)
    )
    _assert_results_identical(full, aggregate)


# ----------------------------------------------------------------------
# the mega lane's schedule guard
# ----------------------------------------------------------------------
def _mega_cluster() -> SimCluster:
    cluster = SimCluster(
        n_nodes=8,
        system=SystemConfig(
            buffer_capacity=10,
            dedup_capacity=500,
            round_phase=0.0,
            round_jitter=0.0,
        ),
        protocol="lpbcast",
        seed=1,
        latency=ConstantLatency(0.01),
        dispatch="vector",
    )
    assert cluster.vector is not None
    return cluster


def test_mega_lane_supports_faults_and_nonsender_churn():
    """The v2 lane accepts what it can honour exactly: fault windows,
    crashes/leaves of non-sender nodes, and round-aligned rejoins."""
    cluster = _mega_cluster()
    cluster.apply_faults(FaultScript().loss(1.0, 2.0, 0.5))
    cluster.apply_faults(churn=ChurnScript().crash(5.0, 3))
    # round-aligned rejoin under the old identity (scheduled churn fires
    # before the same-instant tick, so t=6.0 re-enters round 6)
    cluster.apply_faults(churn=ChurnScript().crash(2.0, 4).join(6.0, 4))
    cluster.crash_node(6)
    cluster.leave_node(5)
    cluster.run(until=10.0)
    assert 4 in cluster.nodes and 3 not in cluster.nodes


def test_mega_lane_refuses_unsupported_schedules():
    """What stays vetoed: sender departures (their sender process keeps
    broadcasting), brand-new identities, and off-grid rejoins. Every
    refusal names the batched escape hatch."""
    cluster = _mega_cluster()
    cluster.add_sender(0, rate=1.0)
    with pytest.raises(RuntimeError, match='dispatch="batched"'):
        cluster.crash_node(0)
    with pytest.raises(RuntimeError, match='dispatch="batched"'):
        cluster.leave_node(0)
    with pytest.raises(RuntimeError, match='dispatch="batched"'):
        cluster.join_node(99)
    with pytest.raises(RuntimeError, match='dispatch="batched"'):
        cluster.apply_faults(churn=ChurnScript().crash(5.0, 0))
    with pytest.raises(RuntimeError, match='dispatch="batched"'):
        cluster.apply_faults(churn=ChurnScript().crash(2.0, 3).join(4.5, 3))
    with pytest.raises(RuntimeError, match='dispatch="batched"'):
        cluster.apply_faults(FaultScript().crash(2.0, nodes=(3,), restart_at=4.5))
    cluster.crash_node(3)
    cluster.run(until=4.5)
    with pytest.raises(RuntimeError, match='dispatch="batched"'):
        cluster.join_node(3)  # t=4.5 is off the round grid


def test_harness_falls_back_to_per_node_for_an_unsupported_schedule():
    """The harness's screen: a vector spec whose schedule the columnar
    lane refuses (an off-tick restart) builds a batched cluster of real
    per-node protocols, runs to the batched result, and keeps every
    dynamic operation the lane refuses."""
    spec = dataclasses.replace(
        get_scenario("mega-flood", _MATRIX_PROFILE),
        faults=FaultScript().crash(2.0, nodes=(3,), restart_at=4.5),
    )
    vector_spec = spec_for_scenario(spec, dispatch="vector")
    assert vector_fallback_reason(vector_spec) is not None
    cluster = build_cluster(vector_spec)
    assert cluster.vector is None and cluster.dispatch == "batched"
    sender = next(iter(cluster.senders))
    cluster.crash_node(sender)
    cluster.join_node(99)
    cluster.run(until=5.0)
    assert 3 in cluster.nodes and 99 in cluster.nodes
    _assert_results_identical(
        run_once(spec_for_scenario(spec, dispatch="batched")), run_once(vector_spec)
    )
