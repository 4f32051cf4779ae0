"""Integration: the batched dispatcher reproduces the per-node-timer path
byte for byte — same seed, same spec, either dispatch mode, same run —
the batched columnar receive path reproduces the seed's per-event
reference loop just as exactly, and every registered scenario upholds
both guarantees (plus job-count independence of the sweep runner)."""

import dataclasses

import pytest

from repro.core.config import AdaptiveConfig
from repro.experiments.harness import RunSpec, build_cluster, run_once, spec_for_scenario
from repro.experiments.profiles import QUICK
from repro.experiments.sweep import run_scenario_matrix
from repro.gossip.config import SystemConfig
from repro.gossip.events import EventColumns
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.runner import smoke_profile
from repro.scenarios.spec import FixedLinks, ScenarioSpec, SenderSpec
from repro.sim.network import ConstantLatency
from repro.workload.cluster import SimCluster


def _bind_reference_receive(cluster):
    """Route every node through the seed's per-event receive loop."""
    for node in cluster.nodes.values():
        proto = node.protocol

        def reference_batch(messages, now, proto=proto):
            replies = []
            for message in messages:
                replies.extend(proto.on_receive_reference(message, now))
            return replies

        proto.on_receive = proto.on_receive_reference
        proto.on_receive_batch = reference_batch


def run(
    dispatch,
    protocol="adaptive",
    round_phase=None,
    round_jitter=0.05,
    seed=7,
    receive_path="batched",
):
    cluster = SimCluster(
        n_nodes=12,
        system=SystemConfig(
            buffer_capacity=30,
            dedup_capacity=500,
            round_phase=round_phase,
            round_jitter=round_jitter,
        ),
        protocol=protocol,
        adaptive=AdaptiveConfig(age_critical=4.5),
        seed=seed,
        dispatch=dispatch,
    )
    if receive_path == "reference":
        _bind_reference_receive(cluster)
    cluster.add_senders([0, 6], rate_each=8.0)
    cluster.run(until=30.0)
    return cluster


def _bucket_counts(series):
    return tuple(sorted(series._counts.items()))


def _gauge_buckets(series):
    return tuple(sorted(series._sums.items())), _bucket_counts(series)


def fingerprint(cluster):
    """Every recorded number a run's bookkeeping produces, bucket by
    bucket: the batched per-message callbacks must fold into exactly the
    floats the per-event reference path's one-call-per-event produces."""
    m = cluster.metrics
    deliveries = tuple(
        sorted(
            (eid, rec.broadcast_time, tuple(sorted(map(repr, rec.receivers))))
            for eid, rec in m.messages.items()
        )
    )
    gauges = tuple(
        tuple(m.gauge("allowed_rate", node).series(0, 30))
        for node in range(12)
        if m.gauge("allowed_rate", node) is not None
    )
    adaptive_gauges = tuple(
        (name, node, _gauge_buckets(m.gauge(name, node)))
        for name in ("avg_age", "min_buff")
        for node in range(12)
        if m.gauge(name, node) is not None
    )
    return (
        m.admitted.total,
        m.deliveries.total,
        m.drops_overflow.total,
        tuple(m.drop_ages),
        deliveries,
        gauges,
        _bucket_counts(m.deliveries),
        _bucket_counts(m.drops_overflow),
        _bucket_counts(m.drops_age_out),
        _gauge_buckets(m.drop_age_gauge),
        m.duplicate_deliveries,
        adaptive_gauges,
    )


def test_batched_matches_timers_jittered():
    assert fingerprint(run("timers")) == fingerprint(run("batched"))


def test_batched_matches_timers_baseline_protocol():
    a = run("timers", protocol="lpbcast")
    b = run("batched", protocol="lpbcast")
    assert fingerprint(a) == fingerprint(b)


def test_batched_matches_timers_round_synchronous():
    """Aligned phases + zero jitter: the one-pop-per-round fast path."""
    a = run("timers", round_phase=0.0, round_jitter=0.0)
    b = run("batched", round_phase=0.0, round_jitter=0.0)
    assert fingerprint(a) == fingerprint(b)


def test_round_synchronous_batches_heap_events():
    """The aligned bucket really does collapse round dispatch: the batched
    run gets through the same simulation in far fewer heap events."""
    a = run("timers", protocol="lpbcast", round_phase=0.0, round_jitter=0.0)
    b = run("batched", protocol="lpbcast", round_phase=0.0, round_jitter=0.0)
    assert fingerprint(a) == fingerprint(b)
    assert b.sim.events_dispatched < a.sim.events_dispatched


def test_round_messages_are_columnar():
    """The hot path really ships the columnar form on every round."""
    cluster = run("batched", protocol="lpbcast")
    node = cluster.nodes[0]
    batches = node.protocol.on_round_batch(cluster.sim.now + 1.0)
    assert batches, "round produced no emissions"
    for _targets, message in batches:
        assert isinstance(message.events, EventColumns)


def test_batched_receive_matches_reference_loop():
    """Columnar fold vs the seed's per-event loop: byte-identical runs."""
    a = run("batched", protocol="lpbcast")
    b = run("batched", protocol="lpbcast", receive_path="reference")
    assert a.metrics.drops_overflow.total > 0  # eviction really ran
    assert fingerprint(a) == fingerprint(b)


def test_batched_receive_matches_reference_loop_adaptive():
    """Same equivalence with the Figure 5 machinery hooked in."""
    a = run("batched")
    b = run("batched", receive_path="reference")
    assert a.metrics.drops_overflow.total > 0  # eviction really ran
    assert fingerprint(a) == fingerprint(b)


def test_reference_receive_identical_across_dispatch():
    """Reference receive under timers vs batched dispatch still matches."""
    a = run("timers", protocol="lpbcast", receive_path="reference")
    b = run("batched", protocol="lpbcast", receive_path="reference")
    assert fingerprint(a) == fingerprint(b)


def _spec(dispatch):
    return RunSpec(
        protocol="adaptive",
        system=SystemConfig(buffer_capacity=30, dedup_capacity=500),
        n_nodes=10,
        sender_ids=(0, 5),
        offered_load=16.0,
        duration=30.0,
        warmup=10.0,
        drain=5.0,
        seed=3,
        adaptive=AdaptiveConfig(age_critical=4.5),
        dispatch=dispatch,
    )


def _assert_results_identical(a, b):
    """Field-wise RunResult equality, NaN-tolerant, spec excluded
    (the spec records the dispatch mode / job provenance)."""
    for field in dataclasses.fields(a):
        if field.name == "spec":
            continue
        va = getattr(a, field.name)
        vb = getattr(b, field.name)
        assert va == vb or (va != va and vb != vb), field.name


def test_run_result_identical_across_dispatch():
    """Same RunSpec modulo dispatch mode => identical RunResult payload."""
    timers = run_once(_spec("timers"))
    batched = run_once(_spec("batched"))
    _assert_results_identical(timers, batched)


def test_scenario_built_cluster_runs_like_the_direct_build():
    """The declarative scenario layer costs construction time only: a
    round-synchronous lpbcast regime lowered from a ScenarioSpec runs
    byte-identically to the same regime built directly on SimCluster."""
    n, seconds = 100, 20.0
    system = SystemConfig(
        fanout=7,
        gossip_period=1.0,
        buffer_capacity=30,
        dedup_capacity=4000,
        max_age=8,
        round_jitter=0.0,
        round_phase=0.0,
    )
    direct = SimCluster(
        n_nodes=n,
        system=system,
        protocol="lpbcast",
        seed=2003,
        latency=ConstantLatency(0.01),
    )
    direct.add_senders([0, n // 2], rate_each=0.5)
    spec = ScenarioSpec(
        name="direct-regime",
        summary="the directly built regime, as a scenario",
        n_nodes=n,
        protocol="lpbcast",
        system=system,
        topology=FixedLinks(0.01),
        senders=(SenderSpec(0, 0.5), SenderSpec(n // 2, 0.5)),
        duration=seconds,
        warmup=0.0,
        drain=0.0,
        seed=2003,
    )
    lowered = build_cluster(spec_for_scenario(spec))
    for cluster in (direct, lowered):
        cluster.run(until=seconds)
    assert direct.metrics.deliveries.total > 0
    assert fingerprint(direct) == fingerprint(lowered)
    assert direct.network.stats == lowered.network.stats
    assert direct.sim.events_dispatched == lowered.sim.events_dispatched


# ----------------------------------------------------------------------
# the scenario matrix upholds the same guarantees
# ----------------------------------------------------------------------
_MATRIX_PROFILE = dataclasses.replace(
    smoke_profile(QUICK),
    name="determinism-matrix",
    n_nodes=12,
    duration=24.0,
    warmup=8.0,
    drain=4.0,
    offered_load=18.0,
)


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_identical_across_dispatch(name):
    """Every registered scenario — faults, churn, crash/restart, caps,
    topologies, bursty workloads — runs byte-identically under both
    round-dispatch modes."""
    spec = get_scenario(name, _MATRIX_PROFILE)
    timers = run_once(spec_for_scenario(spec, dispatch="timers"))
    batched = run_once(spec_for_scenario(spec, dispatch="batched"))
    _assert_results_identical(timers, batched)


def test_scenario_matrix_identical_across_job_counts():
    """Sharding a scenario matrix across workers reproduces the serial
    run bit for bit, in name order."""
    names = ["catastrophic-crash", "correlated-loss", "rolling-churn"]
    serial = run_scenario_matrix(names, profile=_MATRIX_PROFILE, jobs=1)
    sharded = run_scenario_matrix(names, profile=_MATRIX_PROFILE, jobs=3)
    assert [r.spec.scenario for r in serial] == names
    for a, b in zip(serial, sharded):
        assert a.spec == b.spec
        _assert_results_identical(a, b)
