"""Property-based equivalence of the columnar vector executor.

Hypothesis draws small gossip configurations and checks that
``dispatch="vector"`` reproduces ``dispatch="batched"`` byte for byte,
on the vector mode's lanes:

* the round-synchronous regime routes onto the columnar mega lane
  (:class:`repro.sim.vector.VectorRoundExecutor`), which must replicate
  the per-node protocol exactly — same RNG draws, same buffer
  evictions, same metrics — with and without numpy;
* the chaos lane: fuzzed (loss rate, partition window, crash window)
  triples stay on the mega lane and must replay the per-node path's
  network RNG stream draw for draw, through window edges, crash-time
  column resets and round-aligned restarts;
* genuinely ineligible configurations (adaptive protocol, jittered
  rounds, non-constant latency) fall back to real per-node protocols
  and must be identical by construction.

Drop *ages* are compared as multisets: within one delivery instant the
per-node path evicts per message while the mega lane evicts once at
the end of the instant — provably the same drop set, but possibly a
different recording order.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import AdaptiveConfig
from repro.experiments.harness import RunSpec, run_once
from repro.gossip.config import SystemConfig
from repro.membership.churn import ChurnScript
from repro.sim.faults import FaultScript
from repro.sim.network import BernoulliLoss, ConstantLatency, UniformLatency
from repro.workload.cluster import SimCluster

# ample dedup relative to the event rate: an undersized dedup table can
# re-admit a still-buffered event (a known artefact of the real protocol,
# not the executor), which is outside the equivalence under test
DEDUP = 2000


def _examples(per_pr: int) -> int:
    """A property's example count under the loaded hypothesis profile.

    ``per_pr`` under the default profile; profiles with a larger
    ``max_examples`` (the nightly ``deep-parity`` one, registered in
    ``tests/conftest.py``) scale every property by the same factor.
    """
    scale = settings().max_examples / settings.get_profile("default").max_examples
    return max(1, round(per_pr * scale))


def _fingerprint(cluster: SimCluster) -> tuple:
    m = cluster.metrics
    records = tuple(
        sorted(
            (
                repr(eid),
                rec.broadcast_time,
                rec.receiver_count,
                rec.duplicate_deliveries,
                rec.first_delivery,
                rec.last_delivery,
            )
            for eid, rec in m.messages.items()
        )
    )
    stats = tuple(repr(cluster.nodes[i].protocol.stats) for i in sorted(cluster.nodes))
    net = cluster.network.stats
    return (
        m.admitted.total,
        m.deliveries.total,
        m.drops_overflow.total,
        m.drops_age_out.total,
        tuple(sorted(m.drop_ages)),
        records,
        stats,
        (net.sent, net.delivered, net.lost, net.partitioned,
         net.oneway_blocked, net.link_lost, net.capped, net.no_route,
         net.payload_items, net.delayed),
    )


# ----------------------------------------------------------------------
# lane 1: the columnar mega lane vs the real per-node protocols
# ----------------------------------------------------------------------
mega_configs = st.fixed_dictionaries(
    {
        "n_nodes": st.integers(2, 32),
        "fanout": st.integers(1, 6),
        "buffer_capacity": st.integers(3, 12),
        "max_age": st.integers(2, 6),
        "delay": st.floats(0.005, 0.9),
        "rate": st.floats(2.0, 10.0),
        "n_senders": st.integers(1, 3),
        "seed": st.integers(0, 10_000),
    }
)


def _mega_cluster(cfg: dict, dispatch: str, vector_numpy=None) -> SimCluster:
    system = SystemConfig(
        fanout=cfg["fanout"],
        gossip_period=1.0,
        buffer_capacity=cfg["buffer_capacity"],
        dedup_capacity=cfg.get("dedup_capacity", DEDUP),
        max_age=cfg["max_age"],
        round_jitter=0.0,
        round_phase=0.0,
    )
    cluster = SimCluster(
        n_nodes=cfg["n_nodes"],
        system=system,
        protocol="lpbcast",
        seed=cfg["seed"],
        latency=ConstantLatency(cfg["delay"]),
        dispatch=dispatch,
        vector_numpy=vector_numpy,
    )
    senders = [i * (cfg["n_nodes"] // cfg["n_senders"] or 1) % cfg["n_nodes"]
               for i in range(cfg["n_senders"])]
    cluster.add_senders(sorted(set(senders)), rate_each=cfg["rate"])
    cluster.run(until=12.0)
    return cluster


@settings(max_examples=_examples(12), deadline=None)
@given(cfg=mega_configs)
def test_mega_lane_matches_batched(cfg):
    batched = _mega_cluster(cfg, "batched")
    vector = _mega_cluster(cfg, "vector")
    assert vector.vector is not None, "config should route onto the mega lane"
    assert _fingerprint(batched) == _fingerprint(vector)


@settings(max_examples=_examples(8), deadline=None)
@given(cfg=mega_configs)
def test_mega_lane_numpy_matches_stdlib(cfg):
    auto = _mega_cluster(cfg, "vector", vector_numpy=None)
    stdlib = _mega_cluster(cfg, "vector", vector_numpy=False)
    assert auto.vector is not None and stdlib.vector is not None
    assert _fingerprint(auto) == _fingerprint(stdlib)


# the dedup-trim regime: a store of 12 against 24 or 72 admitted events,
# so every node trims its dedup store again and again. At 2 msg/s about
# 8 events are live, so a trimmed entry is always one that already aged
# out; at 6 msg/s about 24 are, so trims drop live entries, and a store
# trimmed one entry too far or too short diverges from the per-node lane
@pytest.mark.parametrize("rate", [2.0, 6.0])
@pytest.mark.parametrize("seed", range(30))
def test_mega_lane_matches_batched_under_dedup_trims(seed, rate):
    cfg = {
        "n_nodes": 16,
        "fanout": 3,
        "buffer_capacity": 4,
        "max_age": 3,
        "dedup_capacity": 12,
        "delay": 0.01,
        "rate": rate,
        "n_senders": 1,
        "seed": seed,
    }
    batched = _mega_cluster(cfg, "batched")
    vector = _mega_cluster(cfg, "vector")
    assert vector.vector is not None
    assert vector.metrics.admitted.total > cfg["dedup_capacity"]
    assert _fingerprint(batched) == _fingerprint(vector)
    stdlib = _mega_cluster(cfg, "vector", vector_numpy=False)
    assert _fingerprint(stdlib) == _fingerprint(vector)


# a lossless, overflow-free run with ample dedup
BULK_CFG = {
    "n_nodes": 64,
    "fanout": 4,
    "buffer_capacity": 30,
    "max_age": 6,
    "delay": 0.01,
    "rate": 1.0,
    "n_senders": 2,
    "seed": 3,
}


def _count_folds(monkeypatch) -> dict:
    """Count the executor's fold calls, by method name."""
    from repro.sim.vector import VectorRoundExecutor

    calls = {"_fold_instant": 0, "_fold_batched": 0, "_fold_sequential": 0}
    for name in calls:
        method = getattr(VectorRoundExecutor, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(VectorRoundExecutor, name, counted)
    return calls


def test_lossless_run_folds_every_instant_in_bulk(monkeypatch):
    """Parity cannot see a silent fallback to the per-message fold: on a
    lossless, overflow-free run with ample dedup every delivery instant
    must take the batched fold."""
    pytest.importorskip("numpy")
    calls = _count_folds(monkeypatch)
    cluster = _mega_cluster(BULK_CFG, "vector", vector_numpy=True)
    stats = [cluster.nodes[i].protocol.stats for i in cluster.nodes]
    assert sum(st.drops_overflow for st in stats) == 0
    assert cluster.metrics.deliveries.total > BULK_CFG["n_nodes"]
    assert calls["_fold_instant"] >= 10
    assert calls["_fold_batched"] == calls["_fold_instant"]
    assert calls["_fold_sequential"] == 0


def test_batched_fold_yields_when_its_sort_key_could_overflow(monkeypatch):
    """Arrival sequences only order each node's buffer, so starting every
    node's counter at 2**60 changes no result. It does put the batched
    fold's int64 order key (receiver, emitter position, arrival) out of
    range, so every instant must take the per-message fold instead."""
    pytest.importorskip("numpy")
    from repro.sim.vector import VectorRoundExecutor

    reference = _fingerprint(_mega_cluster(BULK_CFG, "batched"))
    calls = _count_folds(monkeypatch)
    init = VectorRoundExecutor.__init__

    def shifted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._arrival += 2**60

    monkeypatch.setattr(VectorRoundExecutor, "__init__", shifted)
    cluster = _mega_cluster(BULK_CFG, "vector", vector_numpy=True)
    assert _fingerprint(cluster) == reference
    assert calls["_fold_instant"] >= 10
    assert calls["_fold_sequential"] == calls["_fold_instant"]
    assert calls["_fold_batched"] == 0


# ----------------------------------------------------------------------
# lane 2: the chaos lane — fuzzed loss/partition/crash triples stay on
# the mega lane and replay the per-node network RNG draw for draw
# ----------------------------------------------------------------------
chaos_configs = st.fixed_dictionaries(
    {
        "n_nodes": st.integers(6, 32),
        "fanout": st.integers(2, 5),
        "buffer_capacity": st.integers(4, 12),
        "max_age": st.integers(3, 6),
        "rate": st.floats(2.0, 8.0),
        "seed": st.integers(0, 10_000),
        # baseline Bernoulli loss on every delivery
        "loss": st.one_of(st.none(), st.floats(0.05, 0.7)),
        # (start, duration, p): a harsher loss window mid-run
        "loss_window": st.one_of(
            st.none(),
            st.tuples(
                st.floats(1.0, 5.0), st.floats(1.0, 4.0), st.floats(0.1, 0.9)
            ),
        ),
        # (start, duration): split the group in two, then heal
        "partition": st.one_of(
            st.none(), st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 4.0))
        ),
        # (crash time, victims, round-aligned restart tick or None)
        "crash": st.one_of(
            st.none(),
            st.tuples(
                st.floats(1.0, 6.0),
                st.integers(1, 3),
                st.one_of(st.none(), st.integers(7, 11)),
            ),
        ),
    }
)


def _chaos_cluster(cfg: dict, dispatch: str, vector_numpy=None) -> SimCluster:
    system = SystemConfig(
        fanout=cfg["fanout"],
        gossip_period=1.0,
        buffer_capacity=cfg["buffer_capacity"],
        dedup_capacity=DEDUP,
        max_age=cfg["max_age"],
        round_jitter=0.0,
        round_phase=0.0,
    )
    n = cfg["n_nodes"]
    loss = BernoulliLoss(cfg["loss"]) if cfg["loss"] is not None else None
    cluster = SimCluster(
        n_nodes=n,
        system=system,
        protocol="lpbcast",
        seed=cfg["seed"],
        latency=ConstantLatency(0.01),
        loss=loss,
        dispatch=dispatch,
        vector_numpy=vector_numpy,
    )
    cluster.add_senders([0, n // 2], rate_each=cfg["rate"])
    script = FaultScript()
    if cfg["loss_window"] is not None:
        start, duration, p = cfg["loss_window"]
        script.loss(start, duration, p)
    if cfg["partition"] is not None:
        start, duration = cfg["partition"]
        script.partition(
            start, duration, [list(range(0, n // 2)), list(range(n // 2, n))]
        )
    if cfg["crash"] is not None:
        time, k, restart_at = cfg["crash"]
        senders = {0, n // 2}
        victims = [i for i in range(n - 1, -1, -1) if i not in senders][:k]
        script.crash(time, tuple(victims), restart_at)
    if len(script):
        cluster.apply_faults(script, baseline_loss=loss)
    cluster.run(until=12.0)
    return cluster


@settings(max_examples=_examples(12), deadline=None)
@given(cfg=chaos_configs)
# the crash takes the group from 22 peers (CPython's set branch, drawn in
# bulk from the word bank) to 21 (the pool branch): both must read the
# same banked stream, or the pool branch starts a block ahead
@example(
    cfg={
        "n_nodes": 23,
        "fanout": 2,
        "buffer_capacity": 4,
        "max_age": 3,
        "rate": 2.0,
        "seed": 0,
        "loss": None,
        "loss_window": None,
        "partition": None,
        "crash": (1.0, 1, None),
    }
)
def test_chaos_lane_matches_batched(cfg):
    batched = _chaos_cluster(cfg, "batched")
    vector = _chaos_cluster(cfg, "vector")
    assert vector.vector is not None, "faulted config should stay on the mega lane"
    assert _fingerprint(batched) == _fingerprint(vector)


@settings(max_examples=_examples(8), deadline=None)
@given(cfg=chaos_configs)
def test_chaos_lane_numpy_matches_stdlib(cfg):
    auto = _chaos_cluster(cfg, "vector", vector_numpy=None)
    stdlib = _chaos_cluster(cfg, "vector", vector_numpy=False)
    assert auto.vector is not None and stdlib.vector is not None
    assert _fingerprint(auto) == _fingerprint(stdlib)


def test_numpy_twin_matches_stdlib_through_lists_arrays_and_refills():
    """One run long and wide enough for every shape a tick's targets take
    on the numpy twin: one array from the word bank (most ticks), lists
    once the partition drops something, the reordered alive list after
    the crash and the restart — over 45 rounds, seven or eight bank
    refills per node. The banked streams must end where the stdlib twin's do."""
    pytest.importorskip("numpy")
    n = 240

    def run(vector_numpy):
        cluster = SimCluster(
            n_nodes=n,
            system=SystemConfig(
                fanout=4,
                gossip_period=1.0,
                buffer_capacity=12,
                dedup_capacity=DEDUP,
                max_age=6,
                round_jitter=0.0,
                round_phase=0.0,
            ),
            protocol="lpbcast",
            seed=16,
            latency=ConstantLatency(0.01),
            dispatch="vector",
            vector_numpy=vector_numpy,
        )
        cluster.add_senders([0, n // 2], rate_each=1.5)
        script = FaultScript()
        script.partition(8.0, 4.0, [list(range(0, n // 2)), list(range(n // 2, n))])
        script.crash(20.5, tuple(range(n - 30, n)), 31)
        cluster.apply_faults(script)
        cluster.run(until=45.0)
        return cluster

    auto, stdlib = run(True), run(False)
    assert auto.vector is not None and stdlib.vector is not None
    assert auto.network.stats.partitioned > 0
    assert _fingerprint(auto) == _fingerprint(stdlib)
    for i in range(n):
        assert (
            auto.vector._bank.export(i).getstate()
            == stdlib.sim.rngs.stream("protocol", i).getstate()
        ), i


# ----------------------------------------------------------------------
# lane 3: ineligible configs fall back to per-node protocols
# ----------------------------------------------------------------------
fallback_specs = st.fixed_dictionaries(
    {
        "n_nodes": st.integers(4, 64),
        "protocol": st.sampled_from(["lpbcast", "adaptive"]),
        "loss_p": st.one_of(st.none(), st.floats(0.01, 0.25)),
        "jittered": st.booleans(),
        "churn": st.booleans(),
        "uniform_latency": st.booleans(),
        "seed": st.integers(0, 10_000),
    }
)


def _fallback_spec(cfg: dict, dispatch: str) -> RunSpec:
    # at least one genuinely ineligible feature is always present (the
    # adaptive protocol, round jitter, or a non-constant latency model);
    # loss and non-sender churn are mega-eligible since vector lane v2,
    # so they ride along as extras rather than acting as the veto
    system = SystemConfig(
        buffer_capacity=8,
        dedup_capacity=DEDUP,
        max_age=5,
        round_jitter=0.05 if cfg["jittered"] else 0.0,
        round_phase=None if cfg["jittered"] else 0.0,
    )
    latency = (
        UniformLatency(0.005, 0.05)
        if cfg["uniform_latency"]
        else ConstantLatency(0.01)
    )
    if not (cfg["protocol"] != "lpbcast" or cfg["jittered"] or cfg["uniform_latency"]):
        cfg = dict(cfg, protocol="adaptive")
    churn = None
    if cfg["churn"]:
        churn = ChurnScript().crash(5.0, cfg["n_nodes"] - 1)
    return RunSpec(
        protocol=cfg["protocol"],
        system=system,
        n_nodes=cfg["n_nodes"],
        sender_ids=(0,),
        offered_load=6.0,
        duration=18.0,
        warmup=6.0,
        drain=4.0,
        seed=cfg["seed"],
        adaptive=AdaptiveConfig(age_critical=4.5),
        loss=BernoulliLoss(cfg["loss_p"]) if cfg["loss_p"] is not None else None,
        latency=latency,
        churn=churn,
        dispatch=dispatch,
    )


def _assert_results_identical(a, b):
    for field in dataclasses.fields(a):
        if field.name == "spec":
            continue
        va = getattr(a, field.name)
        vb = getattr(b, field.name)
        assert va == vb or (va != va and vb != vb), field.name


@settings(max_examples=_examples(10), deadline=None)
@given(cfg=fallback_specs)
def test_fallback_lane_matches_batched(cfg):
    batched = run_once(_fallback_spec(cfg, "batched"))
    vector = run_once(_fallback_spec(cfg, "vector"))
    _assert_results_identical(batched, vector)


def test_chaos_vector_specs_jobs_invariant():
    """Sharding faulted vector specs across workers reproduces the
    serial run bit for bit (the chaos lane keeps the sweep contract)."""
    from repro.experiments.sweep import run_specs

    def spec(seed: int) -> RunSpec:
        n = 16
        return RunSpec(
            protocol="lpbcast",
            system=SystemConfig(
                buffer_capacity=8,
                dedup_capacity=DEDUP,
                max_age=5,
                round_jitter=0.0,
                round_phase=0.0,
            ),
            n_nodes=n,
            sender_ids=(0, 8),
            offered_load=8.0,
            duration=18.0,
            warmup=6.0,
            drain=4.0,
            seed=seed,
            loss=BernoulliLoss(0.1),
            latency=ConstantLatency(0.01),
            faults=FaultScript()
            .loss(7.0, 3.0, 0.5)
            .partition(11.0, 2.0, [list(range(0, 8)), list(range(8, 16))])
            .crash(8.0, nodes=(14, 15), restart_at=12.0),
            dispatch="vector",
        )

    specs = [spec(seed) for seed in (1, 2, 3, 4)]
    serial = run_specs(specs, jobs=1)
    sharded = run_specs(specs, jobs=2)
    for a, b in zip(serial, sharded):
        assert a.spec == b.spec
        _assert_results_identical(a, b)
