"""Tests for the chaos rule set every live send consults."""

import random
import time

import pytest

from repro.gossip.config import SystemConfig
from repro.runtime.cluster import ThreadedCluster
from repro.runtime.transport import (
    ChaosRules,
    InMemoryHub,
    Transport,
    UdpTransport,
)
from repro.scenarios.spec import ScenarioSpec, SenderSpec
from repro.sim.engine import Simulator
from repro.sim.network import (
    BernoulliLoss,
    BurstLoss,
    ConstantLatency,
    Network,
    UniformLatency,
)
from repro.sim.rng import derive_seed


def passed(rules, node, seed, n=200, dest="d"):
    """Which of ``n`` sends from ``node`` the rules let through, drawing
    from the stream a live node of run ``seed`` decides with."""
    rng = random.Random(derive_seed(seed, "chaos", node))
    return [i for i in range(n) if rules.plan(node, dest, rng) is not None]


def test_transports_satisfy_the_protocol():
    hub = InMemoryHub()
    raw = hub.create("a")
    assert isinstance(raw, Transport)
    udp = UdpTransport()
    try:
        assert isinstance(udp, Transport)
    finally:
        udp.close()


def test_same_seed_same_drop_decisions():
    """Seeded determinism: the same seed replays the same chaos."""

    def pattern(seed):
        rules = ChaosRules(loss=BernoulliLoss(0.4))
        return passed(rules, 3, seed)

    assert pattern(7) == pattern(7)
    # and a different seed gives a different drop pattern (p ~ 1 - 2^-200)
    assert pattern(7) != pattern(8)
    # the live node of node id 3 decides with exactly that stream
    cluster = ThreadedCluster(4, seed=7)
    try:
        expected = random.Random(derive_seed(7, "chaos", 3))
        assert cluster.nodes[3].chaos_rng.getstate() == expected.getstate()
    finally:
        cluster.stop()


def test_same_seed_same_delay_draws():
    def delays(seed):
        rules = ChaosRules(latency=UniformLatency(0.01, 0.05))
        rng = random.Random(seed)
        out = [rules.plan(0, 1, rng) for _ in range(50)]
        rules.close()
        return out

    assert delays(42) == delays(42)
    assert delays(42) != delays(43)


def test_latency_scale_compresses_delays():
    """The rules plan a delay in spec seconds; the host arms it in wall
    seconds: at scale 0.1, a 0.5 s link latency holds a datagram about
    0.05 wall s (unscaled, the spec latency would be at least 5 s)."""
    rules = ChaosRules(latency=ConstantLatency(0.5))
    assert rules.plan(0, 1, random.Random(0)) == 0.5  # spec seconds
    spec = ScenarioSpec(
        name="spec-delays",
        n_nodes=2,
        system=SystemConfig(round_phase=0.0, buffer_capacity=64, dedup_capacity=512),
        senders=(SenderSpec(0, 1.0, start=100.0),),  # never fires here
        duration=200.0,
        warmup=1.0,
        drain=1.0,
        seed=1,
    )
    cluster = ThreadedCluster.from_scenario(spec, gossip_period=0.1, chaos=rules)
    cluster.start()
    try:
        sent = time.monotonic()
        cluster.broadcast(0, "late")
        while cluster.protocol_of(1).stats.events_delivered < 1:
            assert time.monotonic() - sent < 2.0, "the delayed datagram never arrived"
            time.sleep(0.005)
        wall = time.monotonic() - sent
    finally:
        cluster.stop()
    (record,) = cluster.metrics.messages.values()
    # held 0.5 spec s on the link, after at most one jittered 1 s round...
    assert 0.5 <= record.last_delivery - record.broadcast_time < 2.0
    # ...which is 0.05 + at most 0.105 wall s, well short of 0.5 wall s
    assert wall < 0.4
    assert rules.stats.delayed > 0


def test_partition_blocks_cross_group_only():
    rules = ChaosRules()
    rules.partition([[0, 1], [2, 3]])
    rng = random.Random(0)
    assert rules.plan(0, 1, rng) == 0.0  # same group
    assert rules.plan(0, 2, rng) is None  # across the split
    assert rules.plan(4, 5, rng) == 0.0  # unmentioned nodes share group -1
    assert rules.plan(0, 4, rng) is None  # named vs unmentioned differ
    assert rules.stats.partitioned == 2
    rules.heal()
    assert rules.plan(0, 2, rng) == 0.0
    rules.close()


def test_bandwidth_cap_windows():
    t = [100.0]
    rules = ChaosRules()
    rules.bind_clock(lambda: t[0])
    rules.set_bandwidth_cap(3.0)
    rng = random.Random(0)
    verdicts = [rules.plan(0, 1, rng) for _ in range(5)]
    assert verdicts == [0.0, 0.0, 0.0, None, None]
    assert rules.stats.capped == 2
    t[0] = 101.0  # a fresh one-second window refills the budget
    assert rules.plan(0, 1, rng) == 0.0
    rules.set_bandwidth_cap(None)
    assert all(rules.plan(0, 1, rng) == 0.0 for _ in range(10))
    rules.close()


def test_cap_validation():
    rules = ChaosRules()
    with pytest.raises(ValueError):
        rules.set_bandwidth_cap(0.0)
    rules.close()


def test_delayed_datagrams_arrive_late_but_arrive():
    rules = ChaosRules(latency=ConstantLatency(0.05))
    cluster = ThreadedCluster(
        2,
        system=SystemConfig(gossip_period=0.03, buffer_capacity=64, dedup_capacity=512),
        chaos=rules,
        seed=1,
    )
    cluster.start()
    try:
        for i in range(3):
            cluster.broadcast(0, i)
        time.sleep(0.6)
    finally:
        cluster.stop()
    assert cluster.protocol_of(1).stats.events_delivered == 3
    for record in cluster.metrics.messages.values():
        assert record.receiver_count == 2
        assert record.last_delivery - record.broadcast_time >= 0.05
    assert rules.stats.delayed > 0
    assert rules.stats.delivered > 0


def test_delay_line_close_drops_pending():
    # the delay line is the loop's timer queue: a datagram delayed past
    # stop() dies with the loop on the UDP hop too, and the rules' own
    # close() (a no-op now) cannot resurrect it
    rules = ChaosRules(latency=ConstantLatency(5.0))
    cluster = ThreadedCluster(
        2,
        system=SystemConfig(gossip_period=0.03, buffer_capacity=64, dedup_capacity=512),
        chaos=rules,
        transport="udp",
        seed=1,
    )
    cluster.start()
    cluster.broadcast(0, "late")
    time.sleep(0.3)
    started = time.monotonic()
    cluster.stop()
    rules.close()
    assert time.monotonic() - started < 1.0
    assert rules.stats.delayed > 0
    assert rules.stats.delivered == 0
    assert cluster.protocol_of(1).stats.events_delivered == 0


def test_rule_updates_apply_mid_stream():
    rules = ChaosRules()
    rng = random.Random(0)
    verdicts = [rules.plan(0, "d", rng)]
    rules.set_loss(BernoulliLoss(1.0))  # now everything drops
    verdicts += [rules.plan(0, "d", rng), rules.plan(0, "d", rng)]
    rules.set_loss(None)
    verdicts.append(rules.plan(0, "d", rng))
    assert verdicts == [0.0, None, None, 0.0]
    assert rules.stats.lost == 2


def test_oneway_cut_blocks_one_direction_only():
    rules = ChaosRules()
    rules.partition_oneway([[0, 1], [2, 3]], blocked=[(0, 1)])
    rng = random.Random(0)
    assert rules.plan(0, 2, rng) is None  # group 0 -> group 1: cut
    assert rules.plan(2, 0, rng) == 0.0  # reverse direction flows
    assert rules.plan(0, 1, rng) == 0.0  # inside a group
    assert rules.stats.oneway_blocked == 1
    rules.heal_oneway()
    assert rules.plan(0, 2, rng) == 0.0
    rules.close()


def test_link_loss_matrix_is_per_pair():
    rules = ChaosRules()
    rules.set_link_loss({(0, 1): 1.0})
    rng = random.Random(0)
    assert rules.plan(0, 1, rng) is None
    assert rules.plan(1, 0, rng) == 0.0  # reverse pair not in the matrix
    assert rules.plan(0, 2, rng) == 0.0
    assert rules.stats.link_lost == 1
    rules.set_link_loss(None)
    assert rules.plan(0, 1, rng) == 0.0
    rules.close()


def test_link_loss_draws_rng_only_for_matrix_pairs():
    """Mirrors the sim discipline: pairs outside the matrix must not
    consume the chaos stream, or the matrix would shift every later
    draw and desynchronise unrelated links."""
    rules = ChaosRules(loss=None)
    rules.set_link_loss({(0, 1): 0.5})
    rng = random.Random(0)
    before = rng.getstate()
    rules.plan(0, 2, rng)
    assert rng.getstate() == before
    rules.plan(0, 1, rng)
    assert rng.getstate() != before
    rules.close()


def test_restart_reseeds_the_same_chaos_stream():
    """A crashed-and-restarted node decides with a fresh stream from the
    same derived seed ``(seed, "chaos", node)``, so the restarted node
    replays the identical drop pattern — restarts do not fork the chaos
    timeline."""
    cluster = ThreadedCluster(4, seed=99)
    try:
        first_life = cluster.nodes[2].chaos_rng.getstate()
        cluster.crash_node(2)
        restarted = cluster.join_node(2)
        assert restarted is cluster.nodes[2] and restarted.is_alive()
        assert restarted.chaos_rng.getstate() == first_life
    finally:
        cluster.stop()


def test_network_send_and_live_plan_decide_alike():
    """One rule set, two callers: the simulated network's send and the
    live host's plan see the same verdicts, delays, RNG draws and
    counters on one send sequence that opens and closes every rule kind
    in turn (and all of them at once)."""
    nodes = range(6)
    groups = [[0, 1, 2], [3, 4, 5]]
    steps = [
        lambda r: None,
        lambda r: r.set_loss(BernoulliLoss(0.4)),
        lambda r: r.set_loss(BurstLoss(p_enter=0.3, p_exit=0.3, p_bad=0.9)),
        lambda r: r.set_loss(None),
        lambda r: r.partition(groups),
        lambda r: r.heal(),
        lambda r: r.partition_oneway(groups, blocked=[(0, 1)]),
        lambda r: r.heal_oneway(),
        lambda r: r.set_link_loss({(0, 1): 0.5, (2, 3): 1.0, (4, 0): 0.2}),
        lambda r: r.set_link_loss(None),
        lambda r: r.set_bandwidth_cap(7.0),
        lambda r: r.set_bandwidth_cap(None),
        lambda r: (
            r.set_loss(BernoulliLoss(0.2)),
            r.partition([[0, 1, 2, 3], [4, 5]]),
            r.partition_oneway(groups, blocked=[(1, 0)]),
            r.set_link_loss({(0, 2): 0.5}),
            r.set_bandwidth_cap(9.0),
        ),
    ]
    latency = UniformLatency(0.01, 0.05)
    sim = Simulator(seed=11)
    net = Network(sim, latency=latency)
    arrivals = {}
    for node in nodes:
        net.attach(node, lambda msg, src, now: arrivals.setdefault(msg, now))
    live = ChaosRules(latency=latency)
    live.bind_clock(lambda: sim.now)  # both caps count the same window
    rng = random.Random()
    rng.setstate(net._rng.getstate())
    sim_verdicts, live_delays = [], []
    for step in steps:
        step(net.rules)
        step(live)
        for src in nodes:
            for dst in nodes:
                if src != dst:
                    sim_verdicts.append(net.send(src, dst, len(sim_verdicts), items=0))
                    live_delays.append(live.plan(src, dst, rng))
    assert live.stats == net.stats
    assert rng.getstate() == net._rng.getstate()
    sim.run()
    assert sim_verdicts == [delay is not None for delay in live_delays]
    assert [arrivals.get(i) for i in range(len(live_delays))] == live_delays
    # every rule kind bit somewhere in the sequence
    stats = live.stats
    assert min(stats.lost, stats.partitioned, stats.oneway_blocked) > 0
    assert min(stats.link_lost, stats.capped, stats.delayed) > 0
