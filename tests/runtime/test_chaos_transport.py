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
from repro.sim.network import BernoulliLoss, ConstantLatency, UniformLatency
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
    rules = ChaosRules(latency=ConstantLatency(0.5), latency_scale=0.1)
    verdict = rules.plan(0, 1, random.Random(0))
    rules.close()
    assert verdict == pytest.approx(0.05)


def test_partition_blocks_cross_group_only():
    rules = ChaosRules()
    rules.partition([[0, 1], [2, 3]])
    rng = random.Random(0)
    assert rules.plan(0, 1, rng) == 0.0  # same group
    assert rules.plan(0, 2, rng) is None  # across the split
    assert rules.plan(4, 5, rng) == 0.0  # unmentioned nodes share group -1
    assert rules.plan(0, 4, rng) is None  # named vs unmentioned differ
    assert rules.stats.blocked == 2
    rules.heal()
    assert rules.plan(0, 2, rng) == 0.0
    rules.close()


def test_bandwidth_cap_windows():
    t = [100.0]
    rules = ChaosRules(clock=lambda: t[0])
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
    with pytest.raises(ValueError):
        ChaosRules(latency_scale=0.0)
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
    assert rules.stats.sent > 0


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
    assert rules.stats.sent == 0
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
    assert rules.stats.dropped == 2


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
    assert rules.stats.link_dropped == 1
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
