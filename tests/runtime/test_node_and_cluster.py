"""Tests for the live host and its nodes.

These use short gossip periods (tens of milliseconds) so each test
completes in about a second of wall time. Assertions are kept robust to
scheduling noise — they check reachability and counters, not timing.
"""

import socket
import time

import pytest

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.gossip.lpbcast import LpbcastProtocol
from repro.runtime.cluster import ThreadedCluster


def fast_system(**kw):
    params = {"gossip_period": 0.03, "buffer_capacity": 64, "dedup_capacity": 512}
    params.update(kw)
    return SystemConfig(**params)


def test_cluster_requires_two_nodes():
    with pytest.raises(ValueError):
        ThreadedCluster(1)


def test_unknown_transport():
    with pytest.raises(ValueError):
        ThreadedCluster(2, transport="carrier-pigeon")


def test_broadcast_disseminates_in_memory():
    cluster = ThreadedCluster(6, system=fast_system(), seed=1)
    cluster.start()
    try:
        for i in range(5):
            cluster.broadcast(0, f"m{i}")
        time.sleep(1.0)
    finally:
        cluster.stop()
    # every node should have seen all five events through gossip
    for node_id in range(1, 6):
        proto = cluster.protocol_of(node_id)
        assert proto.stats.events_delivered >= 5


def test_run_for_convenience():
    cluster = ThreadedCluster(4, system=fast_system(), seed=2)
    cluster.broadcast(1, "x")
    cluster.run_for(0.8)
    delivered = sum(
        cluster.protocol_of(n).stats.events_delivered for n in range(4)
    )
    assert delivered >= 4


def test_udp_cluster_smoke():
    cluster = ThreadedCluster(4, system=fast_system(), transport="udp", seed=3)
    cluster.start()
    try:
        cluster.broadcast(0, "over-udp")
        deadline = time.time() + 3.0
        while time.time() < deadline:
            if all(
                cluster.protocol_of(n).stats.events_delivered >= 1 for n in range(4)
            ):
                break
            time.sleep(0.05)
    finally:
        cluster.stop()
    for n in range(1, 4):
        assert cluster.protocol_of(n).stats.events_delivered >= 1


def test_adaptive_cluster_headers_flow():
    cluster = ThreadedCluster(
        4,
        system=fast_system(buffer_capacity=32),
        protocol="adaptive",
        adaptive=AdaptiveConfig(age_critical=4.5, sample_period=0.1),
        seed=4,
    )
    # one node is the constrained one
    cluster.protocol_of(3).set_buffer_capacity(8, 0.0)
    cluster.start()
    try:
        time.sleep(1.0)
    finally:
        cluster.stop()
    # everyone discovered the constrained buffer through gossip headers
    for n in range(3):
        assert cluster.protocol_of(n).min_buff_estimate == 8


def test_malformed_datagram_does_not_kill_node():
    cluster = ThreadedCluster(2, system=fast_system(), transport="udp", seed=1)
    cluster.start()
    attacker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        target = cluster.nodes[0].sock.getsockname()
        attacker.sendto(b"\xde\xad\xbe\xef", target)
        attacker.sendto(b"", target)
        time.sleep(0.3)
        assert cluster.nodes[0].is_alive()
        assert cluster.decode_errors == 2
        assert not cluster.failed
    finally:
        attacker.close()
        cluster.stop()


def test_offers_respect_admission():
    cluster = ThreadedCluster(
        3,
        system=fast_system(),
        protocol="static",
        rate_limit=5.0,
        seed=5,
    )
    cluster.start()
    try:
        for _ in range(100):
            cluster.broadcast(0, "x")
        time.sleep(1.0)
    finally:
        cluster.stop()
    admitted = cluster.metrics.admitted.count()
    # ~5/s for ~1s, plus the bucket depth (5): nowhere near 100
    assert 1 <= admitted <= 20


def test_offer_queue_is_bounded_like_a_sim_sender():
    # the sim sender's queue: every offer recorded, the oldest beyond the
    # limit given up and recorded as rejected
    cluster = ThreadedCluster(
        3, system=fast_system(), protocol="static", rate_limit=5.0, seed=5,
        queue_limits={0: 5},
    )
    try:
        for _ in range(50):
            cluster.broadcast(0, "x")  # before start: admitted at spec time 0
        metrics = cluster.metrics
        assert len(cluster.nodes[0].queue) == 5
        assert metrics.offered.count() == 50
        assert metrics.admitted.count() >= 1
        assert metrics.rejected.count() == 50 - 5 - metrics.admitted.count()
    finally:
        cluster.stop()


def test_live_membership_changes_are_logged():
    cluster = ThreadedCluster(4, system=fast_system(), seed=2)
    try:
        cluster.crash_node(3)
        assert cluster.size_log[-1] == (0.0, 3)
        cluster.join_node(3)
        assert cluster.size_log[-1] == (0.0, 4)
        assert cluster.group_size_at(0.0) == 4
    finally:
        cluster.stop()


def test_send_failures_counted_for_unknown_dest():
    # node 2 is a member but hosted nowhere: the memory hop has no route
    cluster = ThreadedCluster(3, system=fast_system(), seed=1, hosted=(0, 1))
    assert sorted(cluster.nodes) == [0, 1]
    cluster.run_for(0.3)
    assert cluster.send_failures > 0


def test_gossip_period_validated():
    with pytest.raises(ValueError):
        ThreadedCluster(2, system=fast_system(gossip_period=0))


def test_bimodal_over_threaded_runtime():
    """The anti-entropy request/reply path works through the real driver:
    on_receive's reply emissions are transmitted, and lost multicasts are
    repaired by pulls over the in-memory transport."""
    cluster = ThreadedCluster(
        5, system=fast_system(), protocol="bimodal", seed=8
    )
    cluster.start()
    try:
        for i in range(10):
            cluster.broadcast(2, f"b{i}")
        time.sleep(1.2)
    finally:
        cluster.stop()
    for node_id in range(5):
        assert cluster.protocol_of(node_id).stats.events_delivered >= 10
    digests = sum(
        cluster.protocol_of(n).stats.digests_sent for n in range(5)
    )
    assert digests > 0


def test_set_capacity_applies_on_the_node_thread():
    cluster = ThreadedCluster(3, system=fast_system(), seed=4)
    cluster.start()
    try:
        cluster.set_capacity(2, 7)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if cluster.protocol_of(2).buffer_capacity == 7:
                break
            time.sleep(0.02)
    finally:
        cluster.stop()
    assert cluster.protocol_of(2).buffer_capacity == 7
    # the untouched nodes keep their configured capacity
    assert cluster.protocol_of(0).buffer_capacity == 64


def test_from_scenario_builds_threaded_cluster():
    from repro.scenarios.conditions import SlowReceivers
    from repro.scenarios.spec import ScenarioSpec, SenderSpec

    spec = ScenarioSpec(
        name="threaded-build",
        n_nodes=4,
        system=SystemConfig(buffer_capacity=40, dedup_capacity=400),
        senders=(SenderSpec(0, 5.0),),
        duration=30.0,
        warmup=5.0,
        drain=5.0,
        seed=3,
    ).stressed(SlowReceivers(capacity=9, nodes=(3,)))
    cluster = ThreadedCluster.from_scenario(spec, gossip_period=0.05)
    try:
        # the protocol profile carried over whole, the spec's period
        # included, and the t=0 capacity override is the first scheduled
        # action (the loop fires it as it starts, before any feeder offers)
        assert cluster.system == spec.system
        assert cluster.system.gossip_period == 1.0
        assert cluster.system.buffer_capacity == 40
        due, _, fire = cluster.actions[0]
        assert due == 0.0
        fire()
        assert cluster.protocol_of(3).buffer_capacity == 9
        assert cluster.group_size == 4
        # the clock is paced: 0.05 wall s per spec round of 1 s, so it
        # counts twenty spec seconds per wall second
        assert ThreadedCluster.time_scale(spec, 0.05) == 0.05
        assert cluster.clock() == 0.0
        before = time.monotonic()
        cluster.start()
        time.sleep(0.2)
        spec_now = cluster.clock()
        wall = time.monotonic() - before
        assert 0.2 / 0.05 <= spec_now <= wall / 0.05
    finally:
        cluster.stop()


def test_adaptive_bimodal_over_threaded_runtime():
    cluster = ThreadedCluster(
        4,
        system=fast_system(),
        protocol="adaptive-bimodal",
        adaptive=AdaptiveConfig(age_critical=4.5, sample_period=0.2),
        seed=9,
    )
    cluster.start()
    try:
        cluster.broadcast(0, "x")
        time.sleep(0.8)
    finally:
        cluster.stop()
    assert cluster.protocol_of(1).stats.events_delivered >= 1
    assert cluster.protocol_of(1).min_buff_estimate == 64


class _FailsOnNode1(LpbcastProtocol):
    def on_receive_batch(self, messages, now):
        if self.node_id == 1:
            raise RuntimeError("boom")
        return super().on_receive_batch(messages, now)


def _failing_factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
    return _FailsOnNode1(node_id, system, membership, rng, deliver_fn, drop_fn)


def test_a_raising_protocol_callback_fails_the_run():
    cluster = ThreadedCluster(4, system=fast_system(), protocol=_failing_factory, seed=6)
    cluster.start()
    for i in range(5):
        cluster.broadcast(0, f"m{i}")
    assert cluster.wait(2.0), "the failure never surfaced"
    with pytest.raises(RuntimeError, match=r"node 1: on_receive_batch raised .*boom") as info:
        cluster.stop()
    assert isinstance(info.value.__cause__, RuntimeError)
    assert not cluster.nodes[1].is_alive()


def test_a_raising_scheduled_condition_fails_the_run():
    cluster = ThreadedCluster(3, system=fast_system(), seed=1)

    def explode():
        raise ValueError("bad window")

    cluster.actions = [(0.05, 0, explode)]
    cluster.start()
    assert cluster.wait(2.0)
    with pytest.raises(RuntimeError, match="scheduled condition 'explode' due at 0.050s"):
        cluster.stop()


def test_run_scenario_threaded_raises_a_loop_failure(monkeypatch):
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import run_scenario_threaded, smoke_profile

    def boom(self, messages, now):
        raise RuntimeError("boom")

    monkeypatch.setattr(LpbcastProtocol, "on_receive_batch", boom)
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(6.0)
    with pytest.raises(RuntimeError, match="on_receive_batch raised"):
        run_scenario_threaded(spec)


def test_no_delivery_is_stamped_after_stop_plus_one_period():
    # stop() halts every node in one loop callback: nothing keeps
    # gossiping past the moment it was called
    system = SystemConfig(gossip_period=0.1, buffer_capacity=60, dedup_capacity=600)
    cluster = ThreadedCluster(48, system=system, seed=7)
    cluster.start()
    try:
        for i in range(60):
            cluster.broadcast(i % 48)
            time.sleep(0.02)
    finally:
        stopped_at = cluster.clock()
        cluster.stop()
    records = cluster.metrics.messages.values()
    assert any(r.receiver_count == 48 for r in records)  # gossip did run
    latest = max(r.last_delivery for r in records)
    assert latest <= stopped_at + system.gossip_period
