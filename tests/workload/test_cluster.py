"""Tests for the SimCluster driver."""

import pytest

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.membership.churn import ChurnScript
from repro.workload.cluster import SimCluster, make_protocol_factory


def small_system(**kw):
    return SystemConfig(
        gossip_period=1.0, buffer_capacity=30, dedup_capacity=500, **kw
    )


def test_requires_two_nodes():
    with pytest.raises(ValueError):
        SimCluster(n_nodes=1)


def test_unknown_protocol_kind():
    with pytest.raises(ValueError):
        SimCluster(n_nodes=3, protocol="bogus")
    with pytest.raises(ValueError):
        make_protocol_factory("static")  # needs rate_limit


def test_unknown_membership_kind():
    with pytest.raises(ValueError):
        SimCluster(n_nodes=3, membership="bogus")


def test_broadcast_reaches_everyone():
    cluster = SimCluster(n_nodes=12, system=small_system(), seed=3)
    cluster.add_sender(0, rate=2.0)
    cluster.run(until=30.0)
    from repro.metrics.delivery import analyze_delivery

    stats = analyze_delivery(cluster.metrics.messages_in_window(5, 20), 12)
    assert stats.messages > 0
    assert stats.avg_receiver_fraction > 0.99


def test_sender_validation():
    cluster = SimCluster(n_nodes=4, system=small_system())
    with pytest.raises(ValueError):
        cluster.add_sender(99, rate=1.0)
    cluster.add_sender(0, rate=1.0)
    with pytest.raises(ValueError):
        cluster.add_sender(0, rate=1.0)  # duplicate


def test_add_senders_bulk():
    cluster = SimCluster(n_nodes=6, system=small_system())
    senders = cluster.add_senders([0, 1, 2], rate_each=1.0)
    assert len(senders) == 3
    assert set(cluster.senders) == {0, 1, 2}


def test_set_capacity_runtime():
    cluster = SimCluster(n_nodes=4, system=small_system())
    cluster.run(until=1.0)
    cluster.set_capacity(2, 10)
    assert cluster.protocol_of(2).buffer_capacity == 10


def test_scheduled_action():
    cluster = SimCluster(n_nodes=4, system=small_system())
    fired = []
    cluster.at(5.0, lambda: fired.append(cluster.sim.now))
    cluster.run(until=10.0)
    assert fired == [5.0]


def test_leave_node_stops_participation():
    cluster = SimCluster(n_nodes=6, system=small_system(), seed=1)
    cluster.add_sender(0, rate=2.0)
    cluster.leave_node(3)
    assert cluster.group_size == 5
    assert 3 not in cluster.nodes
    cluster.run(until=10.0)  # must not crash routing to the gone node
    assert cluster.metrics.deliveries.total > 0


def test_crash_node():
    cluster = SimCluster(n_nodes=6, system=small_system(), seed=1)
    cluster.crash_node(5)
    assert cluster.group_size == 5
    cluster.run(until=5.0)


def test_join_node_mid_run():
    cluster = SimCluster(n_nodes=5, system=small_system(), seed=1)
    cluster.add_sender(0, rate=2.0)
    cluster.run(until=5.0)
    cluster.join_node(100)
    cluster.run(until=25.0)
    assert cluster.group_size == 6
    # the newcomer receives traffic
    assert len(cluster.protocol_of(100).dedup) > 0


def test_churn_script_applied():
    cluster = SimCluster(n_nodes=6, system=small_system(), seed=1)
    script = ChurnScript().leave(2.0, 4).join(4.0, 77).crash(6.0, 3)
    cluster.apply_faults(churn=script)
    cluster.run(until=10.0)
    assert 4 not in cluster.nodes
    assert 3 not in cluster.nodes
    assert 77 in cluster.nodes
    assert cluster.group_size == 5


def test_adaptive_cluster_constructs_protocols():
    cluster = SimCluster(
        n_nodes=4,
        system=small_system(),
        protocol="adaptive",
        adaptive=AdaptiveConfig(age_critical=4.0),
    )
    proto = cluster.protocol_of(0)
    assert proto.adaptive_config.age_critical == 4.0


def test_static_cluster_needs_rate_limit():
    cluster = SimCluster(
        n_nodes=4, system=small_system(), protocol="static", rate_limit=3.0
    )
    assert cluster.protocol_of(0).allowed_rate == 3.0


def test_partial_membership_cluster_disseminates():
    cluster = SimCluster(
        n_nodes=16, system=small_system(), membership="partial", seed=2
    )
    cluster.add_sender(0, rate=2.0)
    cluster.run(until=30.0)
    from repro.metrics.delivery import analyze_delivery

    stats = analyze_delivery(cluster.metrics.messages_in_window(5, 20), 16)
    assert stats.avg_receiver_fraction > 0.9


def test_custom_protocol_factory():
    calls = []

    def factory(node_id, system, membership, rng, deliver_fn, drop_fn, now):
        from repro.gossip.lpbcast import LpbcastProtocol

        calls.append(node_id)
        return LpbcastProtocol(node_id, system, membership, rng, deliver_fn, drop_fn)

    cluster = SimCluster(n_nodes=3, system=small_system(), protocol=factory)
    assert sorted(calls) == [0, 1, 2]
    assert cluster.protocol_of(1).node_id == 1


def test_gauges_sampled_for_adaptive():
    cluster = SimCluster(
        n_nodes=4, system=small_system(), protocol="adaptive", seed=1
    )
    cluster.run(until=5.0)
    assert cluster.metrics.gauge("allowed_rate", 0) is not None
    assert cluster.metrics.gauge("min_buff", 0) is not None
    assert cluster.metrics.gauge("buffer_len", 0) is not None
