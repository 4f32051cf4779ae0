"""Integration: the mechanism over partial views and under churn.

§5 claims the approach applies to gossip "relying on a partial
membership knowledge on each node"; these tests exercise exactly that,
plus graceful leave via unsubscription gossip.
"""

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.membership.churn import ChurnScript
from repro.membership.views import ViewConfig
from repro.metrics.delivery import analyze_delivery
from repro.workload.cluster import SimCluster


def partial_cluster(protocol="lpbcast", n=24, seed=5, **kw):
    cluster = SimCluster(
        n_nodes=n,
        system=SystemConfig(buffer_capacity=60, dedup_capacity=1500),
        protocol=protocol,
        adaptive=AdaptiveConfig(age_critical=4.5, initial_rate=6.0),
        membership="partial",
        view_config=ViewConfig(view_size=8),
        seed=seed,
        **kw,
    )
    return cluster


def test_dissemination_over_partial_views():
    cluster = partial_cluster()
    cluster.add_senders([0, 12], rate_each=3.0)
    cluster.run(until=60.0)
    stats = analyze_delivery(cluster.metrics.messages_in_window(20, 45), 24)
    assert stats.avg_receiver_fraction > 0.95


def test_minbuff_converges_over_partial_views():
    cluster = partial_cluster(protocol="adaptive")
    cluster.add_senders([0, 12], rate_each=3.0)
    cluster.set_capacity(17, 20)
    cluster.run(until=80.0)
    estimates = [
        cluster.protocol_of(n).min_buff_estimate for n in cluster.nodes
    ]
    assert max(estimates) == 20  # every node discovered the minimum


def test_views_stay_bounded_and_alive_under_churn():
    cluster = partial_cluster()
    cluster.add_senders([0, 12], rate_each=3.0)
    script = ChurnScript()
    for i, node in enumerate((3, 9, 15)):
        script.leave(10.0 + 5 * i, node)
    for i in range(3):
        script.join(12.0 + 5 * i, 100 + i)
    cluster.apply_faults(churn=script)
    cluster.run(until=80.0)
    for node in cluster.nodes.values():
        membership = node.protocol.membership
        assert membership.size() <= 8
    # messages broadcast after churn still reach (almost) all alive nodes
    stats = analyze_delivery(
        cluster.metrics.messages_in_window(40, 70), cluster.group_size
    )
    assert stats.avg_receiver_fraction > 0.9


def test_joined_node_becomes_known():
    cluster = partial_cluster()
    cluster.add_senders([0], rate_each=3.0)
    cluster.run(until=20.0)
    newcomer = cluster.join_node(99)
    cluster.run(until=70.0)
    known_by = sum(
        1
        for node in cluster.nodes.values()
        if node.node_id != 99 and node.protocol.membership.contains(99)
    )
    assert known_by > 0
    assert len(newcomer.protocol.dedup) > 0  # it receives traffic
