"""Integration tests: fault injection on a live threaded cluster.

These run real threads for fractions of a second, so assertions are
shaped to be timing-robust: a partition proves itself by *zero*
cross-partition deliveries (nothing can race to a false positive), and
heal/restart prove themselves by eventual delivery with generous round
budgets.
"""

import time

from repro.gossip.config import SystemConfig
from repro.runtime.cluster import ThreadedCluster
from repro.runtime.transport import ChaosRules
from repro.sim.network import ConstantLatency

N = 8
SYSTEM = SystemConfig(
    gossip_period=0.05, fanout=3, buffer_capacity=60, dedup_capacity=500, max_age=30
)


def make_cluster(**kw):
    params = dict(n_nodes=N, system=SYSTEM, protocol="lpbcast", seed=3)
    params.update(kw)
    return ThreadedCluster(**params)


def delivered(cluster):
    return {n: cluster.protocol_of(n).stats.events_delivered for n in cluster.nodes}


def test_partition_then_heal():
    rules = ChaosRules()
    cluster = make_cluster(chaos=rules)
    left = list(range(N // 2))
    right = list(range(N // 2, N))
    rules.partition([left, right])
    cluster.start()
    try:
        for i in range(5):
            cluster.broadcast(0, f"pre-{i}")
        time.sleep(0.8)  # ~16 rounds: plenty inside the left half
        snapshot = delivered(cluster)
        # the only source is node 0 (left half): the right half must
        # have seen *nothing* while the partition stood
        assert all(snapshot[n] == 0 for n in right)
        assert any(snapshot[n] > 0 for n in left)
        assert rules.stats.partitioned > 0  # gossip did try to cross

        rules.heal()
        for i in range(5):
            cluster.broadcast(0, f"post-{i}")
        time.sleep(1.5)
    finally:
        cluster.stop()
    final = delivered(cluster)
    # after the heal, fresh broadcasts reach both halves
    assert all(final[n] > 0 for n in cluster.nodes)


def test_crash_then_restart_rejoins_with_fresh_state():
    cluster = make_cluster()
    victim = N - 1
    cluster.start()
    try:
        for i in range(4):
            cluster.broadcast(0, f"pre-{i}")
        time.sleep(0.6)
        pre = cluster.protocol_of(victim).stats.events_delivered
        assert pre > 0
        cluster.crash_node(victim)
        assert not cluster.directory.is_alive(victim)
        assert not cluster.nodes[victim].is_alive()

        cluster.join_node(victim)
        assert cluster.directory.is_alive(victim)
        assert cluster.nodes[victim].is_alive()
        # a restart is a fresh process under the old identity
        assert cluster.protocol_of(victim).stats.events_delivered == 0

        for i in range(4):
            cluster.broadcast(0, f"post-{i}")
        time.sleep(1.0)
    finally:
        cluster.stop()
    assert cluster.protocol_of(victim).stats.events_delivered > 0


def test_leave_is_graceful_and_idempotent():
    cluster = make_cluster(membership="partial", view_size=4)
    cluster.start()
    try:
        leaver = N - 1
        cluster.leave_node(leaver)
        cluster.leave_node(leaver)  # idempotent
        assert not cluster.directory.is_alive(leaver)
        cluster.broadcast(0, "after-leave")
        time.sleep(0.4)
    finally:
        cluster.stop()
    # the unsubscribe ran on the loop (the grace period before the node
    # stops is a non-blocking loop timer; stop() joins everything)
    assert cluster.protocol_of(leaver).membership.unsubscribed
    # the group keeps working without the leaver
    others = [n for n in cluster.nodes if n != leaver]
    assert any(cluster.protocol_of(n).stats.events_delivered > 0 for n in others)


def test_leave_then_rejoin_within_the_grace_window():
    # a graceful leave defers its shutdown on a timer; rejoining before
    # it fires must supersede it, and the timer's late stop of the old
    # incarnation must not unregister the rejoined node's route
    cluster = make_cluster(membership="partial", view_size=4)
    cluster.start()
    try:
        n = N - 1
        cluster.leave_node(n)
        node = cluster.join_node(n)  # inside the grace window
        assert cluster.directory.is_alive(n)
        assert node.is_alive()
        grace = 0.05 + SYSTEM.gossip_period * 1.2
        time.sleep(grace + 0.2)  # outlive the grace timer
        assert node.is_alive()
        assert cluster._routes[n] is node  # still routable
    finally:
        cluster.stop()


def test_join_grows_the_group():
    cluster = make_cluster()
    cluster.start()
    try:
        newcomer = N  # an id beyond the initial group
        cluster.join_node(newcomer)
        assert cluster.directory.is_alive(newcomer)
        for i in range(6):
            cluster.broadcast(0, f"m-{i}")
        time.sleep(1.0)
    finally:
        cluster.stop()
    assert cluster.protocol_of(newcomer).stats.events_delivered > 0


def test_stop_closes_chaos_delay_line():
    # every link takes 5 s: all gossip is still in flight at stop(), which
    # must not wait for it — the delay line is the loop's timer queue, and
    # its pending timers die with the loop
    rules = ChaosRules(latency=ConstantLatency(5.0))
    cluster = make_cluster(chaos=rules)
    cluster.start()
    cluster.broadcast(0, "late")
    time.sleep(0.3)
    started = time.monotonic()
    cluster.stop()
    assert time.monotonic() - started < 1.0
    assert rules.stats.delayed > 0
    assert rules.stats.delivered == 0
    assert all(delivered(cluster)[n] == 0 for n in range(1, N))
