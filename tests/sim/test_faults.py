"""Tests for declarative fault injection."""

import pytest

from repro.scenarios.spec import lower_timed_conditions
from repro.sim.engine import Simulator
from repro.sim.faults import (
    AsymmetricPartitionWindow,
    BandwidthCapWindow,
    CrashWindow,
    FaultScript,
    LinkLossWindow,
    LossWindow,
    OverlappingFaultsError,
    PartitionWindow,
)
from repro.sim.network import ConstantLatency, Network


def schedule(sim, net, script, baseline_loss=None):
    """Put a script's lowered windows on a bare simulator's heap."""
    actions, _ = lower_timed_conditions(net, None, script, baseline_loss=baseline_loss)
    for time, _, fire in actions:
        sim.schedule_at(time, fire)


def test_fault_validation():
    with pytest.raises(ValueError):
        LossWindow(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        LossWindow(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        LossWindow(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PartitionWindow(0.0, 1.0, (("a",),))
    with pytest.raises(ValueError):
        CrashWindow(1.0, ())
    with pytest.raises(ValueError):
        CrashWindow(1.0, (3,), restart_at=1.0)
    with pytest.raises(ValueError):
        BandwidthCapWindow(0.0, 1.0, 0.0)


def test_builder():
    script = (
        FaultScript()
        .loss(1.0, 2.0, 0.5)
        .partition(5.0, 1.0, [["a"], ["b"]])
        .crash(7.0, [3, 4], restart_at=9.0)
        .bandwidth_cap(10.0, 2.0, 50.0)
    )
    assert len(script) == 4


def test_overlapping_loss_windows_rejected():
    script = FaultScript().loss(1.0, 5.0, 0.5).loss(3.0, 1.0, 0.9)
    with pytest.raises(OverlappingFaultsError, match="overlapping LossWindow"):
        script.validate()
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.001))
    # the lowering refuses the ambiguous schedule instead of compounding
    with pytest.raises(OverlappingFaultsError):
        schedule(sim, net, script)


def test_overlapping_partitions_and_caps_rejected():
    with pytest.raises(OverlappingFaultsError, match="PartitionWindow"):
        (
            FaultScript()
            .partition(1.0, 5.0, [["a"], ["b"]])
            .partition(2.0, 1.0, [["a", "b"], ["c"]])
            .validate()
        )
    with pytest.raises(OverlappingFaultsError, match="BandwidthCapWindow"):
        FaultScript().bandwidth_cap(0.0, 5.0, 10.0).bandwidth_cap(4.0, 5.0, 20.0).validate()


def test_different_kinds_may_overlap():
    FaultScript().loss(1.0, 5.0, 0.5).partition(2.0, 2.0, [["a"], ["b"]]).validate()
    # back-to-back same-kind windows (touching, not overlapping) are fine
    FaultScript().loss(1.0, 2.0, 0.5).loss(3.0, 2.0, 0.9).validate()


def test_new_window_validation():
    with pytest.raises(ValueError):
        AsymmetricPartitionWindow(0.0, 1.0, (("a", "b"),))  # one group
    with pytest.raises(ValueError):
        AsymmetricPartitionWindow(0.0, 1.0, (("a",), ("b",)), blocked=())
    with pytest.raises(ValueError):
        AsymmetricPartitionWindow(0.0, 1.0, (("a",), ("b",)), blocked=((0, 2),))
    with pytest.raises(ValueError):
        AsymmetricPartitionWindow(0.0, 1.0, (("a",), ("b",)), blocked=((1, 1),))
    with pytest.raises(ValueError):
        LinkLossWindow(0.0, 1.0, {})  # empty matrix
    with pytest.raises(ValueError):
        LinkLossWindow(0.0, 1.0, {("a", "b"): 0.0})  # p out of (0, 1]
    with pytest.raises(ValueError):
        LinkLossWindow(0.0, 1.0, [("a", "b", 0.5), ("a", "b", 0.9)])  # dup pair


def test_link_loss_window_normalises_dict_and_triples():
    from_dict = LinkLossWindow(0.0, 1.0, {("a", "b"): 0.5, ("b", "a"): 0.2})
    from_triples = LinkLossWindow(0.0, 1.0, [("b", "a", 0.2), ("a", "b", 0.5)])
    assert from_dict == from_triples
    assert from_dict.matrix == {("a", "b"): 0.5, ("b", "a"): 0.2}


def test_family_split_overlap_exclusivity():
    """Each window kind is its own network knob: different kinds compose
    even when their windows overlap; only same-kind overlap is ambiguous.

    Regression: the old validator treated loss-shaped windows as one
    family, so a per-link loss window over a symmetric loss (or
    partition) window was rejected — exactly the heterogeneous
    composition chaos v2 exists to express.
    """
    links = {("a", "b"): 0.5}
    groups = [["a"], ["b"]]
    # link loss over a symmetric loss burst: legal
    FaultScript().loss(1.0, 4.0, 0.3).link_loss(2.0, 2.0, links).validate()
    # link loss over a (symmetric) partition: legal
    FaultScript().partition(1.0, 4.0, groups).link_loss(2.0, 2.0, links).validate()
    # one-way cut over a symmetric partition: legal (separate knobs)
    FaultScript().partition(1.0, 4.0, groups).oneway_partition(
        2.0, 2.0, groups
    ).validate()
    # same-kind overlap is still rejected, with the kind in the message
    with pytest.raises(OverlappingFaultsError, match="overlapping LinkLossWindow"):
        FaultScript().link_loss(1.0, 4.0, links).link_loss(2.0, 2.0, links).validate()
    with pytest.raises(
        OverlappingFaultsError, match="overlapping AsymmetricPartitionWindow"
    ):
        FaultScript().oneway_partition(1.0, 4.0, groups).oneway_partition(
            2.0, 2.0, groups
        ).validate()


def wire(sim):
    net = Network(sim, latency=ConstantLatency(0.001))
    inbox = []
    net.attach("a", lambda m, s, t: None)
    net.attach("b", lambda m, s, t: inbox.append(t))
    return net, inbox


def test_loss_window_opens_and_closes():
    sim = Simulator(seed=1)
    net, inbox = wire(sim)
    schedule(sim, net, FaultScript().loss(1.0, 2.0, 1.0))

    def send():
        net.send("a", "b", "x")

    for t in (0.5, 1.5, 2.5, 3.5):
        sim.schedule_at(t, send)
    sim.run()
    # messages at 1.5 and 2.5 fall inside the total-loss window
    assert len(inbox) == 2
    assert net.stats.lost == 2


def test_partition_window_heals():
    sim = Simulator(seed=1)
    net, inbox = wire(sim)
    schedule(sim, net, FaultScript().partition(1.0, 2.0, [["a"], ["b"]]))

    def send():
        net.send("a", "b", "x")

    for t in (0.5, 2.0, 3.5):
        sim.schedule_at(t, send)
    sim.run()
    assert len(inbox) == 2  # the t=2.0 send was partitioned away
    assert net.stats.partitioned == 1


def test_baseline_loss_restored():
    from repro.sim.network import BernoulliLoss

    sim = Simulator(seed=1)
    net, inbox = wire(sim)
    baseline = BernoulliLoss(p=0.0)  # distinguishable sentinel
    schedule(sim, net, FaultScript().loss(1.0, 1.0, 1.0), baseline_loss=baseline)
    sim.run(until=3.0)
    assert net._loss is baseline


def test_bandwidth_cap_window_caps_and_releases():
    sim = Simulator(seed=1)
    net, inbox = wire(sim)
    schedule(sim, net, FaultScript().bandwidth_cap(1.0, 2.0, 2.0))

    def send():
        net.send("a", "b", "x")

    # five sends inside one capped second, two after the window closes
    for t in (1.1, 1.2, 1.3, 1.4, 1.5, 3.5, 3.6):
        sim.schedule_at(t, send)
    sim.run()
    assert net.stats.capped == 3  # 2 of 5 fit under the 2 msg/s cap
    assert len(inbox) == 4


def test_oneway_window_blocks_one_direction_then_heals():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.001))
    a_in, b_in = [], []
    net.attach("a", lambda m, s, t: a_in.append(t))
    net.attach("b", lambda m, s, t: b_in.append(t))
    schedule(
        sim, net, FaultScript().oneway_partition(1.0, 2.0, [["a"], ["b"]], blocked=((0, 1),))
    )

    def both_ways():
        net.send("a", "b", "x")
        net.send("b", "a", "y")

    for t in (0.5, 2.0, 3.5):
        sim.schedule_at(t, both_ways)
    sim.run()
    assert len(b_in) == 2  # a->b cut at t=2.0
    assert len(a_in) == 3  # b->a always flows: the cut is directed
    assert net.stats.oneway_blocked == 1


def test_link_loss_window_is_per_pair_and_heals():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.001))
    b_in, c_in = [], []
    net.attach("a", lambda m, s, t: None)
    net.attach("b", lambda m, s, t: b_in.append(t))
    net.attach("c", lambda m, s, t: c_in.append(t))
    schedule(sim, net, FaultScript().link_loss(1.0, 2.0, {("a", "b"): 1.0}))

    def fan():
        net.send("a", "b", "x")
        net.send("a", "c", "x")

    for t in (0.5, 2.0, 3.5):
        sim.schedule_at(t, fan)
    sim.run()
    assert len(b_in) == 2  # the a->b link ate the t=2.0 send
    assert len(c_in) == 3  # the a->c link was never in the matrix
    assert net.stats.link_lost == 1


def test_crash_window_requires_cluster():
    # a crash acts on nodes: it is lowered onto the cluster target and
    # never touches the network's rules
    calls = []

    class Cluster:
        def crash_node(self, node):
            calls.append(("crash", node))

        def join_node(self, node):
            calls.append(("join", node))

    actions, _ = lower_timed_conditions(
        None, Cluster(), FaultScript().crash(1.0, [3, 4], restart_at=2.0)
    )
    assert [time for time, _, _ in actions] == [1.0, 2.0]
    for _, _, fire in actions:
        fire()
    assert calls == [("crash", 3), ("crash", 4), ("join", 3), ("join", 4)]


def test_crash_window_crashes_and_restarts_nodes():
    from repro.gossip.config import SystemConfig
    from repro.workload.cluster import SimCluster

    cluster = SimCluster(
        n_nodes=10,
        system=SystemConfig(buffer_capacity=40, dedup_capacity=400),
        seed=3,
    )
    cluster.apply_faults(FaultScript().crash(5.0, [8, 9], restart_at=12.0))
    cluster.run(until=4.0)
    assert cluster.group_size == 10
    cluster.run(until=8.0)
    assert cluster.group_size == 8
    assert 8 not in cluster.nodes and 9 not in cluster.nodes
    cluster.run(until=15.0)
    # restarted under the old identities, as fresh processes
    assert cluster.group_size == 10
    assert cluster.protocol_of(8).stats.events_delivered == 0


def test_gossip_survives_partition_window():
    """Dissemination stalls across a partition and completes after heal."""
    from repro.gossip.config import SystemConfig
    from repro.metrics.delivery import analyze_delivery
    from repro.workload.cluster import SimCluster

    cluster = SimCluster(
        n_nodes=16,
        system=SystemConfig(buffer_capacity=60, dedup_capacity=800, max_age=30),
        seed=9,
    )
    left = list(range(8))
    right = list(range(8, 16))
    script = FaultScript().partition(5.0, 10.0, [left, right])
    cluster.apply_faults(script)
    cluster.add_sender(0, rate=2.0, stop=14.0)
    cluster.run(until=40.0)
    stats = analyze_delivery(cluster.metrics.messages_in_window(0, 15), 16)
    # everything (including messages broadcast inside the partition
    # window) eventually reached both sides once the partition healed
    assert stats.avg_receiver_fraction > 0.99
