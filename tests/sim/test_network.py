"""Tests for the simulated network."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import (
    BernoulliLoss,
    BurstLoss,
    ConstantLatency,
    LogNormalLatency,
    Network,
    NoLoss,
    UniformLatency,
)


@pytest.fixture
def sim():
    return Simulator(seed=1)


def collect(inbox):
    def handler(message, src, now):
        inbox.append((message, src, now))

    return handler


def test_send_and_deliver(sim):
    net = Network(sim, latency=ConstantLatency(0.5))
    inbox = []
    net.attach("a", collect([]))
    net.attach("b", collect(inbox))
    assert net.send("a", "b", "hello")
    sim.run()
    assert inbox == [("hello", "a", 0.5)]
    assert net.stats.sent == 1
    assert net.stats.delivered == 1


def test_unknown_destination_dropped(sim):
    net = Network(sim)
    net.attach("a", collect([]))
    assert not net.send("a", "ghost", "x")
    assert net.stats.no_route == 1


def test_duplicate_attach_rejected(sim):
    net = Network(sim)
    net.attach("a", collect([]))
    with pytest.raises(ValueError):
        net.attach("a", collect([]))


def test_detach_drops_in_flight(sim):
    net = Network(sim, latency=ConstantLatency(1.0))
    inbox = []
    net.attach("a", collect([]))
    net.attach("b", collect(inbox))
    net.send("a", "b", "x")
    net.detach("b")
    sim.run()
    assert inbox == []
    assert net.stats.no_route == 1


def test_bernoulli_loss_drops_messages(sim):
    net = Network(sim, latency=ConstantLatency(0.01), loss=BernoulliLoss(p=1.0))
    inbox = []
    net.attach("a", collect([]))
    net.attach("b", collect(inbox))
    assert not net.send("a", "b", "x")
    sim.run()
    assert inbox == []
    assert net.stats.lost == 1


def test_no_loss_never_drops(sim):
    model = NoLoss()
    assert not model.is_lost("a", "b", None)


def test_partition_blocks_cross_groups(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    boxes = {n: [] for n in "abc"}
    for n in "abc":
        net.attach(n, collect(boxes[n]))
    net.rules.partition([["a"], ["b", "c"]])
    assert not net.send("a", "b", "x")
    assert net.send("b", "c", "y")
    sim.run()
    assert boxes["b"] == []
    assert len(boxes["c"]) == 1
    assert net.stats.partitioned == 1


def test_heal_restores_connectivity(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    inbox = []
    net.attach("a", collect([]))
    net.attach("b", collect(inbox))
    net.rules.partition([["a"], ["b"]])
    net.rules.heal()
    assert net.send("a", "b", "x")
    sim.run()
    assert len(inbox) == 1


def test_unlisted_addresses_share_default_partition(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    inbox = []
    net.attach("x", collect([]))
    net.attach("y", collect(inbox))
    net.rules.partition([["a"]])  # x and y are both in the implicit group
    assert net.send("x", "y", "m")


def test_latency_models_sample_within_bounds(sim):
    rng = sim.rngs.stream("t")
    uni = UniformLatency(0.01, 0.05)
    for _ in range(100):
        assert 0.01 <= uni.sample("a", "b", rng) <= 0.05
    logn = LogNormalLatency(median=0.02, sigma=0.5, cap=1.0)
    for _ in range(100):
        assert 0.0 < logn.sample("a", "b", rng) <= 1.0
    assert ConstantLatency(0.3).sample("a", "b", rng) == 0.3


def test_burst_loss_correlates(sim):
    rng = sim.rngs.stream("burst")
    model = BurstLoss(p_enter=1.0, p_exit=0.0, p_bad=1.0)
    # First message flips to the bad state and every message is lost.
    results = [model.is_lost("a", "b", rng) for _ in range(20)]
    assert all(results)


def test_payload_items_accounting(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    net.attach("a", collect([]))
    net.attach("b", collect([]))
    net.send("a", "b", "x", items=17)
    assert net.stats.payload_items == 17


def test_delivery_order_follows_latency(sim):
    net = Network(sim, latency=ConstantLatency(0.1))
    inbox = []
    net.attach("a", collect([]))
    net.attach("b", collect(inbox))
    net.send("a", "b", "first")
    sim.run(until=0.05)
    net.send("a", "b", "second")
    sim.run()
    assert [m for m, _, _ in inbox] == ["first", "second"]


def test_oneway_partition_is_directed(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    a_in, b_in = [], []
    net.attach("a", collect(a_in))
    net.attach("b", collect(b_in))
    net.rules.partition_oneway([["a"], ["b"]], blocked=[(0, 1)])
    assert net.send("a", "b", "x") is False  # blocked direction
    assert net.send("b", "a", "y") is True  # reverse flows
    sim.run()
    assert b_in == [] and len(a_in) == 1
    assert net.stats.oneway_blocked == 1
    net.rules.heal_oneway()
    assert net.send("a", "b", "x") is True


def test_crosses_oneway_helper():
    from repro.sim.network import crosses_oneway

    oneway_of = {"a": 0, "b": 1}
    blocked = frozenset({(0, 1)})
    assert crosses_oneway(oneway_of, blocked, "a", "b") is True
    assert crosses_oneway(oneway_of, blocked, "b", "a") is False
    # unmentioned nodes share group -1, never a blocked pair here
    assert crosses_oneway(oneway_of, blocked, "a", "zzz") is False
    assert crosses_oneway({}, frozenset(), "a", "b") is False


def test_link_loss_only_touches_matrix_pairs(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    b_in, c_in = [], []
    net.attach("a", collect([]))
    net.attach("b", collect(b_in))
    net.attach("c", collect(c_in))
    net.rules.set_link_loss({("a", "b"): 1.0})
    for _ in range(5):
        net.send("a", "b", "x")
        net.send("a", "c", "x")
    sim.run()
    assert b_in == [] and len(c_in) == 5
    assert net.stats.link_lost == 5
    net.rules.set_link_loss(None)
    assert net.send("a", "b", "x") is True


def test_link_loss_draws_rng_only_for_matrix_pairs(sim):
    """Determinism discipline: a pair outside the matrix must not consume
    the network RNG — otherwise installing a link-loss window would shift
    every later random draw and change unrelated traffic."""
    net = Network(sim, latency=ConstantLatency(0.01))
    for addr in ("a", "b", "c"):
        net.attach(addr, collect([]))
    net.rules.set_link_loss({("a", "b"): 0.5})
    state_before = net._rng.getstate()
    net.send("a", "c", "x")  # not in the matrix
    assert net._rng.getstate() == state_before
    net.send("a", "b", "x")  # in the matrix: exactly this consumes RNG
    assert net._rng.getstate() != state_before


def test_multicast_respects_oneway_and_link_loss(sim):
    net = Network(sim, latency=ConstantLatency(0.01))
    inboxes = {addr: [] for addr in ("a", "b", "c", "d")}
    for addr, box in inboxes.items():
        net.attach(addr, collect(box))
    net.rules.partition_oneway([["a"], ["b"]], blocked=[(0, 1)])
    net.rules.set_link_loss({("a", "c"): 1.0})
    delivered = net.multicast("a", ["b", "c", "d"], "x")
    sim.run()
    assert delivered == 1  # only d: b is cut one-way, c's link always loses
    assert [len(inboxes[x]) for x in ("b", "c", "d")] == [0, 0, 1]
    assert net.stats.oneway_blocked == 1
    assert net.stats.link_lost == 1
