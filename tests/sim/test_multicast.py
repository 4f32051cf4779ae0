"""Network.multicast — the batched send path must mirror send() exactly."""

from repro.sim.engine import Simulator
from repro.sim.network import (
    BernoulliLoss,
    ConstantLatency,
    Network,
    UniformLatency,
)


def collect(network, address, log):
    network.attach(address, lambda msg, src, now: log.append((address, msg, src, now)))


def test_multicast_delivers_to_every_destination():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    log = []
    for n in range(5):
        collect(net, n, log)
    assert net.multicast(0, (1, 2, 3, 4), "hello", items=3) == 4
    sim.run()
    assert [(dst, src) for dst, _m, src, _t in log] == [(d, 0) for d in (1, 2, 3, 4)]
    assert net.stats.sent == 4
    assert net.stats.delivered == 4
    assert net.stats.payload_items == 12


def test_constant_latency_collapses_to_one_event():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    log = []
    for n in range(9):
        collect(net, n, log)
    net.multicast(0, tuple(range(1, 9)), "m")
    sim.run()
    assert len(log) == 8
    # one batched delivery event + the instant's single flush event
    assert sim.events_dispatched == 2


def test_multicast_matches_sequential_sends():
    """Same RNG stream order => same latencies, losses and deliveries."""

    def run(batched):
        sim = Simulator(seed=13)
        net = Network(
            sim, latency=UniformLatency(0.005, 0.05), loss=BernoulliLoss(0.3)
        )
        log = []
        for n in range(6):
            collect(net, n, log)
        for _round in range(20):
            if batched:
                net.multicast(0, (1, 2, 3, 4, 5), "m")
            else:
                for dst in (1, 2, 3, 4, 5):
                    net.send(0, dst, "m")
        sim.run()
        return [(d, s, round(t, 12)) for d, _m, s, t in log], (
            net.stats.sent,
            net.stats.delivered,
            net.stats.lost,
        )

    assert run(batched=True) == run(batched=False)


def test_multicast_respects_partitions_and_detach():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    log = []
    for n in range(4):
        collect(net, n, log)
    net.rules.partition([[0, 1], [2]])
    scheduled = net.multicast(0, (1, 2, 3, 5), "m")
    # 1 shares the partition; 2 is across it; 3 and 5 sit in the implicit
    # group -1, also across — the partition check precedes routing,
    # exactly as in send()
    assert scheduled == 1
    assert net.stats.partitioned == 3
    assert net.stats.no_route == 0
    sim.run()
    assert [d for d, *_ in log] == [1]


def test_partitioned_multicast_matches_sequential_sends():
    """RNG parity holds with a partition in force: the hoisted partition
    check must skip exactly the destinations per-send would skip, before
    any loss/latency draw is consumed."""

    def run(batched):
        sim = Simulator(seed=29)
        net = Network(
            sim, latency=UniformLatency(0.005, 0.05), loss=BernoulliLoss(0.25)
        )
        log = []
        for n in range(8):
            collect(net, n, log)
        net.rules.partition([[0, 1, 2, 3], [4, 5, 6, 7]])
        for _round in range(25):
            if batched:
                net.multicast(0, (1, 2, 4, 3, 5, 6), "m")
            else:
                for dst in (1, 2, 4, 3, 5, 6):
                    net.send(0, dst, "m")
        sim.run()
        return [(d, s, round(t, 12)) for d, _m, s, t in log], (
            net.stats.sent,
            net.stats.delivered,
            net.stats.lost,
            net.stats.partitioned,
        )

    a, b = run(batched=True), run(batched=False)
    assert a == b
    assert a[1][3] == 75  # 3 cross-partition targets x 25 rounds


def test_multicast_to_departed_node_counts_no_route_at_delivery():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    log = []
    for n in range(3):
        collect(net, n, log)
    net.multicast(0, (1, 2), "m")
    net.detach(1)  # leaves while the message is in flight
    sim.run()
    assert [d for d, *_ in log] == [2]
    assert net.stats.no_route == 1
    assert net.stats.delivered == 1
