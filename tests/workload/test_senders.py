"""Tests for arrival processes and the admission-controlled sender."""

import random

import pytest

from repro.core.adaptive import StaticRateLpbcastProtocol
from repro.gossip.config import SystemConfig
from repro.gossip.lpbcast import LpbcastProtocol
from repro.membership.full import Directory, FullMembershipView
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.workload.senders import (
    OnOffArrivals,
    PeriodicArrivals,
    PoissonArrivals,
    Sender,
)


def test_periodic_intervals():
    arr = PeriodicArrivals(4.0)
    rng = random.Random(1)
    assert arr.next_interval(rng) == 0.25
    with pytest.raises(ValueError):
        PeriodicArrivals(0)


def test_poisson_intervals_mean():
    arr = PoissonArrivals(10.0)
    rng = random.Random(1)
    samples = [arr.next_interval(rng) for _ in range(5000)]
    assert sum(samples) / len(samples) == pytest.approx(0.1, rel=0.1)


def test_onoff_runs_only_during_on_phases():
    arr = OnOffArrivals(rate=2.0, on=1.0, off=3.0)
    rng = random.Random(1)
    # rate 2 in a 1s on-phase: two arrivals fit, then the off gap
    assert arr.next_interval(rng) == pytest.approx(0.5)
    assert arr.next_interval(rng) == pytest.approx(0.5)
    assert arr.next_interval(rng) == pytest.approx(3.5)  # crosses the off phase


def test_onoff_with_zero_off_is_periodic():
    arr = OnOffArrivals(rate=4.0, on=1.0, off=0.0)
    rng = random.Random(1)
    for _ in range(10):
        assert arr.next_interval(rng) == pytest.approx(0.25)


def test_onoff_validation():
    with pytest.raises(ValueError):
        OnOffArrivals(0, 1, 1)
    with pytest.raises(ValueError):
        OnOffArrivals(1, 0, 1)
    with pytest.raises(ValueError):
        OnOffArrivals(1, 1, -1)


def make_protocol(sim, kind="lpbcast", rate_limit=5.0):
    directory = Directory(range(4))
    config = SystemConfig(buffer_capacity=16, dedup_capacity=64)
    view = FullMembershipView(directory, 0)
    rng = sim.rngs.stream("p")
    if kind == "lpbcast":
        return LpbcastProtocol(0, config, view, rng)
    return StaticRateLpbcastProtocol(
        0, config, view, rng, rate_limit=rate_limit, max_tokens=1.0
    )


def test_sender_offers_at_configured_rate():
    sim = Simulator(seed=1)
    proto = make_protocol(sim)
    collector = MetricsCollector()
    sender = Sender(sim, "s", proto, PeriodicArrivals(10.0), collector)
    sim.run(until=5.0)
    assert collector.offered.total == pytest.approx(50, abs=2)
    assert collector.admitted.total == collector.offered.total  # baseline admits instantly
    assert len(sender.queue) == 0


def test_sender_queues_when_throttled():
    sim = Simulator(seed=1)
    proto = make_protocol(sim, kind="static", rate_limit=2.0)
    collector = MetricsCollector()
    sender = Sender(sim, "s", proto, PeriodicArrivals(10.0), collector)
    sim.run(until=10.0)
    # admitted tracks the token rate, not the offered rate
    assert collector.admitted.total == pytest.approx(2.0 * 10.0, rel=0.2)
    assert collector.offered.total > collector.admitted.total


def test_sender_bounded_queue_rejects_oldest():
    sim = Simulator(seed=1)
    proto = make_protocol(sim, kind="static", rate_limit=0.5)
    collector = MetricsCollector()
    sender = Sender(
        sim, "s", proto, PeriodicArrivals(20.0), collector, queue_limit=5
    )
    sim.run(until=10.0)
    assert collector.rejected.total > 0
    assert len(sender.queue) <= 5
    # every offer is admitted, still queued, or given up
    assert collector.offered.total == (
        collector.admitted.total + len(sender.queue) + collector.rejected.total
    )


def test_sender_start_stop_window():
    sim = Simulator(seed=1)
    proto = make_protocol(sim)
    collector = MetricsCollector()
    sender = Sender(
        sim, "s", proto, PeriodicArrivals(10.0), collector, start=2.0, stop=4.0
    )
    sim.run(until=10.0)
    assert collector.offered.total == pytest.approx(20, abs=3)
    assert collector.offered.count(0.0, 2.0) == 0
    assert collector.offered.count(4.1, 10.0) == 0


def test_sender_set_rate():
    sim = Simulator(seed=1)
    proto = make_protocol(sim)
    collector = MetricsCollector()
    sender = Sender(sim, "s", proto, PeriodicArrivals(2.0), collector)
    sim.schedule_at(5.0, sender.set_rate, 20.0)
    sim.run(until=10.0)
    low = collector.offered.count(0, 5)
    high = collector.offered.count(5, 10)
    assert high > low * 5
    with pytest.raises(ValueError):
        sender.set_rate(0)


def test_sender_payload_fn():
    sim = Simulator(seed=1)
    proto = make_protocol(sim)
    received = []
    proto._deliver_fn = lambda eid, payload, now: received.append(payload)
    collector = MetricsCollector()
    Sender(
        sim, "s", proto, PeriodicArrivals(5.0), collector,
        payload_fn=lambda seq: f"msg-{seq}",
    )
    sim.run(until=1.0)
    assert received
    assert received[0] == "msg-0"


def test_queue_limit_validated():
    sim = Simulator(seed=1)
    proto = make_protocol(sim)
    with pytest.raises(ValueError):
        Sender(sim, "s", proto, PeriodicArrivals(1.0), MetricsCollector(), queue_limit=0)
