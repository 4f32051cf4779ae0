"""Integration: bit-for-bit reproducibility of simulations."""

from repro.core.config import AdaptiveConfig
from repro.gossip.config import SystemConfig
from repro.workload.cluster import SimCluster


def run(seed, protocol="adaptive"):
    cluster = SimCluster(
        n_nodes=12,
        system=SystemConfig(buffer_capacity=30, dedup_capacity=500),
        protocol=protocol,
        adaptive=AdaptiveConfig(age_critical=4.5),
        seed=seed,
    )
    cluster.add_senders([0, 6], rate_each=8.0)
    cluster.run(until=40.0)
    return cluster


def fingerprint(cluster):
    m = cluster.metrics
    deliveries = tuple(
        sorted(
            (eid, rec.broadcast_time, tuple(sorted(map(repr, rec.receivers))))
            for eid, rec in m.messages.items()
        )
    )
    return (
        m.admitted.total,
        m.deliveries.total,
        m.drops_overflow.total,
        tuple(m.drop_ages),
        deliveries,
    )


def test_same_seed_same_run():
    assert fingerprint(run(7)) == fingerprint(run(7))


def test_different_seed_different_run():
    assert fingerprint(run(7)) != fingerprint(run(8))


def test_same_seed_same_event_count():
    a, b = run(3), run(3)
    assert a.sim.events_dispatched == b.sim.events_dispatched


def test_baseline_deterministic_too():
    assert fingerprint(run(5, protocol="lpbcast")) == fingerprint(
        run(5, protocol="lpbcast")
    )


def test_gauge_series_identical():
    a, b = run(9), run(9)
    for node_id in range(12):
        ga = a.metrics.gauge("allowed_rate", node_id)
        gb = b.metrics.gauge("allowed_rate", node_id)
        assert list(ga.series(0, 40)) == list(gb.series(0, 40))
