"""Tests for the metrics collector."""

import math

from repro.gossip.events import EventId
from repro.metrics.collector import MetricsCollector


def eid(n):
    return EventId("s", n)


def test_admission_creates_record():
    m = MetricsCollector()
    m.on_admitted("s", eid(1), 1.0)
    rec = m.messages[eid(1)]
    assert rec.origin == "s"
    assert rec.broadcast_time == 1.0
    assert m.admitted.total == 1


def test_delivery_counts_unique_receivers():
    m = MetricsCollector()
    m.on_admitted("s", eid(1), 1.0)
    m.on_deliver("a", eid(1), 1.5)
    m.on_deliver("b", eid(1), 1.6)
    m.on_deliver("a", eid(1), 1.7)  # duplicate
    rec = m.messages[eid(1)]
    assert rec.receivers == {"a", "b"}
    assert rec.duplicate_deliveries == 1
    assert m.duplicate_deliveries == 1
    assert m.deliveries.total == 2
    assert rec.first_delivery == 1.5
    assert rec.last_delivery == 1.6


def test_early_delivery_replayed_on_admission():
    """The sender's own in-broadcast delivery precedes on_admitted."""
    m = MetricsCollector()
    m.on_deliver("s", eid(1), 0.9)
    assert m.unknown_deliveries == 1
    m.on_admitted("s", eid(1), 1.0)
    assert m.unknown_deliveries == 0
    assert "s" in m.messages[eid(1)].receivers


def test_never_admitted_delivery_stays_unknown():
    m = MetricsCollector()
    m.on_deliver("a", eid(9), 1.0)
    assert m.unknown_deliveries == 1
    assert eid(9) not in m.messages


def test_drop_classification():
    m = MetricsCollector()
    m.on_drop("a", eid(1), 7, "overflow", 1.0)
    m.on_drop("a", eid(2), 9, "age_out", 1.1)
    m.on_drop("a", eid(3), 3, "resize", 1.2)
    assert m.drops_overflow.total == 2  # overflow + resize
    assert m.drops_age_out.total == 1
    assert m.drop_ages == [7, 3]
    assert m.mean_drop_age() == 5.0


def test_offered_rejected_counters():
    m = MetricsCollector()
    m.on_offered("s", 1.0)
    m.on_offered("s", 1.5)
    m.on_rejected("s", 1.5)
    assert m.offered.total == 2
    assert m.rejected.total == 1


def test_gauges_per_node():
    m = MetricsCollector()
    m.sample_gauge("rate", "a", 1.0, 10.0)
    m.sample_gauge("rate", "b", 1.0, 20.0)
    m.sample_gauge("other", "a", 1.0, 99.0)
    assert m.gauge("rate", "a").mean() == 10.0
    assert m.gauge("rate", "missing") is None
    assert set(m.gauge_nodes("rate")) == {"a", "b"}
    assert m.gauge_mean("rate") == 15.0
    assert m.gauge_mean_over("rate", ["a"]) == 10.0
    assert m.gauge_mean_over("rate", ["a", "b"]) == 15.0
    assert math.isnan(m.gauge_mean_over("rate", ["zz"]))
    assert math.isnan(m.gauge_mean("nope"))


def test_messages_in_window():
    m = MetricsCollector()
    m.on_admitted("s", eid(1), 1.0)
    m.on_admitted("s", eid(2), 5.0)
    m.on_admitted("s", eid(3), 9.0)
    window = m.messages_in_window(2.0, 8.0)
    assert [r.broadcast_time for r in window] == [5.0]


def test_mean_drop_age_windowed():
    m = MetricsCollector()
    m.on_drop("a", eid(1), 4, "overflow", 1.0)
    m.on_drop("a", eid(2), 8, "overflow", 10.0)
    assert m.mean_drop_age(0, 5) == 4.0
    assert m.mean_drop_age() == 6.0


def test_gauges_indexed_per_name():
    """Per-name gauge lookups touch only that name's bucket."""
    c = MetricsCollector()
    for node in range(4):
        c.sample_gauge("allowed_rate", node, 1.0, float(node))
        c.sample_gauge("buffer_len", node, 1.0, 10.0 + node)
    assert c.gauge_nodes("allowed_rate") == [0, 1, 2, 3]
    assert c.gauge_nodes("buffer_len") == [0, 1, 2, 3]
    assert c.gauge_nodes("missing") == []
    assert c.gauge("allowed_rate", 2).mean(0, 2) == 2.0
    assert c.gauge("allowed_rate", 99) is None
    assert c.gauge("missing", 0) is None
    assert c.gauge_mean("allowed_rate", 0, 2) == 1.5
    assert c.gauge_mean_over("buffer_len", [1, 3], 0, 2) == 12.0


def test_gauge_index_survives_pickle_and_merge():
    import pickle

    a = MetricsCollector()
    a.sample_gauge("avg_age", "n1", 0.5, 3.0)
    a.sample_gauge("avg_age", "n2", 0.5, 5.0)
    b = pickle.loads(pickle.dumps(MetricsCollector()))
    b.sample_gauge("avg_age", "n2", 1.5, 7.0)
    b.sample_gauge("min_buff", "n3", 1.5, 40.0)
    a.merge(pickle.loads(pickle.dumps(b)))
    assert set(a.gauge_nodes("avg_age")) == {"n1", "n2"}
    assert a.gauge_nodes("min_buff") == ["n3"]
    # n2's series holds samples from both shards
    series = a.gauge("avg_age", "n2")
    assert series.mean(0.0, 1.0) == 5.0
    assert series.mean(1.0, 2.0) == 7.0


def test_bulk_drops_record_what_per_drop_calls_record():
    """One on_drop_bulk call per (reason, instant) leaves the collector
    exactly as the loop of on_drop calls would: series, drop-age gauge
    samples in order, and the drop_ages list."""
    calls = [
        ("overflow", 2.5, [3, 1, 4, 1]),
        ("resize", 2.5, [5]),
        ("age_out", 2.5, [9, 11, 10]),
        ("overflow", 7.25, [2, 6]),
        ("obsolete", 7.25, [1, 2]),
        ("overflow", 8.0, []),
    ]
    for aggregate in (False, True):
        loop = MetricsCollector(bucket_width=2.0, aggregate=aggregate)
        bulk = MetricsCollector(bucket_width=2.0, aggregate=aggregate)
        for reason, time, ages in calls:
            for i, age in enumerate(ages):
                loop.on_drop("n", eid(i), age, reason, time)
            bulk.on_drop_bulk(reason, time, ages)
        assert vars(bulk).keys() == vars(loop).keys()
        for name, value in vars(loop).items():
            mine = getattr(bulk, name)
            assert type(mine) is type(value), name
            assert getattr(mine, "__dict__", mine) == getattr(value, "__dict__", value), name
        assert bulk.drop_ages == [3, 1, 4, 1, 5, 2, 6]
