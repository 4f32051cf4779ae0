"""The sharded sweep runner: parallelism must not change a single bit."""

import json
import math
import pickle

import pytest

from repro.experiments.harness import RunSpec, run_once
from repro.experiments.sweep import (
    merged_metrics,
    run_specs,
    to_jsonable,
)
from repro.gossip.config import SystemConfig
from repro.metrics.collector import MetricsCollector


def make_spec(seed=0, buffer_capacity=25, sender=0, offered_load=6.0):
    return RunSpec(
        protocol="lpbcast",
        system=SystemConfig(buffer_capacity=buffer_capacity, dedup_capacity=400),
        n_nodes=8,
        sender_ids=(sender,),
        offered_load=offered_load,
        duration=20.0,
        warmup=5.0,
        drain=5.0,
        seed=seed,
    )


SPECS = [make_spec(seed=s, buffer_capacity=20 + 5 * s) for s in range(4)]


# RunResult fields may legitimately be NaN (e.g. drop_age_mean when no
# drops happened), and NaN != NaN; compare through the jsonable form,
# which maps non-finite floats to None.
def same(a, b):
    return to_jsonable(a) == to_jsonable(b)


def test_serial_matches_run_once():
    assert same(run_specs(SPECS, jobs=1), [run_once(s) for s in SPECS])


def test_jobs_do_not_change_results():
    serial = run_specs(SPECS, jobs=1)
    sharded = run_specs(SPECS, jobs=4)
    assert same(serial, sharded)  # same values, same order


def test_single_spec_short_circuits():
    assert same(run_specs([SPECS[0]], jobs=8), [run_once(SPECS[0])])


def test_merged_metrics_across_shards():
    # one sender per shard on distinct origins => disjoint event ids
    specs = [make_spec(seed=5, sender=i) for i in range(3)]
    merged = merged_metrics(specs, jobs=3)
    serial = merged_metrics(specs, jobs=1)
    assert merged.admitted.total == serial.admitted.total
    assert merged.deliveries.total == serial.deliveries.total
    assert set(merged.messages) == set(serial.messages)
    # merged totals are the sum of the individual runs
    singles = [merged_metrics([s], jobs=1) for s in specs]
    assert merged.admitted.total == sum(m.admitted.total for m in singles)


def test_collector_is_picklable():
    collector = merged_metrics([make_spec(seed=1)], jobs=1)
    clone = pickle.loads(pickle.dumps(collector))
    assert clone.deliveries.total == collector.deliveries.total
    assert set(clone.messages) == set(collector.messages)
    some_id = next(iter(collector.messages))
    assert clone.messages[some_id].receivers == collector.messages[some_id].receivers


def test_merge_rejects_colliding_event_ids():
    # independent runs with the SAME sender reuse EventIds for different
    # broadcasts; with differing schedules the collision is detectable
    # and the merge must refuse rather than union unrelated messages
    a = merged_metrics([make_spec(seed=1, sender=0, offered_load=6.0)], jobs=1)
    b = merged_metrics([make_spec(seed=2, sender=0, offered_load=7.3)], jobs=1)
    with pytest.raises(ValueError, match="different broadcasts"):
        a.merge(b)


def test_merge_reconciles_receiver_only_shards():
    # admission observed in one shard, deliveries (parked early) in another
    origin_shard = MetricsCollector(bucket_width=1.0)
    receiver_shard = MetricsCollector(bucket_width=1.0)
    event_id = ("node0", 1)
    origin_shard.on_admitted("node0", event_id, 1.0)
    receiver_shard.on_deliver("node3", event_id, 1.4)
    receiver_shard.on_deliver("node4", event_id, 1.6)
    assert receiver_shard.unknown_deliveries == 2  # parked, not recorded
    origin_shard.merge(receiver_shard)
    record = origin_shard.messages[event_id]
    assert record.receivers == {"node3", "node4"}
    assert origin_shard.deliveries.total == 2
    assert origin_shard.unknown_deliveries == 0


def test_collector_merge_sums_series():
    a = MetricsCollector(bucket_width=1.0)
    b = MetricsCollector(bucket_width=1.0)
    a.on_offered(0, 1.0)
    b.on_offered(1, 1.2)
    b.on_offered(1, 7.5)
    a.merge(b)
    assert a.offered.total == 3
    assert a.offered.count(0.0, 2.0) == 2


def test_jsonable_results_round_trip():
    results = run_specs(SPECS[:2], jobs=1)
    doc = to_jsonable(results)
    text = json.dumps(doc)  # must be strictly serialisable
    parsed = json.loads(text)
    assert parsed[0]["spec"]["n_nodes"] == 8
    assert parsed[0]["output_rate"] == results[0].output_rate


def test_jsonable_sanitises_nan():
    assert to_jsonable(math.nan) is None
    assert to_jsonable({"x": (1, math.inf)}) == {"x": [1, None]}


# ----------------------------------------------------------------------
# per-shard expectation evaluation
# ----------------------------------------------------------------------
def test_run_scenario_checks_sharded_matches_serial():
    from repro.experiments.sweep import run_scenario_checks
    from repro.scenarios.runner import smoke_profile

    names = ["flash-crowd", "slow-receivers", "wan-clustered"]
    profile = smoke_profile()
    serial = run_scenario_checks(names, profile=profile, jobs=1, horizon=12.0)
    sharded = run_scenario_checks(names, profile=profile, jobs=3, horizon=12.0)
    assert [c.scenario for c in serial] == names  # name order preserved
    assert to_jsonable(serial) == to_jsonable(sharded)
    # expectations came from the registry and were evaluated in-shard
    assert all(c.checks for c in serial)
    # flash-crowd's AdaptiveBeatsStatic ran its static companion in-shard
    flash = serial[0]
    assert flash.companion is not None
    assert flash.companion.get("atomicity") is not None
    others = [c for c in serial[1:]]
    assert all(c.companion is None for c in others)
    # capture-only mode (baseline updates) skips companions and checks
    # but distils the identical result
    captured = run_scenario_checks(
        ["flash-crowd"], profile=profile, jobs=1, horizon=12.0, evaluate=False
    )[0]
    assert captured.checks == () and captured.companion is None
    assert to_jsonable(captured.result) == to_jsonable(flash.result)
