"""Worker lifecycle for the multi-process UDP driver.

Three properties the process driver must hold beyond scenario parity:

* **Deterministic seeded port maps** — the same seed always derives the
  same address book (that is what makes every worker's replicated
  address book coherent), and the attempt salt derives a genuinely
  fresh one after a bind race.
* **Port-collision retry** — a port that is already bound is skipped at
  map time, and a map that loses the probe-to-bind race is rebuilt.
* **Orphan safety** — a worker whose parent disappears (pipe EOF)
  exits on its own, before or during a run; no leaked processes or
  sockets survive the suite.

The shard fold is checked on hand-built reports, without a process;
the merge of the shards' collectors on a short real run.
"""

import dataclasses
import math
import multiprocessing
import socket
import sys
import threading
import time

import pytest

from repro.experiments.harness import spec_for_scenario
from repro.gossip.lpbcast import LpbcastProtocol
from repro.membership.churn import ChurnScript
from repro.runtime.process_cluster import (
    ProcessCluster,
    fold_reports,
    scenario_identities,
    seeded_port_map,
)
from repro.runtime.worker import WorkerConfig, worker_main
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import (
    LiveScenarioReport,
    run_scenario_process,
    smoke_profile,
)


# ----------------------------------------------------------------------
# seeded port maps
# ----------------------------------------------------------------------
def test_port_map_is_deterministic_for_a_seed():
    nodes = list(range(24))
    # probe=False: pure derivation, no environment in the loop
    first = seeded_port_map(nodes, seed=7, probe=False)
    second = seeded_port_map(nodes, seed=7, probe=False)
    assert first == second


def test_port_map_assigns_unique_in_range_ports():
    nodes = list(range(64))
    ports = [port for _, port in seeded_port_map(nodes, seed=3, probe=False).values()]
    assert len(set(ports)) == len(nodes)
    assert all(20000 <= p < 56000 for p in ports)


def test_attempt_salt_derives_a_fresh_map():
    nodes = list(range(16))
    base = seeded_port_map(nodes, seed=7, probe=False)
    retry = seeded_port_map(nodes, seed=7, probe=False, attempt=1)
    assert base != retry  # a re-map after a bind race replays nothing


def test_port_map_skips_an_occupied_port():
    nodes = list(range(8))
    contested = seeded_port_map(nodes, seed=11, probe=False)[0]
    holder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        holder.bind(contested)
        remapped = seeded_port_map(nodes, seed=11, probe=True)
        assert contested not in remapped.values()
        # every port it did hand out is genuinely bindable right now
        for node in nodes:
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                probe.bind(remapped[node])
            finally:
                probe.close()
    finally:
        holder.close()


def test_identities_cover_churn_joiners_and_crash_targets():
    spec = get_scenario("rolling-churn", smoke_profile())
    identities = scenario_identities(spec)
    assert set(range(spec.n_nodes)) <= set(identities)
    for event in spec.churn.sorted_events():
        assert event.node in identities  # future joiners get ports up front


def test_shards_partition_every_identity_exactly_once():
    spec = get_scenario("overload-baseline", smoke_profile())
    cluster = ProcessCluster(spec, n_workers=3)
    shards = cluster.shards(scenario_identities(spec))
    flat = [node for shard in shards for node in shard]
    assert sorted(flat) == scenario_identities(spec)
    assert len(shards) == 3
    assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1


def test_every_shard_hosts_an_initial_member():
    # the fold's delivered min/max is exact only if no shard is joiners only
    spec = get_scenario("rolling-churn", smoke_profile())
    # rolling-churn rejoins old members; add fresh joiners past the range
    joiners = ChurnScript(list(spec.churn.sorted_events()))
    for node in range(spec.n_nodes, 3 * spec.n_nodes):
        joiners.join(spec.duration / 2, node)
    grown = dataclasses.replace(spec, churn=joiners)
    for case in (spec, grown):
        for n_workers in (2, 3, 4):
            cluster = ProcessCluster(case, n_workers=n_workers)
            for shard in cluster.shards(scenario_identities(case)):
                assert any(0 <= node < case.n_nodes for node in shard), shard


# ----------------------------------------------------------------------
# the shard fold
# ----------------------------------------------------------------------
def _shard_report(**counts):
    base = dict(
        scenario="s",
        driver="process",
        n_nodes=4,
        wall_seconds=3.0,
        time_scale=0.1,
        skipped=("1 unrecognised fault window(s): no live lowering",),
        injected=("2 loss window(s): chaos rules at every send",),
    )
    return LiveScenarioReport(**base, **counts)


def test_fold_adds_counts_and_spans_delivered_bounds():
    a = _shard_report(
        offers=10, admitted=6, delivered_total=20, delivered_min=9,
        duplicates_seen=3, chaos_eaten=1, chaos_delayed=2, chaos_oneway_dropped=0,
        decode_errors=0, send_failures=4, bind_errors=1,
    )
    b = _shard_report(
        offers=5, admitted=4, delivered_total=17, delivered_min=7,
        duplicates_seen=2, chaos_eaten=5, chaos_delayed=0, chaos_oneway_dropped=3,
        decode_errors=1, send_failures=0, bind_errors=0,
    )
    folded = fold_reports([a, b], n_workers=2, port_attempts=3)
    assert (folded.offers, folded.admitted, folded.delivered_total) == (15, 10, 37)
    assert folded.delivered_min == 7
    assert folded.duplicates_seen == 5
    assert (folded.chaos_eaten, folded.chaos_delayed, folded.chaos_oneway_dropped) == (6, 2, 3)
    assert (folded.decode_errors, folded.send_failures, folded.bind_errors) == (1, 4, 1)
    assert (folded.n_workers, folded.port_attempts) == (2, 3)
    # the run's identity and coverage come through once, not per shard
    assert (folded.scenario, folded.driver, folded.n_nodes) == ("s", "process", 4)
    assert (folded.wall_seconds, folded.time_scale) == (3.0, 0.1)
    assert folded.injected == a.injected and folded.injected_count == 1
    assert folded.skipped == a.skipped and folded.skipped_count == 1


# ----------------------------------------------------------------------
# end to end, briefly
# ----------------------------------------------------------------------
def test_tiny_run_delivers_and_leaks_nothing():
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(6.0)
    before = len(multiprocessing.active_children())
    report = run_scenario_process(spec)
    assert report.delivered_total > 0
    assert report.skipped_count == 0
    assert report.n_workers >= 2
    assert report.bind_errors == 0
    # every worker joined in teardown; nothing outlives the run
    assert len(multiprocessing.active_children()) <= before


def test_merged_shard_collectors_summarise_the_whole_run():
    # 12 spec s: warm-up 4 and drain 2, so the window [4, 10) is whole
    # buckets and its messages and admissions count alike
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(12.0)
    cluster = ProcessCluster(spec, n_workers=2)
    report = cluster.run()
    metrics = cluster.metrics
    since, until = spec_for_scenario(spec).window
    window = metrics.messages_in_window(since, until)
    assert window
    # every receiver's delivery met its origin's admission in the merge:
    # nothing stays parked, and each window message counts its origin
    assert metrics.unknown_deliveries == 0
    assert not metrics._early
    assert all(record.origin in record.receivers for record in window)
    assert len(window) == metrics.admitted.count(since, until)
    # the merge spans the shards: messages reached nodes on both
    for shard in cluster.shards(scenario_identities(spec)):
        assert any(record.receivers & set(shard) for record in window)
    result = report.result
    assert result.delivery.messages == len(window)
    assert result.offered_rate > 0 and result.input_rate > 0
    # the adaptive gauges, sampled every live round, come through the merge
    for gauge in (result.allowed_rate_total, result.avg_age_mean, result.min_buff_mean):
        assert math.isfinite(gauge)


# ----------------------------------------------------------------------
# orphan safety
# ----------------------------------------------------------------------
def _configured_worker(horizon=30.0):
    """Spawn one real worker process, configured and ready."""
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(horizon)
    identities = scenario_identities(spec)
    port_map = seeded_port_map(identities, spec.seed)
    cfg = WorkerConfig(
        worker_id=0,
        spec=spec,
        nodes=tuple(identities),
        port_map=port_map,
        gossip_period=0.1,
        wall_seconds=horizon * 0.1 / spec.system.gossip_period,
    )
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=worker_main, args=(child_conn,), daemon=True)
    proc.start()
    child_conn.close()
    parent_conn.send(("configure", cfg))
    assert parent_conn.poll(30.0), "worker never answered configure"
    msg = parent_conn.recv()
    assert msg == ("ready", 0), msg
    return proc, parent_conn


def test_worker_exits_when_parent_vanishes_before_start():
    proc, conn = _configured_worker()
    conn.close()  # the parent "crashes" before releasing the barrier
    proc.join(timeout=10.0)
    assert proc.exitcode == 0, "orphaned worker kept waiting at the barrier"


def test_worker_exits_when_parent_vanishes_mid_run():
    proc, conn = _configured_worker()
    conn.send(("start", time.monotonic()))
    time.sleep(0.5)  # genuinely mid-run (wall is ~30s of scaled horizon)
    conn.close()  # parent gone; the watchdog must notice the EOF
    proc.join(timeout=10.0)
    assert proc.exitcode == 0, "orphaned worker outlived its parent"


def test_worker_reports_a_lost_bind_race():
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(6.0)
    identities = scenario_identities(spec)
    port_map = seeded_port_map(identities, spec.seed)
    holder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        holder.bind(port_map[identities[0]])  # steal a port post-probe
        cfg = WorkerConfig(
            worker_id=0,
            spec=spec,
            nodes=tuple(identities),
            port_map=port_map,
            gossip_period=0.1,
            wall_seconds=5.0,
        )
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=worker_main, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        parent_conn.send(("configure", cfg))
        assert parent_conn.poll(30.0)
        msg = parent_conn.recv()
        assert msg[0] == "bind_failed"  # the parent then re-maps and respawns
        proc.join(timeout=10.0)
        assert proc.exitcode == 0
        parent_conn.close()
    finally:
        holder.close()


def test_no_processes_leak_after_a_failed_startup():
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(6.0)
    cluster = ProcessCluster(spec, n_workers=2)
    cluster.BIND_ATTEMPTS = 1
    identities = scenario_identities(spec)
    # hold *every* mapped port of the only attempt so startup must fail
    holders = []
    try:
        port_map = seeded_port_map(identities, spec.seed, probe=False)
        for addr in port_map.values():
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.bind(addr)
                holders.append(sock)
            except OSError:
                sock.close()
        if not holders:
            pytest.skip("could not occupy any mapped port")
        before = len(multiprocessing.active_children())
        # the probing map builder dodges the held ports, so collide the
        # worker directly: probe=False map with ports we already hold
        with pytest.raises(RuntimeError):
            saved = seeded_port_map
            try:
                import repro.runtime.process_cluster as pc

                pc.seeded_port_map = (
                    lambda ids, seed, host="127.0.0.1", attempt=0, **kw: port_map
                )
                cluster.run(wall_seconds=2.0)
            finally:
                pc.seeded_port_map = saved
        assert len(multiprocessing.active_children()) <= before
    finally:
        for sock in holders:
            sock.close()


def test_a_worker_dead_before_ready_fails_at_once_with_its_exit_code(monkeypatch):
    """A worker that dies before ``ready`` (here its entry point exits at
    once, as the spawn re-import of an unguarded script does) is no lost
    port race: one attempt, and the error names the worker's exit code
    and the ``__main__`` guard."""
    import repro.runtime.process_cluster as pc

    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(6.0)
    cluster = ProcessCluster(spec, n_workers=1)
    spawns = []
    spawn = cluster._spawn

    def counting_spawn(port_map, wall):
        spawns.append(port_map)
        spawn(port_map, wall)

    monkeypatch.setattr(cluster, "_spawn", counting_spawn)
    monkeypatch.setattr(pc, "worker_main", sys.exit)  # SystemExit(conn): exit code 1
    before = len(multiprocessing.active_children())
    with pytest.raises(RuntimeError, match=r"worker 0 \(exitcode 1\) died during startup.*__main__"):
        cluster.run(wall_seconds=2.0)
    assert len(spawns) == 1
    assert len(multiprocessing.active_children()) <= before


# ----------------------------------------------------------------------
# failures inside a worker's loop
# ----------------------------------------------------------------------
def test_a_worker_failure_reaches_the_parent(monkeypatch):
    # the worker runs on a thread of this process so the patched
    # protocol reaches it; the parent's collector reads its answer
    def boom(self, messages, now):
        raise RuntimeError("boom")

    monkeypatch.setattr(LpbcastProtocol, "on_receive_batch", boom)
    spec = get_scenario("overload-baseline", smoke_profile()).with_horizon(30.0)
    identities = scenario_identities(spec)
    cfg = WorkerConfig(
        worker_id=0,
        spec=spec,
        nodes=tuple(identities),
        port_map=seeded_port_map(identities, spec.seed),
        gossip_period=0.1,
        wall_seconds=3.0,
    )
    parent_conn, child_conn = multiprocessing.Pipe()
    worker = threading.Thread(target=worker_main, args=(child_conn,))
    worker.start()
    try:
        parent_conn.send(("configure", cfg))
        assert parent_conn.recv() == ("ready", 0)
        parent_conn.send(("start", time.monotonic()))
        cluster = ProcessCluster(spec, n_workers=1)
        cluster._conns = [parent_conn]
        with pytest.raises(RuntimeError, match="worker 0 failed: node .*on_receive_batch raised"):
            cluster._collect(cfg.wall_seconds)
    finally:
        worker.join(timeout=10.0)
        parent_conn.close()
    assert not worker.is_alive()
