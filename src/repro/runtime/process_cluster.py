"""The shared-nothing multi-process UDP driver's parent coordinator.

:class:`ProcessCluster` runs a scenario across N worker processes, each
hosting a shard of the group on the live host — the same
:class:`~repro.runtime.cluster.ThreadedCluster` the in-process driver
runs, its nodes on one event loop over real UDP sockets
(:mod:`repro.runtime.worker`). The parent:

1. derives a **seeded port map** — every identity the scenario can ever
   name (initial members, churn joiners, crash-window nodes) gets a
   deterministic ``(host, port)`` drawn from
   ``derive_seed(seed, "portmap", attempt)``, with a bind probe per
   candidate so occupied ports are skipped (the collision retry);
2. spawns the workers (``spawn`` context — no inherited state, true
   shared-nothing), ships each its :class:`WorkerConfig` over a control
   pipe, and waits for every ``ready``; a ``bind_failed`` (a port taken
   between probe and bind) tears everything down and retries with a
   fresh map under the next attempt salt;
3. releases the **start barrier**, one :func:`time.monotonic` instant
   every worker's spec clock starts from (so the shards' rounds sit on
   one grid), and waits out the run, the spec's duration at
   ``gossip_period`` wall seconds per spec round;
4. collects one :class:`~repro.scenarios.runner.LiveScenarioReport`
   per worker — its shard's report, built by the same
   :func:`~repro.scenarios.runner.live_report` as the threaded
   driver's — and its collector, or raises the first worker's
   ``("failed", id, reason)``; folds the shards into one report
   (:func:`fold_reports`) whose ``result`` summarises the merged
   collectors, and tears the workers down, escalating join → terminate
   → kill so no process ever outlives the run.

Scenario lowering itself (chaos windows, churn, crash/restart, feeder
pacing) happens *inside* the workers: each host carries the full
schedule and the same seeded chaos vocabulary, so every existing
:class:`~repro.scenarios.spec.ScenarioSpec` condition applies unchanged
across process boundaries. See
:func:`repro.scenarios.runner.run_scenario_process` for the report
surface and ``live_coverage`` for the injected/skipped audit.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
import time
from random import Random
from typing import Optional, Sequence

from repro.runtime.cluster import ThreadedCluster
from repro.runtime.worker import WorkerConfig, worker_main
from repro.sim.faults import CrashWindow
from repro.sim.rng import derive_seed

__all__ = [
    "PORT_RANGE",
    "default_worker_count",
    "seeded_port_map",
    "scenario_identities",
    "fold_reports",
    "ProcessCluster",
]

#: Candidate UDP ports (inclusive-exclusive); high enough to dodge
#: well-known services, low enough to stay inside common ephemeral
#: ranges' floor on Linux (net.ipv4.ip_local_port_range starts at 32768,
#: so the lower half of this window rarely collides at all).
PORT_RANGE = (20000, 56000)


def default_worker_count(n_nodes: Optional[int] = None) -> int:
    """Worker processes to use when the caller does not say: at least 2
    (cross-process UDP must be real even on one core), at most 4 or the
    core count, never more than the group size."""
    workers = min(4, max(2, os.cpu_count() or 1))
    if n_nodes is not None:
        workers = max(1, min(workers, n_nodes))
    return workers


def _port_free(host: str, port: int) -> bool:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        probe.bind((host, port))
        return True
    except OSError:
        return False
    finally:
        probe.close()


def seeded_port_map(
    node_ids: Sequence,
    seed: int,
    host: str = "127.0.0.1",
    attempt: int = 0,
    probe: bool = True,
) -> dict:
    """Deterministically assign every identity a ``(host, port)`` address.

    Candidates are drawn from one RNG seeded by
    ``derive_seed(seed, "portmap", attempt)`` — the same seed and free
    ports always produce the same map, which is what makes worker-side
    address books reproducible. A candidate already assigned, or (with
    ``probe``) currently bound by someone else, is skipped and the next
    draw taken — the port-collision retry. ``attempt`` salts the whole
    stream, so a parent that lost a probe-to-bind race can re-derive a
    completely fresh map rather than replaying the contested one.
    """
    lo, hi = PORT_RANGE
    if hi - lo < len(node_ids):
        raise ValueError(f"port range {PORT_RANGE} too small for {len(node_ids)} nodes")
    rng = Random(derive_seed(seed, "portmap", attempt))
    assigned: dict = {}
    used: set[int] = set()
    for node in node_ids:
        for _ in range(4096):
            port = rng.randrange(lo, hi)
            if port in used:
                continue
            if probe and not _port_free(host, port):
                continue
            used.add(port)
            assigned[node] = (host, port)
            break
        else:
            raise RuntimeError(
                f"no free UDP port found for node {node!r} in {PORT_RANGE}"
            )
    return assigned


def scenario_identities(spec) -> list:
    """Every node identity the scenario can ever name, sorted.

    The port map must cover not just the initial members but any
    identity a churn script joins or a crash window touches later —
    restarts rebind the same mapped port, so the static address book
    every worker holds stays valid for the whole run.
    """
    identities = set(range(spec.n_nodes))
    for event in spec.churn.sorted_events():
        identities.add(event.node)
    for fault in spec.faults.faults:
        if isinstance(fault, CrashWindow):
            identities.update(fault.nodes)
    return sorted(identities)


#: the report counts that add up across shards; the delivered minimum
#: spans the shards, and every other field is the same on each
_SUMMED = (
    "offers",
    "admitted",
    "delivered_total",
    "duplicates_seen",
    "chaos_eaten",
    "chaos_delayed",
    "chaos_oneway_dropped",
    "decode_errors",
    "send_failures",
    "bind_errors",
)


def fold_reports(reports: Sequence, n_workers: int, port_attempts: int):
    """Fold the shards' live reports into the whole run's report.

    Counts add up; the per-node delivered minimum is taken over the
    shards, which is exact because every shard hosts at least one
    initial member (:meth:`ProcessCluster.shards`).
    """
    return dataclasses.replace(
        reports[0],
        **{name: sum(getattr(r, name) for r in reports) for name in _SUMMED},
        delivered_min=min(r.delivered_min for r in reports),
        n_workers=n_workers,
        port_attempts=port_attempts,
    )


class ProcessCluster:
    """Coordinate one scenario run across shard worker processes.

    Parameters
    ----------
    spec:
        A picklable :class:`~repro.scenarios.spec.ScenarioSpec`.
    gossip_period:
        Wall seconds per spec gossip round (default 0.1 s). Every worker
        host runs the protocols, feeders, conditions and chaos in spec
        seconds; this only sets how many wall seconds one spec second
        lasts, exactly like the in-process driver.
    n_workers:
        Worker process count (default :func:`default_worker_count`).
    host:
        Bind address for every node socket (default localhost).
    """

    START_TIMEOUT = 60.0  # configure->ready, covers a spawn+import storm
    RESULT_GRACE = 20.0  # extra wall seconds before a worker is a straggler
    BIND_ATTEMPTS = 3  # fresh port maps tried on probe-to-bind races
    START_LEAD = 0.02  # wall seconds from the barrier's send to spec time 0

    def __init__(
        self,
        spec,
        gossip_period: float = 0.1,
        n_workers: Optional[int] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if gossip_period <= 0:
            raise ValueError("gossip_period must be > 0")
        self.spec = spec
        self.gossip_period = gossip_period
        self.scale = ThreadedCluster.time_scale(spec, gossip_period)
        self.n_workers = (
            default_worker_count(spec.n_nodes)
            if n_workers is None
            else max(1, min(n_workers, spec.n_nodes))
        )
        self.host = host
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list = []
        self._conns: list = []
        self.metrics = None  # the last run's merged collector

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------
    def shards(self, identities: Sequence) -> list[tuple]:
        """Round-robin identities across workers (spreads senders too).

        Dealt in sorted order, so with ``n_workers <= n_nodes`` every
        worker gets at least one of the initial members ``0 .. n_nodes - 1``
        before any later joiner.
        """
        shards: list[list] = [[] for _ in range(self.n_workers)]
        for index, node in enumerate(sorted(identities)):
            shards[index % self.n_workers].append(node)
        return [tuple(shard) for shard in shards]

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self, wall_seconds: Optional[float] = None):
        """Run the scenario across the workers; the folded
        :class:`~repro.scenarios.runner.LiveScenarioReport`."""
        spec = self.spec
        spec.faults.validate()  # before any process exists, like threaded
        wall = spec.duration * self.scale if wall_seconds is None else wall_seconds
        identities = scenario_identities(spec)
        attempt = 0
        try:
            last_failure = ""
            for attempt in range(self.BIND_ATTEMPTS):
                port_map = seeded_port_map(
                    identities, spec.seed, host=self.host, attempt=attempt
                )
                self._spawn(port_map, wall)
                last_failure = self._await_ready()
                if not last_failure:
                    break
                self._teardown()
            else:
                raise RuntimeError(
                    f"workers failed to start after {self.BIND_ATTEMPTS} "
                    f"port-map attempts: {last_failure}"
                )
            at = time.monotonic() + self.START_LEAD
            for conn in self._conns:
                conn.send(("start", at))
            shards = self._collect(wall)
        finally:
            self._teardown()
        report = fold_reports([r for r, _, _ in shards], self.n_workers, attempt + 1)
        # every worker replays the whole schedule, so any shard's
        # group-size log is the group's
        metrics, size_log = shards[0][1], shards[0][2]
        for _, collector, _ in shards[1:]:
            metrics.merge(collector)
        self.metrics = metrics
        # lazy: the harness pulls in the simulator, which workers never need
        from repro.experiments.harness import spec_for_scenario, summarise

        result = summarise(
            spec_for_scenario(spec),
            metrics,
            size_log,
            report.duplicates_seen,
            report.delivered_total,
        )
        return dataclasses.replace(report, result=result)

    def _spawn(self, port_map: dict, wall: float) -> None:
        for worker_id, nodes in enumerate(self.shards(port_map)):
            parent_conn, child_conn = self._ctx.Pipe()
            config = WorkerConfig(
                worker_id=worker_id,
                spec=self.spec,
                nodes=nodes,
                port_map=dict(port_map),
                gossip_period=self.gossip_period,
                wall_seconds=wall,
            )
            # daemon: a hard-killed parent still cannot leave a worker
            # behind at interpreter exit; the pipe watchdog covers the
            # rest (SIGKILL skips atexit, but EOF on the pipe does not)
            proc = self._ctx.Process(
                target=worker_main,
                args=(child_conn,),
                name=f"repro-shard-{worker_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()  # the child's copy is the live end now
            parent_conn.send(("configure", config))
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _await_ready(self) -> str:
        """Empty string when every worker bound; else the failure reason."""
        deadline = time.monotonic() + self.START_TIMEOUT
        for worker_id, conn in enumerate(self._conns):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(max(0.0, remaining)):
                return f"worker {worker_id} not ready within {self.START_TIMEOUT}s"
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return f"worker {worker_id} died during startup"
            if not isinstance(msg, tuple) or not msg:
                return f"worker {worker_id} sent garbage: {msg!r}"
            if msg[0] == "bind_failed":
                return f"worker {worker_id} lost a bind race: {msg[2]}"
            if msg[0] != "ready":
                return f"worker {worker_id} sent unexpected {msg[0]!r}"
        return ""

    def _collect(self, wall: float) -> list:
        """Every worker's ``(report, collector, size log)``."""
        deadline = time.monotonic() + wall + self.RESULT_GRACE
        reports: list = []
        missing: list[int] = []
        for worker_id, conn in enumerate(self._conns):
            report = None
            remaining = max(0.0, deadline - time.monotonic())
            try:
                if conn.poll(remaining):
                    msg = conn.recv()
                    if isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "result":
                        report = msg[1:]
                    elif isinstance(msg, tuple) and len(msg) == 3 and msg[0] == "failed":
                        raise RuntimeError(f"worker {msg[1]} failed: {msg[2]}")
            except (EOFError, OSError):
                pass
            if report is None:
                missing.append(worker_id)
            else:
                reports.append(report)
        if missing:
            raise RuntimeError(
                f"worker(s) {missing} never reported a result "
                f"(wall {wall:.1f}s + {self.RESULT_GRACE:.0f}s grace)"
            )
        return reports

    def _teardown(self) -> None:
        """Close the pipes (workers exit on EOF), then escalate."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        self._procs.clear()
        self._conns.clear()
