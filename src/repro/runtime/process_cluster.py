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
3. releases the **start barrier** and waits out the run, the spec's
   duration at ``gossip_period`` wall seconds per spec round;
4. collects one picklable :class:`WorkerReport` per worker — the
   metrics shard, per-node deliveries, chaos statistics — or raises the
   first worker's ``("failed", id, reason)``; merges the
   :class:`~repro.metrics.collector.MetricsCollector` shards (the
   collector's early-delivery parking reconciles cross-shard
   deliveries against their origin shard's admission records), and
   tears the workers down, escalating join → terminate → kill so no
   process ever outlives the run.

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
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence

from repro.metrics.collector import MetricsCollector
from repro.runtime.cluster import ThreadedCluster
from repro.runtime.transport import ChaosStats
from repro.runtime.worker import WorkerConfig, WorkerReport, worker_main
from repro.sim.faults import CrashWindow
from repro.sim.rng import derive_seed

__all__ = [
    "PORT_RANGE",
    "default_worker_count",
    "seeded_port_map",
    "scenario_identities",
    "ProcessRunResult",
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
    port_range: tuple[int, int] = PORT_RANGE,
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
    lo, hi = port_range
    if hi - lo < len(node_ids):
        raise ValueError(f"port range {port_range} too small for {len(node_ids)} nodes")
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
                f"no free UDP port found for node {node!r} in {port_range}"
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


@dataclass
class ProcessRunResult:
    """The merged outcome of one multi-process run (all shards)."""

    n_workers: int
    wall_seconds: float
    time_scale: float
    offers: int
    admitted: int
    delivered: dict  # node id -> events_delivered (current incarnation)
    duplicates: int
    decode_errors: int
    send_failures: int
    bind_errors: int
    chaos: ChaosStats = field(default_factory=ChaosStats)
    metrics: Optional[MetricsCollector] = None
    port_attempts: int = 1  # seeded maps tried before every worker bound


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
    mp_context:
        :mod:`multiprocessing` start method; ``spawn`` (default) keeps
        the workers genuinely shared-nothing and fork-safe under any
        parent.
    """

    START_TIMEOUT = 60.0  # configure->ready, covers a spawn+import storm
    RESULT_GRACE = 20.0  # extra wall seconds before a worker is a straggler
    BIND_ATTEMPTS = 3  # fresh port maps tried on probe-to-bind races

    def __init__(
        self,
        spec,
        gossip_period: float = 0.1,
        n_workers: Optional[int] = None,
        host: str = "127.0.0.1",
        mp_context: str = "spawn",
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
        self._ctx = multiprocessing.get_context(mp_context)
        self._procs: list = []
        self._conns: list = []

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------
    def shards(self, identities: Sequence) -> list[tuple]:
        """Round-robin identities across workers (spreads senders too)."""
        shards: list[list] = [[] for _ in range(self.n_workers)]
        for index, node in enumerate(sorted(identities)):
            shards[index % self.n_workers].append(node)
        return [tuple(shard) for shard in shards]

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self, wall_seconds: Optional[float] = None) -> ProcessRunResult:
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
            for conn in self._conns:
                conn.send(("start",))
            reports = self._collect(wall)
            return self._merge(reports, wall, attempt + 1)
        finally:
            self._teardown()

    def _spawn(self, port_map: dict, wall: float) -> None:
        for worker_id, nodes in enumerate(self.shards(port_map)):
            parent_conn, child_conn = self._ctx.Pipe()
            config = WorkerConfig(
                worker_id=worker_id,
                n_workers=self.n_workers,
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

    def _collect(self, wall: float) -> list[WorkerReport]:
        deadline = time.monotonic() + wall + self.RESULT_GRACE
        reports: list[WorkerReport] = []
        missing: list[int] = []
        for worker_id, conn in enumerate(self._conns):
            report = None
            remaining = max(0.0, deadline - time.monotonic())
            try:
                if conn.poll(remaining):
                    msg = conn.recv()
                    if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "result":
                        report = msg[1]
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

    def _merge(
        self, reports: list[WorkerReport], wall: float, attempts: int
    ) -> ProcessRunResult:
        result = ProcessRunResult(
            n_workers=self.n_workers,
            wall_seconds=wall,
            time_scale=self.scale,
            offers=0,
            admitted=0,
            delivered={},
            duplicates=0,
            decode_errors=0,
            send_failures=0,
            bind_errors=0,
            port_attempts=attempts,
        )
        for report in sorted(reports, key=lambda r: r.worker_id):
            result.offers += report.offers
            result.admitted += report.admitted
            result.duplicates += report.duplicates
            result.decode_errors += report.decode_errors
            result.send_failures += report.send_failures
            result.bind_errors += report.bind_errors
            result.delivered.update(report.delivered)
            if report.chaos is not None:
                for stat in dataclasses.fields(ChaosStats):
                    setattr(
                        result.chaos,
                        stat.name,
                        getattr(result.chaos, stat.name)
                        + getattr(report.chaos, stat.name),
                    )
            if result.metrics is None:
                result.metrics = report.metrics
            else:
                # cross-shard deliveries parked as "early" in the
                # receiver's shard replay against the origin shard's
                # admission records here
                result.metrics.merge(report.metrics)
        return result

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
