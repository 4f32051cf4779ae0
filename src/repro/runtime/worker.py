"""The shard worker process of the multi-process UDP driver.

One worker process hosts a *shard* of a scenario's nodes on the live
host, :class:`~repro.runtime.cluster.ThreadedCluster`, each node bound
to its own real UDP socket from the seeded port map. The parent
(:class:`~repro.runtime.process_cluster.ProcessCluster`) speaks a small
control protocol over a :mod:`multiprocessing` pipe:

* ``("configure", WorkerConfig)`` — the scenario spec, this worker's
  node shard, and the full seeded port map. The worker builds its host,
  which binds every initial member's socket, and replies
  ``("ready", id)`` — or ``("bind_failed", id, reason)`` when a port
  was taken between the parent's probe and our bind (the parent then
  re-derives a whole fresh map and respawns).
* ``("start", at)`` — the start barrier; the host's loop thread starts
  and, from the :func:`time.monotonic` instant ``at`` that every shard
  shares, runs the shard's rounds, feeders and timed conditions for
  ``wall_seconds``.
* ``("result", LiveScenarioReport, MetricsCollector, size_log,
  NetworkStats)`` — sent back when the run completes: the shard's
  report, built by :func:`~repro.scenarios.runner.live_report` exactly
  as the threaded driver builds its own, with the shard's collector,
  group-size log and rule-set counters (``None`` without rules) for the
  parent to merge; or ``("failed", id, reason)`` when something
  raised inside the loop.

Every worker replays the whole schedule: chaos windows mutate its own
rule-set copy, crash/churn events replicate the directory change so
full-membership peer selection stays coherent across processes, and
only the owner of a node stops it (sends to it then vanish into the
void, true UDP semantics) or restarts it on the same mapped port.

Orphan safety: during the run the main thread polls the control pipe —
the parent never sends mid-run, so a readable pipe means abort-or-EOF
and the worker stops at once; before the barrier ``recv`` raises
``EOFError`` if the parent dies, with the same effect. No leaked
processes or sockets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.runtime.cluster import ThreadedCluster

__all__ = ["WorkerConfig", "worker_main"]

PIPE_POLL = 0.2  # seconds between mid-run looks at the control pipe


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one shard worker needs, shipped over the control pipe."""

    worker_id: int
    spec: Any  # a picklable ScenarioSpec
    nodes: tuple  # identities this worker owns (including future joiners)
    port_map: dict  # node id -> (host, port), every identity in the run
    gossip_period: float  # wall seconds per spec round (sets the time scale)
    wall_seconds: float  # run length after the start barrier


def _outlast(conn, cluster: ThreadedCluster, deadline: float) -> bool:
    """Let the run go until ``deadline`` (a :func:`time.monotonic`
    instant); False if the pipe turned readable.

    The parent never sends between the start barrier and our result, so
    anything readable — an explicit abort or the EOF of a dead parent —
    means stop now. A failure inside the loop ends the wait early too.
    """
    while not cluster.failed:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        if conn.poll(min(remaining, PIPE_POLL)):
            return False
    return True


def _run(conn, cfg: WorkerConfig) -> Optional[tuple]:
    """Host the shard through the barrier protocol; the closing message."""
    try:
        cluster = ThreadedCluster.from_scenario(
            cfg.spec,
            gossip_period=cfg.gossip_period,
            transport="udp",
            hosted=cfg.nodes,
            port_map=cfg.port_map,
        )
    except OSError as exc:
        return ("bind_failed", cfg.worker_id, str(exc))
    finished = False
    try:
        conn.send(("ready", cfg.worker_id))
        msg = conn.recv()  # EOFError here: the parent died at the barrier
        if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "start":
            cluster.start(at=msg[1])
            finished = _outlast(conn, cluster, msg[1] + cfg.wall_seconds)
    except (EOFError, OSError):
        pass  # the parent is gone: stop below, report nothing
    try:
        cluster.stop()
    except RuntimeError as exc:
        return ("failed", cfg.worker_id, str(exc))
    if not finished:
        return None
    # lazy: the scenario runner imports the live host
    from repro.scenarios.runner import live_report

    report = live_report(cfg.spec, cluster, "process", cfg.wall_seconds)
    net = None if cluster.chaos is None else cluster.chaos.stats
    return ("result", report, cluster.metrics, cluster.size_log, net)


def worker_main(conn) -> None:
    """Entry point of one shard worker process."""
    try:
        msg = conn.recv()
        if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "configure":
            reply = _run(conn, msg[1])
            if reply is not None:
                conn.send(reply)
    except (EOFError, OSError):
        pass  # parent died; exiting quietly is the whole contract
    finally:
        conn.close()
