"""One repetition of a workload, measured.

Everything is driven through public entry points (``build_cluster``,
``SimCluster.run``, ``analyze_delivery``, ``run_scenario_threaded``,
``run_scenario_process``) reached as *module attributes* at call time,
so the wrappers :mod:`trace` installs are picked up and the runs survive
the refactors the ROADMAP plans.

A simulated repetition reports three kinds of number:

* host costs (``setup_s``, ``wall_s``, ``cpu_s``) — noisy, compared by
  bound;
* simulated statistics (``delivered_share``, ``atomicity``,
  ``input_rate``, ``latency_vs``) — functions of the seed alone, so a
  change meant only to speed up the host must leave them bit-identical;
* the fingerprint ``(admitted, deliveries, drops_overflow,
  duplicate_deliveries, net.sent, net.delivered)`` — exact counts that
  let two commits be compared without tolerance.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from contextlib import nullcontext

import repro.experiments.harness as harness
import repro.metrics.delivery as delivery
import repro.scenarios.runner as runner
from repro.sim.faults import CrashWindow

import workloads

KIB_PER_MIB = 1024.0  # ru_maxrss is in KiB on Linux


def cpu_split() -> tuple[float, float]:
    """``(this process, reaped children)`` user+sys CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident size: this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / KIB_PER_MIB


# ----------------------------------------------------------------------
# simulated workloads
# ----------------------------------------------------------------------
def sim_rep(name: str, seed: int, scale: float, tracer=None) -> dict:
    """Build, run (stepped one gossip period at a time) and analyse once."""
    gc.collect()
    with tracer.root() if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        spec = workloads.build(name, seed, scale)
        cluster = harness.build_cluster(spec)
        t1 = time.perf_counter()
        try:
            own1, kids1 = cpu_split()
            period = spec.system.gossip_period
            rounds = int(spec.duration / period)
            stamps = [time.perf_counter()]
            for k in range(1, rounds + 1):
                cluster.run(until=k * period)
                stamps.append(time.perf_counter())
            cluster.run(until=spec.duration)
            t2 = time.perf_counter()
            own2, kids2 = cpu_split()
            result = _analyse(cluster, spec)
        finally:
            cluster.close()
        t3 = time.perf_counter()
    first = int(spec.warmup / period)
    result.update(
        setup_s=t1 - t0,
        wall_s=t2 - t1,
        cpu_s=(own2 - own1) + (kids2 - kids1),
        rep_wall_s=t3 - t0,
        node_rounds=spec.n_nodes * rounds,
        round_ms=[(b - a) * 1e3 for a, b in zip(stamps[first:], stamps[first + 1 :])],
    )
    if tracer is not None:
        result["traced_wall_s"] = tracer.root_wall
    return result


def _analyse(cluster, spec) -> dict:
    since, until = spec.window
    m = cluster.metrics
    net = cluster.network.stats
    # under crash/churn each message is judged against the group it was
    # broadcast into, exactly as the experiment harness does
    moving = spec.churn is not None or (
        spec.faults is not None
        and any(isinstance(f, CrashWindow) for f in spec.faults.faults)
    )
    records = m.messages_in_window(since, until)
    stats = delivery.analyze_delivery(
        records,
        cluster.group_size,
        size_at=cluster.group_size_at if moving else None,
    )
    if moving:
        attempted = sum(max(1, cluster.group_size_at(r.broadcast_time)) for r in records)
    else:
        attempted = len(records) * cluster.group_size
    undelivered = max(0, attempted - sum(r.receiver_count for r in records))
    protocol_stats = [node.protocol.stats for node in cluster.nodes.values()]
    duplicates = sum(s.duplicates_seen for s in protocol_stats)
    fresh = sum(s.events_delivered - s.broadcasts for s in protocol_stats)
    offered = m.offered.count()
    admitted = m.admitted.count()
    vector_engaged = cluster.vector is not None
    checks = []
    if spec.dispatch == "vector" and not vector_engaged:
        checks.append(f"vector lane did not engage: {harness.vector_fallback_reason(spec)}")
    if not records:
        checks.append("no broadcast admitted in the measurement window")
    if net.delivered > net.sent:
        checks.append("network delivered more messages than were sent")
    if not 0.0 < stats.avg_receiver_fraction <= 1.0:
        checks.append(f"delivered share {stats.avg_receiver_fraction!r} outside (0, 1]")
    return {
        "fingerprint": (
            int(admitted),
            int(m.deliveries.count()),
            int(m.drops_overflow.count()),
            int(m.duplicate_deliveries),
            int(net.sent),
            int(net.delivered),
        ),
        "delivered_share": stats.avg_receiver_fraction,
        "atomicity": stats.atomicity,
        "latency_vs": stats.mean_latency,
        "input_rate": m.admitted.rate(since, until),
        "pairs_attempted": attempted,
        "pairs_undelivered": undelivered,
        "checks": checks,
        "counts": {
            "sim.engine.heap_events": cluster.sim.events_dispatched,
            "sim.network.sent": net.sent,
            "sim.network.dropped": net.lost
            + net.partitioned
            + net.oneway_blocked
            + net.link_lost
            + net.capped
            + net.no_route,
            "sim.network.payload_items": net.payload_items,
            "sim.network.delivered": net.delivered,
            "gossip.lpbcast.duplicate_ratio": (
                duplicates / (duplicates + fresh) if duplicates + fresh else 0.0
            ),
            "gossip.buffer.evictions": int(m.drops_overflow.count()),
            "gossip.buffer.age_outs": int(m.drops_age_out.count()),
            # the admission ratio is core/'s: where core/ does not run it is 0
            "core.machinery.admit_ratio": (
                admitted / offered if spec.protocol == "adaptive" and offered else 0.0
            ),
        },
    }


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------
def live_rep(name: str, seed: int, scale: float, tracer=None) -> dict:
    """One paced run of the live spec on the threaded or process driver."""
    gc.collect()
    spec = workloads.build(name, seed, scale)
    own0, kids0 = cpu_split()
    with tracer.root() if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        if name == "live-threaded":
            report = runner.run_scenario_threaded(
                spec, gossip_period=workloads.LIVE_GOSSIP_PERIOD
            )
        else:
            report = runner.run_scenario_process(
                spec,
                gossip_period=workloads.LIVE_GOSSIP_PERIOD,
                workers=workloads.LIVE_WORKERS,
            )
        t1 = time.perf_counter()
    own1, kids1 = cpu_split()
    n = spec.n_nodes
    rounds = int(spec.duration / spec.system.gossip_period)
    attempted = report.admitted * n
    undelivered = max(0, attempted - report.delivered_total)
    due = sum(math.floor(s.rate * spec.duration) for s in spec.senders)
    fresh = report.delivered_total - report.admitted  # deliveries that came by gossip
    checks = []
    if report.skipped_count:
        checks.append(f"{report.skipped_count} condition(s) skipped: {report.skipped}")
    if getattr(report, "decode_errors", 0):
        checks.append(f"{report.decode_errors} datagram(s) failed to decode")
    if report.delivered_min <= 0:
        checks.append("a member delivered nothing")
    if report.admitted <= 0:
        checks.append("no broadcast admitted")
    wall = t1 - t0
    return {
        "setup_s": wall - report.wall_seconds,
        "wall_s": wall,
        "cpu_s": (own1 - own0) + (kids1 - kids0),
        "rep_wall_s": wall,
        "node_rounds": n * rounds,
        "datagrams": n * rounds * spec.system.fanout,
        "delivered_share": report.delivered_total / attempted if attempted else 0.0,
        "input_rate": report.admitted / spec.duration,
        "pairs_attempted": attempted,
        "pairs_undelivered": undelivered,
        "checks": checks,
        "own_cpu_s": own1 - own0,
        "kids_cpu_s": kids1 - kids0,
        "counts": {
            "gossip.lpbcast.duplicate_ratio": (
                report.duplicates_seen / (report.duplicates_seen + fresh)
                if report.duplicates_seen + fresh
                else 0.0
            ),
            "scenarios.runner.offer_shortfall": max(0.0, 1.0 - report.offers / due) if due else 0.0,
            "runtime.process_cluster.port_attempts": getattr(report, "port_attempts", 0),
            "runtime.worker.send_failures": getattr(report, "send_failures", 0),
            "runtime.worker.decode_errors": getattr(report, "decode_errors", 0),
        },
    }


def rep(name: str, seed: int, scale: float, tracer=None) -> dict:
    if workloads.kind(name) == "sim":
        return sim_rep(name, seed, scale, tracer)
    return live_rep(name, seed, scale, tracer)
