"""Execution-core benchmark: batched vs per-node-timer round dispatch.

Runs a large lpbcast dissemination (1000+ nodes, 60 virtual seconds by
default) under both dispatch modes of :class:`SimCluster`, checks the
runs are byte-identical, and writes machine-readable results — node-count
scaling plus hot-path micro-timings — to ``BENCH_core.json`` at the repo
root so the performance trajectory is comparable across PRs.

The scenario is the regime large-scale gossip analyses use: a
round-synchronous schedule (fixed phase, no jitter), fanout ~log2(n), a
constant-latency lossless LAN and a light broadcast stream. The batched
path fires each cluster round from one heap pop and multicasts each
node's fanout in one network call; the per-node path is the seed's
timer-per-node, send-per-emission implementation, kept as the reference.

A second ``mega_scaling`` tier runs the same scenario at the paper's
fanout (4) through the columnar vector executor
(:mod:`repro.sim.vector`, ``--dispatch vector``) at 10k and 50k nodes,
with a one-shot batched run at the smallest size proving the columnar
path byte-identical in-regime.

A ``process_scaling`` tier runs the bench regime on the two *live*
drivers — threaded and multi-process UDP — and reports nodes-per-core
(group size over CPU utilization at the scaled clock), the number that
sizes worker counts on real deployments.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py            # full (writes BENCH_core.json)
    PYTHONPATH=src python benchmarks/bench_core.py --quick    # n=100 smoke, print only
    PYTHONPATH=src python benchmarks/bench_core.py --quick --out q.json   # CI artifact
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import platform
import sys
import time
import timeit

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.gossip.config import SystemConfig  # noqa: E402
from repro.sim.faults import FaultScript  # noqa: E402
from repro.sim.network import ConstantLatency  # noqa: E402
from repro.workload.cluster import SimCluster  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def build(n_nodes: int, dispatch: str) -> SimCluster:
    fanout = max(4, round(math.log2(n_nodes)))
    system = SystemConfig(
        fanout=fanout,
        gossip_period=1.0,
        buffer_capacity=30,
        dedup_capacity=max(4000, 8 * n_nodes),
        max_age=8,
        round_jitter=0.0,
        round_phase=0.0,
    )
    cluster = SimCluster(
        n_nodes=n_nodes,
        system=system,
        protocol="lpbcast",
        seed=2003,
        latency=ConstantLatency(0.01),
        dispatch=dispatch,
        sample_gauges=False,
    )
    cluster.add_senders([0, n_nodes // 2], rate_each=0.5)
    return cluster


def build_mega(n_nodes: int, dispatch: str) -> SimCluster:
    """The mega-tier regime: the bench scenario at the paper's fanout.

    Differs from :func:`build` in exactly the ways a 10k+-node run
    needs: fanout stays at the paper's 4 (the log2 formula would
    triple per-round work without changing what the tier measures),
    and the collector runs aggregate-only (per-event receiver counts,
    no per-node sets or gauges) so memory stays flat in n.
    """
    system = SystemConfig(
        fanout=4,
        gossip_period=1.0,
        buffer_capacity=30,
        dedup_capacity=max(4000, 8 * n_nodes),
        max_age=8,
        round_jitter=0.0,
        round_phase=0.0,
    )
    cluster = SimCluster(
        n_nodes=n_nodes,
        system=system,
        protocol="lpbcast",
        seed=2003,
        latency=ConstantLatency(0.01),
        dispatch=dispatch,
        sample_gauges=False,
        aggregate_metrics=True,
    )
    cluster.add_senders([0, n_nodes // 2], rate_each=0.5)
    return cluster


def fingerprint(cluster: SimCluster) -> tuple:
    m = cluster.metrics
    return (
        m.admitted.total,
        m.deliveries.total,
        m.drops_overflow.total,
        m.duplicate_deliveries,
        cluster.network.stats.sent,
        cluster.network.stats.delivered,
    )


def run_one(
    n_nodes: int,
    dispatch: str,
    duration: float,
    repeats: int = 3,
    builder=build,
) -> dict:
    """Best-of-``repeats`` wall time (identical runs; min rejects noise).

    Garbage from previous measurements is collected before each timed
    run so a large earlier cluster can't tax this one's generational
    sweeps — the timed region then only pays for its own allocation.
    """
    wall = math.inf
    cluster = None
    for _ in range(repeats):
        del cluster
        cluster = builder(n_nodes, dispatch)
        gc.collect()
        t0 = time.perf_counter()
        cluster.run(until=duration)
        wall = min(wall, time.perf_counter() - t0)
    return {
        "n_nodes": n_nodes,
        "dispatch": dispatch,
        "virtual_seconds": duration,
        "wall_seconds": round(wall, 4),
        "heap_events": cluster.sim.events_dispatched,
        "deliveries": cluster.metrics.deliveries.total,
        "_fingerprint": fingerprint(cluster),
    }


def run_mega(sizes: list, duration: float) -> dict:
    """The ``mega_scaling`` tier: columnar vector dispatch at 10k+ nodes.

    Every size runs under ``--dispatch vector``; the smallest size also
    runs once under ``batched`` dispatch (one repeat — at this scale a
    single per-node run costs more than the whole vector sweep) both as
    the in-regime speedup denominator and as a live parity check: the
    two runs must be byte-identical or the tier is invalid.
    """
    from repro.sim.vector import HAVE_NUMPY

    entries = []
    parity_n = min(sizes)
    speedup = None
    for n in sizes:
        row = run_one(n, "vector", duration, repeats=2, builder=build_mega)
        vec_fp = row.pop("_fingerprint")
        entries.append(row)
        print(
            f"mega n={n:6d}  vector {row['wall_seconds']:7.2f}s "
            f"({row['deliveries']:.0f} deliveries)"
        )
        if n == parity_n:
            batched = run_one(n, "batched", duration, repeats=1, builder=build_mega)
            if batched.pop("_fingerprint") != vec_fp:
                raise SystemExit(
                    f"vector dispatch diverged from batched at n={n}: "
                    "mega tier invalid"
                )
            entries.append(batched)
            speedup = round(batched["wall_seconds"] / row["wall_seconds"], 3)
            print(
                f"mega n={n:6d}  batched {batched['wall_seconds']:6.2f}s "
                f"(parity OK, vector speedup {speedup:.1f}x)"
            )
    return {
        "regime": {
            "protocol": "lpbcast",
            "round_synchronous": True,
            "latency": "constant 10ms",
            "buffer_capacity": 30,
            "senders": 2,
            "offered_load_msgs_per_s": 1.0,
            "fanout": 4,
            "aggregate_metrics": True,
        },
        "numpy": HAVE_NUMPY,
        "entries": entries,
        "vector_vs_batched_same_n": speedup,
    }


def _chaos_faults(name: str, n: int, d: float) -> FaultScript:
    """The four faulted bench regimes, shaped like their library
    namesakes but built directly so the tier stays self-contained and
    size-parametric (the flaky link set is reduced: a library-sized
    0.2 fraction at 10k nodes would spend the bench on matrix setup,
    not simulation)."""
    if name == "correlated-loss":
        return FaultScript().loss(0.45 * d, 0.2 * d, 0.75)
    if name == "partition-heal":
        half = n // 2
        return FaultScript().partition(
            0.3 * d, 0.2 * d, [list(range(half)), list(range(half, n))]
        )
    if name == "catastrophic-crash":
        victims = tuple(range(n - max(1, n // 4), n))
        return FaultScript().crash(
            0.4 * d, victims, restart_at=float(round(0.7 * d))
        )
    if name == "flaky-edge":
        links = {}
        for i in range(96):
            dst = (i * 37 + 11) % n
            if dst != i:
                links[(i, dst)] = 0.6
        # the overlapping Bernoulli window forces the sequential loss
        # path (link loss + global loss at once) — the lane's worst case
        return FaultScript().link_loss(0.3 * d, 0.3 * d, links).loss(
            0.35 * d, 0.2 * d, 0.2
        )
    raise ValueError(name)


def run_chaos(n_nodes: int, duration: float) -> dict:
    """The ``mega_chaos`` tier: faulted scenarios on the columnar lane.

    Each scenario runs under vector dispatch and once under batched
    dispatch at the same size — the batched run is both the speedup
    denominator and a live parity check (byte-identical or the tier is
    invalid)."""
    from repro.sim.vector import HAVE_NUMPY

    names = [
        "correlated-loss",
        "partition-heal",
        "catastrophic-crash",
        "flaky-edge",
    ]
    entries = []
    ratios = {}
    for name in names:

        def builder(n: int, dispatch: str, _name=name) -> SimCluster:
            cluster = build_mega(n, dispatch)
            cluster.apply_faults(_chaos_faults(_name, n, duration))
            return cluster

        vec = run_one(n_nodes, "vector", duration, repeats=2, builder=builder)
        bat = run_one(n_nodes, "batched", duration, repeats=1, builder=builder)
        if vec.pop("_fingerprint") != bat.pop("_fingerprint"):
            raise SystemExit(
                f"vector dispatch diverged from batched on faulted "
                f"scenario {name!r} at n={n_nodes}: mega_chaos tier invalid"
            )
        vec["scenario"] = name
        bat["scenario"] = name
        entries.extend([vec, bat])
        ratio = round(bat["wall_seconds"] / vec["wall_seconds"], 3)
        ratios[name] = ratio
        print(
            f"chaos {name:20s} n={n_nodes:6d}  vector "
            f"{vec['wall_seconds']:7.2f}s  batched {bat['wall_seconds']:7.2f}s  "
            f"(parity OK, speedup {ratio:.1f}x)"
        )
    return {
        "regime": {
            "protocol": "lpbcast",
            "round_synchronous": True,
            "latency": "constant 10ms",
            "buffer_capacity": 30,
            "senders": 2,
            "offered_load_msgs_per_s": 1.0,
            "fanout": 4,
            "aggregate_metrics": True,
        },
        "numpy": HAVE_NUMPY,
        "n_nodes": n_nodes,
        "entries": entries,
        "vector_vs_batched": ratios,
    }


def _live_spec(n_nodes: int, duration: float):
    """The bench regime as a ScenarioSpec for the live (wall-clock)
    drivers: same fanout/buffer shape as :func:`build`, light two-sender
    load, no faults — what's measured is the runtime substrate, not the
    conditions. Round phase/jitter stay at the live defaults (desync'd
    rounds), matching how the drivers run scenarios."""
    from repro.scenarios.spec import ScenarioSpec, SenderSpec

    return ScenarioSpec(
        name="bench-live",
        summary="the dispatch benchmark regime, on a live driver",
        n_nodes=n_nodes,
        protocol="lpbcast",
        system=SystemConfig(
            fanout=max(4, round(math.log2(n_nodes))),
            gossip_period=1.0,
            buffer_capacity=30,
            dedup_capacity=max(4000, 8 * n_nodes),
            max_age=8,
        ),
        senders=(SenderSpec(0, 1.0), SenderSpec(n_nodes // 2, 1.0)),
        duration=duration,
        warmup=0.0,
        drain=0.0,
        seed=2003,
    )


def run_process_tier(sizes: list, spec_seconds: float) -> dict:
    """The ``process_scaling`` tier: nodes-per-core, process vs threaded.

    Runs the same spec on both live drivers at each size and measures
    CPU cost against wall time. The threaded driver burns this process's
    CPU (``RUSAGE_SELF``); the process driver burns its reaped workers'
    (``RUSAGE_CHILDREN`` — every worker is joined in teardown, so the
    delta captures exactly this run) plus parent coordination. The
    figure of merit is ``nodes_per_core = n / (cpu / wall)`` — how many
    gossiping nodes one saturated core sustains at the scaled clock —
    which is what decides worker counts on real deployments.
    """
    import resource

    from repro.scenarios.runner import run_scenario_process, run_scenario_threaded

    def cpu_now() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    entries = []
    nodes_per_core: dict = {"threaded": {}, "process": {}}
    for n in sizes:
        for driver, runner in (
            ("threaded", run_scenario_threaded),
            ("process", run_scenario_process),
        ):
            spec = _live_spec(n, spec_seconds)
            gc.collect()
            cpu0 = cpu_now()
            t0 = time.perf_counter()
            report = runner(spec)
            wall = time.perf_counter() - t0
            cpu = cpu_now() - cpu0
            utilization = cpu / wall if wall else 0.0
            per_core = round(n / utilization, 1) if utilization else None
            row = {
                "driver": driver,
                "n_nodes": n,
                "spec_seconds": spec_seconds,
                "wall_seconds": round(wall, 4),
                "cpu_seconds": round(cpu, 4),
                "utilization": round(utilization, 3),
                "nodes_per_core": per_core,
                "delivered_total": report.delivered_total,
            }
            if driver == "process":
                row["n_workers"] = report.n_workers
            entries.append(row)
            nodes_per_core[driver][str(n)] = per_core
            print(
                f"live n={n:4d}  {driver:8s} {wall:6.2f}s wall  "
                f"{cpu:6.2f}s cpu  util {utilization:5.2f}  "
                f"nodes/core {per_core}"
            )
    return {
        "gossip_period_wall_s": 0.1,
        "entries": entries,
        "nodes_per_core": nodes_per_core,
    }


def micro_timings() -> dict:
    """Hot-path micro timings (µs/op, best of 5 runs).

    ``buffer_snapshot`` measures the steady-state cache hit;
    ``buffer_snapshot_rebuild`` the forced full rebuild it replaced.
    ``receive_180_duplicates`` measures the batched columnar fold;
    ``..._reference`` the seed's per-event loop on the same message.
    """
    setup = """
import random
from repro.gossip.buffer import EventBuffer
from repro.gossip.config import SystemConfig
from repro.gossip.events import EventId
from repro.gossip.lpbcast import LpbcastProtocol
from repro.membership.full import Directory, FullMembershipView

buf = EventBuffer(180)
for i in range(180):
    buf.add(EventId(i % 60, i), age=i % 10)
buf.snapshot_columns()  # prime the cache
counter = iter(range(10**9))

# max_age high enough that the timed rounds never age the buffer out
config = SystemConfig(buffer_capacity=180, dedup_capacity=400_000, max_age=10**9)
directory = Directory(range(60))
proto = LpbcastProtocol(0, config, FullMembershipView(directory, 0), random.Random(1))
for i in range(180):
    proto.broadcast(None, now=0.0)
clock = iter(x * 1.0 for x in range(1, 10**9))
message = proto.on_round(1.0)[0].message  # columnar, 180 events
receiver = LpbcastProtocol(1, config, FullMembershipView(directory, 1), random.Random(2))
receiver.on_receive(message, now=0.5)  # prime: all duplicates afterwards
reference = LpbcastProtocol(2, config, FullMembershipView(directory, 2), random.Random(3))
reference.on_receive_reference(message, now=0.5)
"""
    cases = {
        "buffer_add_evict": "buf.add(EventId('b', next(counter)), age=0)",
        "buffer_snapshot": "buf.snapshot_columns()",
        "buffer_snapshot_rebuild": "buf.snapshot_columns(refresh=True)",
        "buffer_sync_age_raise": "buf.sync_age(EventId(0, 0), buf.age_of(EventId(0, 0)) + 1)",
        "round_batch_180ev": "proto.on_round_batch(next(clock))",
        "receive_180_duplicates": "receiver.on_receive(message, now=1.0)",
        "receive_180_duplicates_reference": (
            "reference.on_receive_reference(message, now=1.0)"
        ),
    }
    out = {}
    for name, stmt in cases.items():
        timer = timeit.Timer(stmt, setup=setup)
        number = 2000
        best = min(timer.repeat(repeat=5, number=number)) / number
        out[f"{name}_us"] = round(best * 1e6, 3)
    return out


def scenario_overhead(n_nodes: int, duration: float) -> dict:
    """Guard: the declarative scenario layer must cost construction time
    only — its per-round hot path is the same cluster the direct build
    drives. Runs the bench regime once built directly and once lowered
    from a ScenarioSpec, demands byte-identical runs, and reports the
    wall ratio (≈1.0) plus spec build/lower micro timings."""
    from repro.experiments.harness import build_cluster, spec_for_scenario
    from repro.scenarios.spec import FixedLinks, ScenarioSpec, SenderSpec

    fanout = max(4, round(math.log2(n_nodes)))
    spec = ScenarioSpec(
        name="bench-core",
        summary="the dispatch benchmark regime, as a scenario",
        n_nodes=n_nodes,
        protocol="lpbcast",
        system=SystemConfig(
            fanout=fanout,
            gossip_period=1.0,
            buffer_capacity=30,
            dedup_capacity=max(4000, 8 * n_nodes),
            max_age=8,
            round_jitter=0.0,
            round_phase=0.0,
        ),
        topology=FixedLinks(0.01),
        senders=(SenderSpec(0, 0.5), SenderSpec(n_nodes // 2, 0.5)),
        duration=duration,
        warmup=0.0,
        drain=0.0,
        seed=2003,
    )

    def run_direct() -> tuple[float, tuple]:
        cluster = build(n_nodes, "batched")
        gc.collect()
        t0 = time.perf_counter()
        cluster.run(until=duration)
        return time.perf_counter() - t0, fingerprint(cluster)

    def run_scenario() -> tuple[float, tuple]:
        cluster = build_cluster(spec_for_scenario(spec, sample_gauges=False))
        gc.collect()
        t0 = time.perf_counter()
        cluster.run(until=duration)
        return time.perf_counter() - t0, fingerprint(cluster)

    direct_wall, direct_fp = min(run_direct() for _ in range(2))
    scenario_wall, scenario_fp = min(run_scenario() for _ in range(2))
    if direct_fp != scenario_fp:
        raise SystemExit(
            "scenario-built cluster diverged from the direct build: "
            "the scenario layer is not free"
        )
    lower_us = min(
        timeit.repeat(lambda: spec_for_scenario(spec), repeat=5, number=200)
    ) / 200 * 1e6
    return {
        "n_nodes": n_nodes,
        "virtual_seconds": duration,
        "direct_wall_seconds": round(direct_wall, 4),
        "scenario_wall_seconds": round(scenario_wall, 4),
        "scenario_vs_direct_ratio": round(scenario_wall / direct_wall, 3),
        "spec_lower_us": round(lower_us, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="*", default=[250, 500, 1000])
    parser.add_argument(
        "--mega-sizes",
        type=int,
        nargs="*",
        default=[10_000, 50_000],
        help="node counts for the vector-dispatch mega_scaling tier "
        "(pass nothing after the flag to skip the tier)",
    )
    parser.add_argument("--duration", type=float, default=60.0)
    parser.add_argument(
        "--chaos-size",
        type=int,
        default=10_000,
        help="node count for the faulted mega_chaos tier (0 skips the tier)",
    )
    parser.add_argument(
        "--process-sizes",
        type=int,
        nargs="*",
        default=[32, 64],
        help="group sizes for the live-driver process_scaling tier "
        "(pass nothing after the flag to skip the tier)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (defaults to BENCH_core.json for full runs; "
        "quick runs only write when --out is given, e.g. the CI smoke job)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="n=100, short horizon (CI smoke)"
    )
    args = parser.parse_args(argv)
    sizes = [100] if args.quick else args.sizes
    mega_sizes = [2000] if args.quick else args.mega_sizes
    duration = 20.0 if args.quick else args.duration
    chaos_size = 2000 if args.quick else args.chaos_size
    # batched at 10k is the denominator; cap the chaos horizon so the
    # four per-node reference runs don't dominate the whole bench
    chaos_duration = min(duration, 30.0)

    scaling = []
    speedups = {}
    for n in sizes:
        timers = run_one(n, "timers", duration)
        batched = run_one(n, "batched", duration)
        if timers.pop("_fingerprint") != batched.pop("_fingerprint"):
            raise SystemExit(f"dispatch modes diverged at n={n}: benchmark invalid")
        speedup = timers["wall_seconds"] / batched["wall_seconds"]
        speedups[str(n)] = round(speedup, 3)
        scaling.extend([timers, batched])
        print(
            f"n={n:5d}  timers {timers['wall_seconds']:7.2f}s "
            f"({timers['heap_events']} events)  batched "
            f"{batched['wall_seconds']:7.2f}s ({batched['heap_events']} events)  "
            f"speedup {speedup:.2f}x"
        )

    mega = run_mega(mega_sizes, duration) if mega_sizes else None
    if mega is not None:
        # the tier's headline claim: 10k nodes under vector dispatch cost
        # less wall time than 1000 under batched, in the same process
        ref = max(
            (r for r in scaling if r["dispatch"] == "batched"),
            key=lambda r: r["n_nodes"],
            default=None,
        )
        vec = min(
            (r for r in mega["entries"] if r["dispatch"] == "vector"),
            key=lambda r: r["n_nodes"],
        )
        if ref is not None:
            mega["vector_vs_batched_smaller_n"] = {
                "batched_n": ref["n_nodes"],
                "batched_wall_seconds": ref["wall_seconds"],
                "vector_n": vec["n_nodes"],
                "vector_wall_seconds": vec["wall_seconds"],
            }
            print(
                f"mega headline: n={vec['n_nodes']} vector "
                f"{vec['wall_seconds']:.2f}s vs n={ref['n_nodes']} batched "
                f"{ref['wall_seconds']:.2f}s"
            )

    chaos = run_chaos(chaos_size, chaos_duration) if chaos_size else None

    process_sizes = [16] if args.quick else args.process_sizes
    process = (
        run_process_tier(process_sizes, spec_seconds=8.0 if args.quick else 12.0)
        if process_sizes
        else None
    )

    micro = micro_timings()
    for name, value in micro.items():
        print(f"micro {name:28s} {value:9.3f} us")

    overhead = scenario_overhead(min(sizes), duration)
    print(
        f"scenario overhead n={overhead['n_nodes']}: direct "
        f"{overhead['direct_wall_seconds']:.3f}s vs scenario "
        f"{overhead['scenario_wall_seconds']:.3f}s "
        f"(ratio {overhead['scenario_vs_direct_ratio']:.3f}, "
        f"spec lowering {overhead['spec_lower_us']:.1f} us)"
    )

    doc = {
        "benchmark": "core-dispatch",
        # comparable-schema tag: full runs and --quick smoke runs emit the
        # same shape, so compare_bench.py can diff any two documents
        # (CI's bench-regression step diffs the smoke JSON against the
        # checked-in BENCH_core.json reference)
        "schema": "bench-core/v2",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenario": {
            "protocol": "lpbcast",
            "round_synchronous": True,
            "latency": "constant 10ms",
            "buffer_capacity": 30,
            "senders": 2,
            "offered_load_msgs_per_s": 1.0,
            "fanout": "max(4, log2(n))",
        },
        "scaling": scaling,
        "mega_scaling": mega,
        "mega_chaos": chaos,
        "process_scaling": process,
        "speedup_batched_vs_timers": speedups,
        "micro_hot_paths": micro,
        "scenario_overhead": overhead,
        # PR 1's recorded numbers for the same scenario, kept so the
        # hot-path trajectory stays visible across PRs.
        "baseline_pr1": _PR1_BASELINE,
        "speedup_vs_pr1": _vs_pr1(scaling, micro),
    }
    out_path = args.out
    if out_path is None and not args.quick:
        out_path = str(ROOT / "BENCH_core.json")
    if out_path is not None:
        out = pathlib.Path(out_path)
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


_PR1_BASELINE = {
    "batched_wall_seconds": {"250": 0.4892, "500": 1.1881, "1000": 2.9958},
    "micro_hot_paths": {
        "buffer_snapshot_us": 50.665,
        "receive_180_duplicates_us": 34.879,
    },
}


def _vs_pr1(scaling: list, micro: dict) -> dict:
    """End-to-end and micro speedups against PR 1's recorded numbers."""
    out: dict = {}
    baseline = _PR1_BASELINE["batched_wall_seconds"]
    for row in scaling:
        key = str(row["n_nodes"])
        if row["dispatch"] == "batched" and key in baseline:
            out[f"batched_{key}"] = round(baseline[key] / row["wall_seconds"], 3)
    for name, value in _PR1_BASELINE["micro_hot_paths"].items():
        if name in micro and micro[name]:
            out[name] = round(value / micro[name], 3)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
