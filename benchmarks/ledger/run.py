"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py [--seed 2003] [--workload NAME]
        [--seconds 15] [--trace [0|1]] [--smoke] [--out FILE] [--spans FILE]

Without ``--workload`` every workload runs in its own fresh child
process, one after another (never in parallel: the host has two cores
and the numbers are host costs), every metric is printed by name with
its unit, outputs are self-checked, and ``--out`` keeps the whole set as
JSON for ``compare.py``. With ``--workload`` this process is that child:
it repeats the workload's repetition — same seed, so every repetition
must produce the same fingerprint — until ``--seconds`` are used up,
reports medians, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics come from untraced repetitions (``--trace 0``).
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics; the difference between the two is the tracing
overhead. Names and units are declared once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# measure the checkout's own source, never an installed copy
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"the perf ledger measures the checkout it sits in; {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy
except ImportError:  # the stdlib twin is not what users run at 10k+ nodes
    sys.exit("the perf ledger needs numpy (pip install .[accel]); refusing to time the stdlib twin")

import measure  # noqa: E402
import replay  # noqa: E402
import selfcheck  # noqa: E402
import workloads  # noqa: E402
from trace import ROOT as ROOT_SPAN, Tracer  # noqa: E402

MIN_REPS = 3  # untraced repetitions behind every median
CAPTURE = 2000  # latest encoded messages kept for the layer replay
CAPTURE_SCALE = 0.625  # live-process: 25 rounds of the in-process driver fill the corpus

# per-layer self-time metric -> prefix of the span names it sums; every
# span belongs to exactly one, so the metrics add up to the traced wall
SELF_SECONDS = {
    "experiments.harness.build_s": "experiments.harness.",
    "metrics.delivery.analyze_s": "metrics.delivery.",
    "sim.engine.self_s": "sim.engine.",
    "workload.cluster.self_s": "workload.cluster.",
    "sim.network.self_s": "sim.network.",
    "gossip.lpbcast.round_s": "gossip.lpbcast.on_round_batch",
    "gossip.lpbcast.receive_s": "gossip.lpbcast.on_receive_batch",
    "gossip.buffer.self_s": "gossip.buffer.",
    "core.machinery.self_s": "core.machinery.",
    "membership.views.self_s": "membership.views.",
    "metrics.collector.self_s": "metrics.collector.",
    "sim.vector.round_s": "sim.vector.on_round",
    "sim.vector.age_out_s": "sim.vector.age_out",
    "sim.vector.sample_s": "sim.vector.sample_rows",
    "sim.vector.chaos_filter_s": "sim.vector.chaos_filter",
    "sim.vector.fold_s": "sim.vector.fold_",
    "runtime.codec.self_s": "runtime.codec.",
    "runtime.transport.self_s": "runtime.transport.",
    "workload.other_s": ROOT_SPAN,
}
CALLS = {
    "gossip.lpbcast.receive_calls": "gossip.lpbcast.on_receive_batch",
    "core.machinery.calls": "core.machinery.",
    "metrics.collector.calls": "metrics.collector.",
}
# exact counts and ratios a repetition reports itself (measure.py)
COUNTS = (
    "sim.engine.heap_events",
    "sim.network.sent",
    "sim.network.dropped",
    "sim.network.payload_items",
    "gossip.lpbcast.duplicate_ratio",
    "gossip.buffer.evictions",
    "gossip.buffer.age_outs",
    "core.machinery.admit_ratio",
    "scenarios.runner.offer_shortfall",
    "runtime.process_cluster.port_attempts",
    "runtime.worker.send_failures",
    "runtime.worker.decode_errors",
)
REPLAYED = (
    "runtime.codec.encode_us",
    "runtime.codec.decode_us",
    "runtime.codec.bytes_per_msg",
    "runtime.transport.chaos_plan_us",
    "runtime.transport.memory_hop_us",
    "runtime.transport.udp_hop_us",
    "gossip.lpbcast.receive_us_per_msg",
)
RUNTIME = (
    "runtime.cluster.cpu_us_per_node_round",
    "runtime.worker.cpu_us_per_node_round",
    "runtime.worker.cpu_s",
    "runtime.process_cluster.parent_cpu_s",
    "runtime.process_cluster.overhead_s",
    "runtime.attributed_share",
)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _more(started: float, done: int, seconds: float, min_reps: int) -> bool:
    """Whether to run another repetition: until the minimum count is in,
    then while one more would undershoot the box by more than it overshoots."""
    if done < min_reps:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / done < seconds


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def untraced(name: str, seed: int, seconds: float, scale: float, min_reps: int):
    started = time.perf_counter()
    reps = []
    while _more(started, len(reps), seconds, min_reps):
        reps.append(measure.rep(name, seed, scale))
    metrics = {
        # the slowest, not the median or mean: a process's first worker spawn
        # starts both workers on one core, later ones overlap them in about
        # half of all processes, so any average is 0.53 s or 0.75 s by the run
        "setup_s": max(rep["setup_s"] for rep in reps),
        "wall_s": _median(reps, "wall_s"),
        "cpu_s": _median(reps, "cpu_s"),
        "node_rounds_per_cpu_s": statistics.median(r["node_rounds"] / r["cpu_s"] for r in reps),
        "peak_rss_mb": measure.peak_rss_mb(),
        "delivered_share": _median(reps, "delivered_share"),
        "input_rate": _median(reps, "input_rate"),
    }
    failures = selfcheck.same_fingerprints(reps, "repetition")
    return metrics, reps, failures


def _percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _span_metrics(tracer: Tracer, summary: dict) -> dict:
    """Per-layer self seconds and call counts from one traced repetition."""
    out = {}
    for table, column in ((SELF_SECONDS, 1), (CALLS, 0)):
        for metric, prefix in table.items():
            spans = [s for s in tracer.names if s.startswith(prefix)]
            if any(s in tracer.unresolved for s in spans):
                out[metric] = None  # a wrapper lost its method: missing, not zero
            else:
                out[metric] = sum(summary[s][column] for s in spans) if summary else 0
    return out


def traced(name: str, seed: int, seconds: float, scale: float, spans_path):
    """Alternate untraced and traced repetitions; return the per-layer metrics."""
    live = workloads.kind(name) == "live"
    tracer = Tracer(capture=CAPTURE if live else 0)
    started = time.perf_counter()
    plain, shadow = [], []  # untraced / traced repetitions
    while _more(started, len(plain), seconds, 1):
        plain.append(measure.rep(name, seed, scale))
        if name == "live-process":
            continue  # spawned workers: nothing in-process to wrap
        tracer.install()
        try:
            tracer.reset()
            rep = measure.rep(name, seed, scale, tracer)
            rep["summary"] = tracer.summary()
            rep["spans"] = tracer.span_count()
            shadow.append(rep)
        finally:
            tracer.uninstall()
    if name == "live-process":
        # the corpus the workers would encode, captured from the same
        # spec on the in-process driver (only the messages matter)
        tracer.install()
        try:
            measure.rep("live-threaded", seed, min(scale, CAPTURE_SCALE), tracer)
        finally:
            tracer.uninstall()
    if spans_path and shadow:
        tracer.write_jsonl(spans_path, f"{name}-seed{seed}")

    failures = selfcheck.same_fingerprints(plain + shadow, "traced vs untraced")
    # report the traced repetition with the median wall, whole: its layer
    # times then add up to its wall, which medians taken per layer would not
    shadow.sort(key=lambda rep: rep["rep_wall_s"])
    chosen = shadow[(len(shadow) - 1) // 2] if shadow else None
    summary = chosen["summary"] if chosen else {}
    if chosen and not live:
        failures += selfcheck.self_times_add_up(
            {span: value[1] for span, value in summary.items()}, chosen["traced_wall_s"]
        )

    base = plain[0]
    m = _span_metrics(tracer, summary)
    m.update({key: base["counts"].get(key, 0) for key in COUNTS})
    rounds = [ms for rep in plain for ms in rep.get("round_ms", ())]
    m["workload.cluster.round_ms_p50"] = _percentile(rounds, 50)
    m["workload.cluster.round_ms_p95"] = _percentile(rounds, 95)
    m["workload.cluster.round_samples"] = len(rounds)
    m["metrics.delivery.atomicity"] = base.get("atomicity", 0.0)
    m["metrics.delivery.latency_vs"] = base.get("latency_vs", 0.0)
    vector_s = [m[k] for k in SELF_SECONDS if k.startswith("sim.vector.")]
    delivered = base["counts"].get("sim.network.delivered", 0)
    if None in vector_s:
        m["sim.vector.ns_per_delivery"] = None
    else:
        m["sim.vector.ns_per_delivery"] = sum(vector_s) / delivered * 1e9 if delivered else 0.0
    m.update(_live_metrics(name, seed, scale, plain, list(tracer.encoded)))
    # overhead: wall where wall is the cost, CPU where the wall is paced
    cost = "cpu_s" if live else "rep_wall_s"
    m["trace.overhead_ratio"] = (
        _median(shadow, cost) / _median(plain, cost) - 1.0 if shadow else 0.0
    )
    m["trace.unresolved"] = len(tracer.unresolved)
    m["trace.wall_s"] = chosen["rep_wall_s"] if chosen else 0.0
    m["trace.spans"] = chosen["spans"] if chosen else 0
    return m, plain + shadow, failures


def _live_metrics(name: str, seed: int, scale: float, plain: list[dict], corpus: list) -> dict:
    """The live drivers' split: layer replay, rusage, report counters."""
    m = dict.fromkeys(REPLAYED, 0.0)
    m.update(dict.fromkeys(RUNTIME, 0.0))
    if workloads.kind(name) != "live":
        return m
    base = plain[0]
    cpu = _median(plain, "cpu_s")
    node_rounds, datagrams = base["node_rounds"], base["datagrams"]
    costs = replay.layer_costs(corpus, workloads.build(name, seed, scale))
    m.update(costs)
    if name == "live-threaded":
        # the threaded node encodes once per destination
        encodes, hop = datagrams, "runtime.transport.memory_hop_us"
        m["runtime.cluster.cpu_us_per_node_round"] = cpu / node_rounds * 1e6
    else:
        # the worker encodes once per round and fans the bytes out
        encodes, hop = node_rounds, "runtime.transport.udp_hop_us"
        workers_cpu = _median(plain, "kids_cpu_s")
        m["runtime.worker.cpu_s"] = workers_cpu
        m["runtime.worker.cpu_us_per_node_round"] = workers_cpu / node_rounds * 1e6
        m["runtime.process_cluster.parent_cpu_s"] = _median(plain, "own_cpu_s")
        m["runtime.process_cluster.overhead_s"] = _median(plain, "setup_s")
    per_datagram = (
        costs["runtime.transport.chaos_plan_us"]
        + costs[hop]
        + costs["runtime.codec.decode_us"]
        + costs["gossip.lpbcast.receive_us_per_msg"]
    )
    attributed_s = 1e-6 * (encodes * costs["runtime.codec.encode_us"] + datagrams * per_datagram)
    m["runtime.attributed_share"] = attributed_s / cpu
    return m


def run_one(args, contract: dict) -> int:
    name = args.workload
    if name not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    scale = workloads.SMOKE_SCALE if args.smoke else 1.0
    seconds = 0.0 if args.smoke else args.seconds
    min_reps = 1 if args.smoke else MIN_REPS
    failures = []
    if name.startswith("vector-"):
        failures += selfcheck.vector_twin(name, args.seed)
    if args.trace:
        declared = contract["per_layer"]
        metrics, reps, more = traced(name, args.seed, seconds, scale, args.spans)
    else:
        declared = contract["end_to_end"]
        metrics, reps, more = untraced(name, args.seed, seconds, scale, min_reps)
    failures += more
    bad_reps = sum(1 for rep in reps if rep["checks"])
    for rep in reps:
        failures += rep["checks"]

    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        sys.exit(
            f"{name}: BENCHMARK.json and run.py disagree on metric names: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"unmeasured {sorted(set(units) - set(metrics))}"
        )
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  repetitions {len(reps)}")
    for metric in units:
        value = metrics[metric]
        shown = "null" if value is None else f"{value!r}"
        print(f"  {metric:44s} {shown:>24s} {units[metric]}")
    base = reps[0]
    print(
        "detail "
        + json.dumps(
            {
                "fingerprint": base.get("fingerprint"),
                "pairs_attempted": base["pairs_attempted"],
                "pairs_undelivered": base["pairs_undelivered"],
                "repetitions": len(reps),
                "setup_s_reps": [rep["setup_s"] for rep in reps],
                "failures": failures,
            }
        )
    )
    for failure in dict.fromkeys(failures):
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(reps),
                "failed": bad_reps or int(bool(failures)),
                # a missing (unresolved) layer metric is reported as 0 beside
                # a nonzero trace.unresolved: the contract wants numbers
                "metrics": {
                    metric: {"value": 0.0 if metrics[metric] is None else metrics[metric], "unit": unit}
                    for metric, unit in units.items()
                },
            }
        )
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# every workload, each in a fresh child process
# ----------------------------------------------------------------------
def _child(name: str, args, trace: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.spans:
        command += ["--spans", f"{args.spans}.{name}.jsonl"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in reversed(lines) if l.startswith("detail "))[7:])
    except (IndexError, StopIteration, json.JSONDecodeError):
        return {"correct": False, "exit": done.returncode, "metrics": {}, "detail": {}}
    return {**result, "exit": done.returncode, "detail": detail}


def run_all(args) -> int:
    record = {
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    failed = []
    for name in workloads.WORKLOADS:
        entry = {"untraced": _child(name, args, 0)}
        if args.trace:
            entry["traced"] = _child(name, args, 1)
        record["workloads"][name] = entry
        if not all(run["correct"] and run["exit"] == 0 for run in entry.values()):
            failed.append(name)
    print(f"host {json.dumps(record['host'])}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    if failed:
        print(f"selfcheck FAILED for: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("selfcheck passed for every workload")
    return 0


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The drivers reap their own workers; what outlives them is the spawn
    context's resource tracker, which would otherwise be left running
    for init to collect once this process is gone.
    """
    for worker in multiprocessing.active_children():
        worker.kill()
        worker.join()
    tracker = multiprocessing.resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # end of its input: the tracker cleans up and exits
        tracker._fd = None
        os.waitpid(tracker._pid, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="one repetition at 1/20 scale")
    parser.add_argument("--out", help="write the whole set as JSON (all-workloads mode)")
    parser.add_argument("--spans", help="write the traced repetition's spans as JSONL")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload:
        return run_one(args, contract)
    return run_all(args)


if __name__ == "__main__":
    # a polite kill takes the same way out as everything else
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
