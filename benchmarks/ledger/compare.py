"""Compare two sets of ledger runs: ``compare.py A.json [A2.json ...] -- B.json [...]``.

Each file is one ``run.py --out`` record. One row per (workload,
end-to-end metric) shows each side's median and quartiles and a verdict
by the metric's bound in ``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
* ``same`` — within the bound;
* ``unresolved`` — a side's own spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell.

Simulated statistics of the simulated workloads are functions of the
seed alone: when both sides ran the same seed they are compared exactly,
and any difference is ``better`` or ``worse`` with no tolerance. Each
simulated workload also gets a ``fingerprint`` row (``same`` or
``changed``). Exit status is nonzero when any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SIMULATED = ("delivered_share", "input_rate")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float, exact: bool) -> str:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if exact:
        if set(a) == set(b) and len(set(a)) == 1:
            return "same"
        return "worse" if sign * (qb[1] - qa[1]) > 0 else "better"
    if qa[1] == 0:
        return "unresolved"
    if any(abs(q[2] - q[0]) > bound * abs(q[1]) for q in (qa, qb)):
        return "unresolved"
    change = sign * (qb[1] - qa[1]) / abs(qa[1])
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def _values(side: list[dict], workload: str, metric: str) -> list[float]:
    return [
        record["workloads"][workload]["untraced"]["metrics"][metric]["value"] for record in side
    ]


def _fingerprints(side: list[dict], workload: str) -> set:
    return {
        json.dumps(record["workloads"][workload]["untraced"]["detail"].get("fingerprint"))
        for record in side
    }


def compare(side_a: list[dict], side_b: list[dict], contract: dict) -> list[tuple]:
    """Rows ``(workload, metric, unit, quartiles A, quartiles B, verdict)``."""
    same_seed = len({record["seed"] for record in side_a + side_b}) == 1
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        prints_a, prints_b = _fingerprints(side_a, workload), _fingerprints(side_b, workload)
        simulated = "null" not in prints_a
        for metric in contract["end_to_end"]:
            a = _values(side_a, workload, metric["name"])
            b = _values(side_b, workload, metric["name"])
            exact = simulated and same_seed and metric["name"] in SIMULATED
            rows.append(
                (
                    workload,
                    metric["name"],
                    metric["unit"],
                    quartiles(a),
                    quartiles(b),
                    verdict(a, b, metric["better"], metric["bound"], exact),
                )
            )
        if simulated and same_seed:
            state = "same" if prints_a == prints_b and len(prints_a) == 1 else "changed"
            rows.append((workload, "fingerprint", "", None, None, state))
    return rows


def main(argv: list[str]) -> int:
    if "--" not in argv or not argv.index("--") or argv[-1] == "--":
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = []
    for paths in (argv[:cut], argv[cut + 1 :]):
        side = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                side.append(json.load(fh))
        sides.append(side)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        contract = json.load(fh)
    rows = compare(sides[0], sides[1], contract)
    print(f"{'workload':18s} {'metric':22s} {'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s}  verdict")
    for workload, metric, unit, qa, qb, state in rows:
        if qa is None:
            print(f"{workload:18s} {metric:22s} {'':>38s} {'':>38s}  {state}")
            continue
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {unit}" for q in (qa, qb)]
        print(f"{workload:18s} {metric:22s} {cells[0]:>38s} {cells[1]:>38s}  {state}")
    worse = [row for row in rows if row[5] == "worse"]
    unresolved = [row for row in rows if row[5] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
