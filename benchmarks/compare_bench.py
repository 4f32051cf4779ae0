"""Compare a bench_core JSON document against a reference.

CI's bench-regression step runs this after the bench-smoke job::

    python benchmarks/compare_bench.py bench-core-quick.json BENCH_core.json

Two sections are compared. ``micro_hot_paths``: micro timings are
size-independent, so a ``--quick`` smoke document (n=100) is directly
comparable to the full checked-in reference (n=250..1000), while the
end-to-end wall times are not (different node counts, different
machines). ``mega_chaos``: the per-scenario vector-vs-batched speedup
ratios, compared only when both documents ran the tier at the same
node count (informational otherwise — a smoke-sized ratio against the
full reference would measure scale, not drift). Every comparison whose
current/reference ratio exceeds ``--threshold`` (default 1.5x) produces
a warning — emitted as a GitHub Actions ``::warning::`` annotation when
running under CI — but the exit code stays 0 unless ``--fail`` is passed: CI machines are noisy, so
bench regressions warn rather than gate (hard micro gates live in
``benchmarks/test_micro_hotpaths.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

#: Micro timings that are pure cache hits wobble by nanoseconds; skip
#: ratio talk below this floor to avoid "0.2us vs 0.3us = 1.5x" noise.
ABSOLUTE_FLOOR_US = 1.0


def compare_micro(
    current: dict, reference: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """(report lines, regression warnings) for the micro sections."""
    cur = current.get("micro_hot_paths", {})
    ref = reference.get("micro_hot_paths", {})
    lines: list[str] = []
    warnings: list[str] = []
    for name in sorted(set(cur) & set(ref)):
        cur_us, ref_us = cur[name], ref[name]
        if not ref_us:
            continue
        ratio = cur_us / ref_us
        verdict = "ok"
        if ratio > threshold and cur_us > ABSOLUTE_FLOOR_US:
            verdict = "SLOWDOWN"
            warnings.append(
                f"micro {name} slowed {ratio:.2f}x over reference "
                f"({ref_us:.3f}us -> {cur_us:.3f}us, threshold {threshold:.2f}x)"
            )
        lines.append(
            f"  {name:36s} ref {ref_us:9.3f}us  cur {cur_us:9.3f}us  "
            f"ratio {ratio:5.2f}x  {verdict}"
        )
    missing = sorted(set(ref) - set(cur))
    for name in missing:
        lines.append(f"  {name:36s} missing from current document")
        warnings.append(f"micro {name} missing from current document")
    # the other direction is growth, not rot: a freshly added micro
    # benchmark has no reference yet, so note it and move on
    for name in sorted(set(cur) - set(ref)):
        lines.append(f"  {name:36s} new (no reference yet; informational)")
    return lines, warnings


def compare_chaos(
    current: dict, reference: dict, threshold: float
) -> tuple[list[str], list[str]]:
    """(report lines, warnings) for the ``mega_chaos`` speedup ratios.

    The tier's headline is the vector-vs-batched speedup per faulted
    scenario. Ratios are only comparable at equal node counts — a
    ``--quick`` document (n=2000) against the full reference (n=10000)
    would report the scale difference, not drift — so a size mismatch
    downgrades the whole section to informational. At matching sizes a
    speedup that shrank by more than ``threshold`` warns (same noisy-CI
    policy as the micro section: warn, don't gate).
    """
    cur_tier = current.get("mega_chaos") or {}
    ref_tier = reference.get("mega_chaos") or {}
    cur, ref = cur_tier.get("vector_vs_batched", {}), ref_tier.get(
        "vector_vs_batched", {}
    )
    lines: list[str] = []
    warnings: list[str] = []
    if not cur or not ref:
        return lines, warnings
    cur_n, ref_n = cur_tier.get("n_nodes"), ref_tier.get("n_nodes")
    comparable = cur_n == ref_n and cur_n is not None
    if not comparable:
        lines.append(
            f"  mega_chaos sizes differ (cur n={cur_n}, ref n={ref_n}); "
            "speedup ratios informational only"
        )
    for name in sorted(set(cur) & set(ref)):
        cur_x, ref_x = cur[name], ref[name]
        if not cur_x:
            continue
        drift = ref_x / cur_x  # >1 means the vector speedup shrank
        verdict = "ok" if comparable else "info"
        if comparable and drift > threshold:
            verdict = "SLOWDOWN"
            warnings.append(
                f"mega_chaos {name} vector speedup shrank {drift:.2f}x "
                f"({ref_x:.1f}x -> {cur_x:.1f}x, threshold {threshold:.2f}x)"
            )
        lines.append(
            f"  chaos {name:24s} ref {ref_x:6.1f}x  cur {cur_x:6.1f}x  {verdict}"
        )
    for name in sorted(set(ref) - set(cur)):
        lines.append(f"  chaos {name:24s} missing from current document")
        if comparable:
            warnings.append(f"mega_chaos {name} missing from current document")
    for name in sorted(set(cur) - set(ref)):
        lines.append(f"  chaos {name:24s} new (no reference yet; informational)")
    return lines, warnings


def note_new_tiers(current: dict, reference: dict) -> list[str]:
    """Document sections present only in the newer JSON.

    Bench documents grow tiers over time (``mega_scaling`` arrived after
    ``scaling``); comparing a new document against an older reference
    must report those as *new*, never as drift — no warning, no nonzero
    exit. Scalar metadata (schema, python, machine) is skipped: only
    dict/list sections are tiers.
    """
    lines = []
    for key in sorted(set(current) - set(reference)):
        if isinstance(current[key], (dict, list)):
            lines.append(
                f"  new tier {key!r} in current document "
                "(no reference yet; informational)"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly produced bench_core JSON")
    parser.add_argument("reference", help="reference JSON (e.g. BENCH_core.json)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="warn when current/reference exceeds this ratio (default 1.5)",
    )
    parser.add_argument(
        "--fail",
        action="store_true",
        help="exit nonzero on regressions instead of warning only",
    )
    args = parser.parse_args(argv)

    current = json.loads(pathlib.Path(args.current).read_text(encoding="utf-8"))
    reference = json.loads(pathlib.Path(args.reference).read_text(encoding="utf-8"))
    for doc, path in ((current, args.current), (reference, args.reference)):
        schema = doc.get("schema")
        if schema is not None and not str(schema).startswith("bench-core/"):
            raise SystemExit(f"{path}: unexpected schema {schema!r}")

    lines, warnings = compare_micro(current, reference, args.threshold)
    print(f"bench comparison: {args.current} vs {args.reference}")
    print("\n".join(lines) if lines else "  (no comparable micro benchmarks)")
    chaos_lines, chaos_warnings = compare_chaos(current, reference, args.threshold)
    if chaos_lines:
        print("\n".join(chaos_lines))
    warnings.extend(chaos_warnings)
    for line in note_new_tiers(current, reference):
        print(line)
    annotate = os.environ.get("GITHUB_ACTIONS") == "true"
    for warning in warnings:
        print(f"::warning ::{warning}" if annotate else f"WARNING: {warning}")
    if warnings:
        print(f"{len(warnings)} regression warning(s) at {args.threshold:.2f}x")
    else:
        print(f"no micro benchmark slower than {args.threshold:.2f}x the reference")
    return 1 if warnings and args.fail else 0


if __name__ == "__main__":
    sys.exit(main())
