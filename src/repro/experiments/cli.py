"""Command-line interface to the experiment harness.

Regenerate any of the paper's figures, or run named scenarios, without
writing code::

    python -m repro.experiments figure2
    python -m repro.experiments figure4 --iterations 5
    python -m repro.experiments figure7 --profile paper
    python -m repro.experiments figure8 --jobs 4
    python -m repro.experiments figure9 -o fig9.txt
    python -m repro.experiments all --jobs 8 --json results.json
    python -m repro.experiments calibrate --buffers 30 60 90
    python -m repro.experiments list-scenarios
    python -m repro.experiments run-scenario correlated-loss flash-crowd
    python -m repro.experiments run-scenario --all --jobs 8
    python -m repro.experiments run-scenario rolling-churn --driver both --quick
    python -m repro.experiments run-scenario correlated-loss --driver process --quick
    python -m repro.experiments check-scenarios --all --quick
    python -m repro.experiments check-scenarios --all --quick --driver process
    python -m repro.experiments check-scenarios --all --quick --update-baselines
    python -m repro.experiments check-scenarios flash-crowd --quick
    python -m repro.experiments fuzz-scenarios --seed 7 --count 50 --jobs 4
    python -m repro.experiments fuzz-scenarios --seed 7 --only 12 --driver threaded
    python -m repro.experiments bisect-scenario --fuzz-seed 7 --index 12
    python -m repro.experiments bisect-scenario correlated-loss --quick

``--jobs N`` shards sweep-based figures and scenario matrices across N
worker processes; the numbers are identical to a serial run (every
simulation is seed-isolated), only the wall clock changes. ``--json
FILE`` additionally writes the raw result objects as machine-readable
JSON.

Figures 6/7/8 share a buffer sweep; invoking several of them in one
process reuses it. ``run-scenario --quick`` shrinks the profile to a
smoke scale (small group, short horizon) so any scenario answers in
seconds.

``check-scenarios`` is the regression gate: it runs scenarios, evaluates
their registered expectations (``ReliabilityAtLeast`` & co.), diffs the
metrics against the checked-in baselines under ``baselines/scenarios/``
(exact for the sim driver, tolerance-banded for threaded and process)
and exits
nonzero on a violated expectation, unexplained drift, or a missing
baseline. ``--update-baselines`` re-captures the snapshots instead —
that is the blessing workflow after an intentional behaviour change.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from repro.experiments import figures
from repro.experiments.calibrate import calibrate as run_calibration
from repro.experiments.profiles import get_profile
from repro.experiments.report import render_series, render_table
from repro.experiments.sweep import run_scenario_matrix, to_jsonable

__all__ = ["main", "build_parser"]

_SWEEP_CACHE: dict[str, tuple] = {}


def _sweep(profile, jobs: int = 1):
    if profile.name not in _SWEEP_CACHE:
        _SWEEP_CACHE[profile.name] = figures.buffer_sweep_comparison(profile, jobs=jobs)
    return _SWEEP_CACHE[profile.name]


def _run_figure2(profile, args):
    result = figures.figure2(profile, jobs=args.jobs)
    text = render_table(
        ["input rate", "msgs to >95% (%)", "avg receivers (%)", "drop age"],
        [
            (r.input_rate, r.atomicity_pct, r.avg_receiver_pct, r.drop_age)
            for r in result.rows
        ],
        title=f"Figure 2 (buffer={result.buffer_capacity}, {profile.name})",
    )
    return text, result


def _run_figure4(profile, args):
    result = run_calibration(profile, iterations=args.iterations)
    text = render_table(
        ["buffer", "max rate", "drop age @max", "reliability @max"],
        [
            (p.buffer_capacity, p.max_rate, p.drop_age_at_max, p.reliability_at_max)
            for p in result.points
        ],
        title=f"Figure 4 ({profile.name}); tau = {result.tau:.2f}",
        digits=2,
    )
    return text, result


def _run_figure6(profile, args):
    result = figures.figure6(profile, _sweep(profile, args.jobs))
    text = render_table(
        ["buffer", "offered", "allowed", "maximum"],
        [(r.buffer_capacity, r.offered, r.allowed, r.maximum) for r in result.rows],
        title=f"Figure 6 ({profile.name})",
    )
    return text, result


def _run_figure7(profile, args):
    result = figures.figure7(profile, _sweep(profile, args.jobs))
    text = render_table(
        ["buffer", "in lpb", "in adpt", "out lpb", "out adpt", "da lpb", "da adpt"],
        [
            (
                r.buffer_capacity,
                r.input_lpbcast,
                r.input_adaptive,
                r.output_lpbcast,
                r.output_adaptive,
                r.drop_age_lpbcast,
                r.drop_age_adaptive,
            )
            for r in result.rows
        ],
        title=f"Figure 7 ({profile.name})",
    )
    return text, result


def _run_figure8(profile, args):
    result = figures.figure8(profile, _sweep(profile, args.jobs))
    text = render_table(
        ["buffer", "recv lpb (%)", "recv adpt (%)", "atom lpb (%)", "atom adpt (%)"],
        [
            (
                r.buffer_capacity,
                r.avg_receiver_pct_lpbcast,
                r.avg_receiver_pct_adaptive,
                r.atomicity_pct_lpbcast,
                r.atomicity_pct_adaptive,
            )
            for r in result.rows
        ],
        title=f"Figure 8 ({profile.name})",
    )
    return text, result


def _run_figure9(profile, args):
    result = figures.figure9(profile)
    phases = ("base", "low", "mid")
    head = render_table(
        ["phase", "ideal", "allowed", "atom adpt (%)", "atom lpb (%)"],
        [
            (
                phases[i],
                result.ideal_rates[i],
                result.allowed_by_phase[i],
                100 * result.atomicity_adaptive_by_phase[i],
                100 * result.atomicity_lpbcast_by_phase[i],
            )
            for i in range(3)
        ],
        title=f"Figure 9 ({profile.name})",
    )
    tail = render_series(
        result.allowed_series,
        title="Figure 9(a) series",
        v_label="allowed (msg/s)",
        every=2,
    )
    return head + "\n\n" + tail, result


def _run_calibrate(profile, args):
    buffers = tuple(args.buffers) if args.buffers else None
    result = run_calibration(
        profile, buffer_sizes=buffers, iterations=args.iterations
    )
    lines = [
        f"buffer={p.buffer_capacity} max_rate={p.max_rate:.2f} "
        f"drop_age={p.drop_age_at_max:.2f} reliability={p.reliability_at_max:.3f}"
        for p in result.points
    ]
    lines.append(f"tau = {result.tau:.3f}")
    return "\n".join(lines), result


_COMMANDS = {
    "figure2": _run_figure2,
    "figure4": _run_figure4,
    "figure6": _run_figure6,
    "figure7": _run_figure7,
    "figure8": _run_figure8,
    "figure9": _run_figure9,
    "calibrate": _run_calibrate,
}


def _run_list_scenarios(profile, args):
    """Names, summaries, and per-driver condition coverage.

    The simulator models every condition a spec can carry by
    construction; the live drivers' injected-vs-skipped split comes
    from :func:`repro.scenarios.runner.live_coverage`, so a parity
    regression (a condition the live host stops lowering) is visible
    right here without running anything.
    """
    from repro.scenarios.registry import get_scenario, list_scenarios
    from repro.scenarios.runner import live_coverage

    rows = list_scenarios()
    width = max(len(name) for name, _ in rows)
    lines = []
    scenarios = []
    for name, summary in rows:
        spec = get_scenario(name, profile)
        injected, skipped = live_coverage(spec)
        total = len(injected) + len(skipped)
        lines.append(f"{name:<{width}}  {summary}")
        if total == 0:
            coverage = "conditions: none (clean network, workload only)"
        else:
            live = f"live injects {len(injected)}/{total}"
            if skipped:
                live += f", skips {len(skipped)}"
            coverage = f"conditions: {total} | sim injects all | {live}"
        lines.append(f"{'':<{width}}  {coverage}")
        for item in skipped:
            lines.append(f"{'':<{width}}    live skips: {item}")
        scenarios.append(
            {
                "name": name,
                "summary": summary,
                "conditions": total,
                "live_injected": list(injected),
                "live_skipped": list(skipped),
            }
        )
    return "\n".join(lines), {"scenarios": scenarios}


# --driver -> the live driver it runs ("both" is sim + threaded)
_LIVE_DRIVER = {"threaded": "threaded", "process": "process", "both": "threaded"}


_SCENARIO_COLUMNS = [
    "scenario", "in (msg/s)", "out (msg/s)", "avg recv (%)", "atomicity (%)", "drop age",
]


def _scenario_result_rows(results):
    return [
        (
            r.spec.scenario or r.spec.protocol,
            r.input_rate,
            r.output_rate,
            r.delivery.avg_receiver_pct,
            r.delivery.atomicity_pct,
            r.drop_age_mean,
        )
        for r in results
    ]


def _run_run_scenario(profile, args):
    from repro.scenarios.runner import run_scenario, smoke_profile

    if args.quick:
        profile = smoke_profile(profile)
    names = _resolve_scenario_names(args, "run-scenario")
    chunks = []
    payload: dict = {"profile": profile.name, "scenarios": list(names)}
    if args.driver in ("sim", "both"):
        results = run_scenario_matrix(
            names,
            profile=profile,
            jobs=args.jobs,
            dispatch=args.dispatch,
            horizon=args.horizon,
        )
        chunks.append(
            render_table(
                _SCENARIO_COLUMNS,
                _scenario_result_rows(results),
                title=f"Scenario matrix — sim driver ({profile.name}, "
                f"{args.dispatch} dispatch)",
                digits=2,
            )
        )
        payload["sim"] = results
        if args.dispatch == "vector":
            from repro.experiments.harness import (
                spec_for_scenario,
                vector_fallback_reason,
            )
            from repro.scenarios.registry import get_scenario

            fallbacks = {
                name: reason
                for name in names
                if (
                    reason := vector_fallback_reason(
                        spec_for_scenario(
                            get_scenario(name, profile),
                            dispatch="vector",
                            horizon=args.horizon,
                        )
                    )
                )
                is not None
            }
            if fallbacks:
                lines = [
                    "Vector fallbacks — these ran on the per-node path:"
                ]
                lines.extend(
                    f"  {name}: {reason}"
                    for name, reason in fallbacks.items()
                )
                chunks.append("\n".join(lines))
            payload["vector_fallbacks"] = fallbacks
    live = _LIVE_DRIVER.get(args.driver)
    if live is not None:
        reports = [
            run_scenario(name, driver=live, profile=profile, horizon=args.horizon)
            for name in names
        ]
        lines = [
            render_table(
                _SCENARIO_COLUMNS,
                _scenario_result_rows([report.result for report in reports]),
                title=f"Scenario runs — {live} driver ({profile.name})",
                digits=2,
            )
        ]
        for report in reports:
            workers = f"{report.n_workers} workers, " if report.n_workers else ""
            lines.append(
                f"  {report.scenario}: {report.wall_seconds:.1f}s wall, {workers}"
                f"send_failures={report.send_failures} "
                f"decode_errors={report.decode_errors} "
                f"injected={report.injected_count} skipped={report.skipped_count}"
            )
            for item in report.injected:
                lines.append(f"    injected: {item}")
            for item in report.skipped:
                lines.append(f"    skipped: {item}")
        chunks.append("\n".join(lines))
        payload[live] = reports
    return "\n\n".join(chunks), payload


def _resolve_scenario_names(args, command: str) -> list[str]:
    from repro.scenarios.registry import scenario_names

    if args.all and args.names:
        raise SystemExit(
            f"{command}: pass scenario names or --all, not both "
            f"(--all would ignore {args.names})"
        )
    if args.all:
        return scenario_names()
    if args.names:
        return list(args.names)
    raise SystemExit(
        f"{command} needs scenario names (or --all); "
        "see `python -m repro.experiments list-scenarios`"
    )


def _run_check_scenarios(profile, args) -> tuple[str, dict, int]:
    """The regression gate. Returns (report text, JSON payload, exit code)."""
    from pathlib import Path

    from repro.scenarios.baselines import (
        compare_to_baseline,
        render_report,
        update_baseline,
    )
    from repro.scenarios.expectations import (
        ScenarioResult,
        evaluate_expectations,
    )
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import run_scenario, smoke_profile
    from repro.experiments.sweep import run_scenario_checks

    if args.quick:
        profile = smoke_profile(profile)
    names = _resolve_scenario_names(args, "check-scenarios")
    root = Path(args.baseline_dir) if args.baseline_dir else None
    tolerance = args.tolerance

    # (scenario, checks, result) triples, one per run performed; when
    # only re-capturing baselines, skip companion runs and evaluation —
    # their checks would be discarded
    runs: list[tuple[str, tuple, ScenarioResult]] = []
    if args.driver in ("sim", "both"):
        for check in run_scenario_checks(
            names,
            profile=profile,
            jobs=args.jobs,
            dispatch=args.dispatch,
            horizon=args.horizon,
            evaluate=not args.update_baselines,
        ):
            runs.append((check.scenario, check.checks, check.result))
    live = _LIVE_DRIVER.get(args.driver)
    if live is not None:
        for name in names:
            # resolve once (the expectations live on the spec), then share
            # run-scenario's live path
            spec = get_scenario(name, profile)
            report = run_scenario(spec, driver=live, horizon=args.horizon)
            result = ScenarioResult.from_run(report.result, profile.name, report.driver)
            checks = (
                ()
                if args.update_baselines
                else evaluate_expectations(spec.expectations, result)
            )
            runs.append((name, checks, result))

    if args.update_baselines:
        lines = [f"Baselines updated — profile {profile.name}, driver {args.driver}"]
        written = 0
        for name, _, result in runs:
            path, changed = update_baseline(
                result, root, horizon=args.horizon, dispatch=args.dispatch
            )
            written += changed
            state = "updated" if changed else "unchanged"
            lines.append(f"  {name} [{result.driver}]: {path} {state}")
        lines.append(f"{written} entr{'y' if written == 1 else 'ies'} rewritten")
        payload = {
            "profile": profile.name,
            "driver": args.driver,
            "updated": written,
            "scenarios": names,
        }
        return "\n".join(lines), payload, 0

    run_rows = []
    for name, checks, result in runs:
        # --tolerance loosens the live-driver bands only: sim's exact
        # comparison is the determinism contract and stays exact
        tol = tolerance if result.driver in ("threaded", "process") else None
        diff = compare_to_baseline(result, root, horizon=args.horizon, tolerance=tol)
        run_rows.append((name, result.driver, checks, diff))
    rows = [
        (name if driver == "sim" else f"{name} [{driver}]", checks, diff)
        for name, driver, checks, diff in run_rows
    ]
    title = (
        f"Scenario expectations & baselines — profile {profile.name}, "
        f"driver {args.driver}, {args.dispatch} dispatch"
    )
    text = render_report(title, rows)
    violations = sum(
        1 for _, checks, _ in rows for c in checks if not c.passed and not c.skipped
    )
    drifted = sum(1 for _, _, diff in rows if not diff.clean)
    code = 1 if violations or drifted else 0
    payload = {
        "profile": profile.name,
        "driver": args.driver,
        "scenarios": names,
        "violations": violations,
        "baseline_failures": drifted,
        "exit_code": code,
        "runs": [
            {"scenario": name, "driver": driver, "checks": checks, "baseline": diff}
            for name, driver, checks, diff in run_rows
        ],
    }
    return text, payload, code


def _run_fuzz_scenarios(profile, args) -> tuple[str, dict, int]:
    """Seeded spec fuzzing. Returns (report text, JSON payload, exit code).

    Cases run at the smoke frame of ``--profile`` (the fuzzer's scale
    contract: a 200-case sweep answers in minutes). Every failure line
    ends with a standalone repro command carrying the seed and index, so
    a red nightly reproduces locally with a copy-paste.
    """
    from repro.scenarios.fuzz import run_fuzz

    drivers = ["sim", "threaded"] if args.driver == "both" else [args.driver]
    indices = args.only if args.only else None
    chunks: list[str] = []
    reports = []
    failures = 0
    for driver in drivers:
        report = run_fuzz(
            args.seed,
            count=args.count,
            profile=args.profile,  # base name (or None: active profile)
            driver=driver,
            jobs=args.jobs,
            dispatch=args.dispatch,
            horizon=args.horizon,
            indices=indices,
        )
        reports.append(report)
        failures += len(report.failing_indices)
        passed = sum(1 for o in report.outcomes if o.passed)
        lines = [
            f"Fuzz sweep — seed {report.seed}, {report.count} case(s), "
            f"{driver} driver ({report.profile})",
            f"  {passed}/{report.count} passed",
        ]
        for o in report.outcomes:
            if o.passed:
                continue
            lines.append(f"  FAIL case {o.index} ({o.name}): {o.summary}")
            for c in o.checks:
                if not c.passed and not c.skipped:
                    lines.append(
                        f"       {c.expectation}: observed {c.observed} "
                        f"vs bound {c.bound}"
                    )
            lines.append(f"       repro: {o.repro}")
        chunks.append("\n".join(lines))
    payload = {
        "seed": args.seed,
        "drivers": drivers,
        "failures": failures,
        "reports": reports,
    }
    return "\n\n".join(chunks), payload, 1 if failures else 0


def _run_bisect_scenario(profile, args) -> tuple[str, dict, int]:
    """Drift bisection: shrink a failing scenario to its offending core.

    Returns (report text, JSON payload, exit code): 0 when a minimal
    subset was found, 2 when the spec does not fail (nothing to bisect).
    """
    from repro.scenarios.bisect import (
        bisect_spec,
        expectation_predicate,
        git_bisect_command,
    )
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.runner import smoke_profile

    conditions = None
    if args.fuzz_seed is not None:
        from repro.scenarios.fuzz import ScenarioFuzzer

        if args.index is None:
            raise SystemExit("bisect-scenario --fuzz-seed needs --index")
        fuzzer = ScenarioFuzzer(args.fuzz_seed, profile=smoke_profile(profile))
        case = fuzzer.case(args.index)
        spec, conditions = case.spec, case.conditions
        run_profile = fuzzer.profile
        subject = f"fuzz case {args.fuzz_seed}/{args.index} ({spec.name})"
    elif args.names:
        if len(args.names) != 1:
            raise SystemExit("bisect-scenario takes exactly one scenario name")
        if args.quick:
            profile = smoke_profile(profile)
        spec = get_scenario(args.names[0], profile)
        run_profile = profile
        subject = f"scenario {spec.name!r}"
    else:
        raise SystemExit(
            "bisect-scenario needs a scenario name or --fuzz-seed/--index"
        )
    failing = expectation_predicate(
        run_profile.name, dispatch=args.dispatch, horizon=args.horizon
    )
    try:
        result = bisect_spec(spec, failing, conditions=conditions)
    except ValueError as exc:
        text = f"{subject}: {exc}"
        return text, {"subject": subject, "reduced": False, "reason": str(exc)}, 2
    lines = [f"Bisected {subject} in {result.tests} run(s):"]
    if result.base_fails:
        lines.append(
            "  the failure persists with every condition removed — the base "
            "spec (workload/topology/protocol) is the culprit, not a condition"
        )
    elif not result.minimal:
        lines.append("  (empty subset)")
    else:
        lines.append(f"  minimal offending subset, {len(result.minimal)} unit(s):")
        for label in result.labels:
            lines.append(f"    - {label}")
    if args.git_hint:
        repro = (
            f"PYTHONPATH=src python -m repro.experiments bisect-scenario "
            + (
                f"--fuzz-seed {args.fuzz_seed} --index {args.index}"
                if args.fuzz_seed is not None
                else args.names[0]
            )
        )
        lines.append("  bisect over history instead:")
        lines.append(f"    {git_bisect_command(repro, good=args.git_hint)}")
    payload = {
        "subject": subject,
        "reduced": True,
        "base_fails": result.base_fails,
        "tests": result.tests,
        "minimal": list(result.labels),
    }
    return "\n".join(lines), payload, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures and run "
        "registered scenarios.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile",
        default=None,
        help="scale profile: quick (default) or paper; also via REPRO_PROFILE",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweeps/matrices (results are identical "
        "to --jobs 1; only the wall clock changes)",
    )
    common.add_argument(
        "--iterations",
        type=int,
        default=5,
        help="bisection iterations for calibration-based figures",
    )
    common.add_argument(
        "--buffers",
        type=int,
        nargs="*",
        default=None,
        help="buffer sizes for the calibrate command",
    )
    common.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the rendered tables to this file",
    )
    common.add_argument(
        "--json",
        default=None,
        help="also write the raw results as machine-readable JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in sorted([*_COMMANDS, "all"]):
        sub.add_parser(
            name,
            parents=[common],
            help=(
                "run every figure" if name == "all"
                else f"regenerate {name}" if name.startswith("figure")
                else "measure tau and per-buffer max rates"
            ),
        )
    def scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("names", nargs="*", help="registered scenario names")
        p.add_argument(
            "--all", action="store_true", help="run every registered scenario"
        )
        p.add_argument(
            "--driver",
            choices=["sim", "threaded", "process", "both"],
            default="sim",
            help="execution driver (default sim; 'both' = sim + threaded)",
        )
        p.add_argument(
            "--dispatch",
            choices=["batched", "vector"],
            default="batched",
            help="sim round-dispatch mode (results are byte-identical)",
        )
        p.add_argument(
            "--horizon",
            type=float,
            default=None,
            help="shrink each scenario to this many simulated seconds",
        )
        p.add_argument(
            "--quick",
            action="store_true",
            help="smoke scale: small group, short horizon, light load",
        )

    runner = sub.add_parser(
        "run-scenario",
        parents=[common],
        help="run named scenarios from the registry (sim, threaded or "
        "process driver)",
    )
    scenario_args(runner)
    checker = sub.add_parser(
        "check-scenarios",
        parents=[common],
        help="evaluate scenario expectations and diff metrics against the "
        "checked-in baselines; nonzero exit on violation or drift",
    )
    scenario_args(checker)
    checker.add_argument(
        "--update-baselines",
        action="store_true",
        help="re-capture the baseline snapshots instead of diffing (the "
        "blessing workflow after an intentional behaviour change)",
    )
    checker.add_argument(
        "--baseline-dir",
        default=None,
        help="baseline directory (default baselines/scenarios/)",
    )
    checker.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative drift band for threaded/process comparisons (default "
        "0.5); sim always compares exactly — that is the determinism contract",
    )
    sub.add_parser(
        "list-scenarios",
        parents=[common],
        help="list every registered scenario with its summary",
    )
    fuzzer = sub.add_parser(
        "fuzz-scenarios",
        parents=[common],
        help="run seeded random scenario compositions with property-style "
        "expectations; nonzero exit on any failure, each with a repro command",
    )
    fuzzer.add_argument("--seed", type=int, required=True, help="fuzzer root seed")
    fuzzer.add_argument(
        "--count", type=int, default=20, help="cases to generate (default 20)"
    )
    fuzzer.add_argument(
        "--only",
        type=int,
        nargs="*",
        default=None,
        metavar="INDEX",
        help="run only these case indices (the repro path)",
    )
    fuzzer.add_argument(
        "--driver",
        choices=["sim", "threaded", "both"],
        default="sim",
        help="execution driver (default sim)",
    )
    fuzzer.add_argument(
        "--dispatch",
        choices=["batched", "vector"],
        default="batched",
        help="sim round-dispatch mode (results are byte-identical)",
    )
    fuzzer.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="shrink each case to this many simulated seconds",
    )
    bisecter = sub.add_parser(
        "bisect-scenario",
        parents=[common],
        help="delta-debug a failing scenario (or fuzz case) down to the "
        "minimal offending condition subset",
    )
    bisecter.add_argument(
        "names", nargs="*", help="one registered scenario name (or use --fuzz-seed)"
    )
    bisecter.add_argument(
        "--fuzz-seed",
        type=int,
        default=None,
        help="bisect a fuzz case instead: the fuzzer root seed",
    )
    bisecter.add_argument(
        "--index", type=int, default=None, help="the fuzz case index (with --fuzz-seed)"
    )
    bisecter.add_argument(
        "--dispatch",
        choices=["batched", "vector"],
        default="batched",
        help="sim round-dispatch mode for the predicate runs",
    )
    bisecter.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="shrink predicate runs to this many simulated seconds",
    )
    bisecter.add_argument(
        "--quick",
        action="store_true",
        help="smoke scale for registry scenarios (fuzz cases always use it)",
    )
    bisecter.add_argument(
        "--git-hint",
        default=None,
        metavar="GOOD_SHA",
        help="also print the `git bisect run` recipe from this known-good sha",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profile = get_profile(args.profile)
    code = 0
    if args.command == "check-scenarios":
        text, payload, code = _run_check_scenarios(profile, args)
        payloads = {"check-scenarios": payload}
    elif args.command == "fuzz-scenarios":
        text, payload, code = _run_fuzz_scenarios(profile, args)
        payloads = {"fuzz-scenarios": payload}
    elif args.command == "bisect-scenario":
        text, payload, code = _run_bisect_scenario(profile, args)
        payloads = {"bisect-scenario": payload}
    elif args.command == "run-scenario":
        text, payload = _run_run_scenario(profile, args)
        payloads = {"run-scenario": payload}
    elif args.command == "list-scenarios":
        text, payload = _run_list_scenarios(profile, args)
        payloads = {"list-scenarios": payload}
    else:
        names = sorted(_COMMANDS) if args.command == "all" else [args.command]
        chunks = []
        payloads = {}
        for name in names:
            chunk, payload = _COMMANDS[name](profile, args)
            chunks.append(chunk)
            payloads[name] = payload
        text = "\n\n".join(chunks)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        doc = {
            "profile": profile.name,
            "jobs": args.jobs,
            "results": {name: to_jsonable(payload) for name, payload in payloads.items()},
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code
