"""Seeded scenario fuzzing: thousands of valid specs from one integer.

The registry's scenarios are hand-written; this module *generates* them.
:class:`ScenarioFuzzer` derives one RNG per case index from a root seed
(:func:`~repro.sim.rng.derive_seed`, the repo's named-stream convention)
and composes a random — but always *valid* — :class:`ScenarioSpec`:
topology x faults x churn x workload, with window times allocated so no
two windows of one knob family overlap (the :class:`FaultScript`
validity bound). The same ``(seed, index)`` pair always produces the
same spec, so a nightly failure reproduces locally from the printed
command alone.

Instead of checked-in baselines, fuzzed specs carry *property-style*
expectations computed from the conditions themselves:

* a reliability floor as a function of the total injected loss exposure
  (the tuneable-robustness family: more injected adversity lowers the
  floor, but never below a collapse threshold);
* ``NoDroppedSenders`` whenever no crash window can silence anyone;
* a convergence bound whenever no partition can stall dissemination;
* a generous redundancy ceiling (evaluated on both drivers).

:func:`run_fuzz` executes a batch on either driver — the sim path
shards through :func:`~repro.experiments.sweep.run_spec_checks` (same
pool, same job-count determinism as ``check-scenarios``); the threaded
path runs serially (each run is wall-clock-paced) and additionally
fails a case whose conditions did not all lower (``skipped_count != 0``
is a parity bug, not bad luck).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from repro.scenarios.conditions import (
    BandwidthCap,
    BufferSqueeze,
    CorrelatedLoss,
    CrashGroup,
    LoadSpike,
    LossyLinks,
    OneWayPartition,
    Partition,
    RollingChurn,
    SlowReceivers,
)
from repro.scenarios.expectations import (
    ConvergenceWithin,
    NoDroppedSenders,
    RedundancyAtMost,
    ReliabilityAtLeast,
)
from repro.scenarios.spec import (
    FixedLinks,
    HeavyTailLinks,
    LanLinks,
    ScenarioSpec,
    SenderSpec,
    WanClusters,
)
from repro.sim.faults import CrashWindow
from repro.sim.network import BernoulliLoss
from repro.sim.rng import derive_seed

__all__ = [
    "FuzzCase",
    "FuzzOutcome",
    "FuzzReport",
    "ScenarioFuzzer",
    "run_fuzz",
]

# window-family keys for the no-overlap slot allocator; mirrors
# faults._EXCLUSIVE_FAMILIES (conditions of one family must not overlap,
# different families may — that composition is exactly what we fuzz)
_FAMILY = {
    CorrelatedLoss: "loss",
    LossyLinks: "link-loss",
    Partition: "partition",
    OneWayPartition: "oneway",
    BandwidthCap: "cap",
}


def _snap_restarts(spec: ScenarioSpec) -> ScenarioSpec:
    """Snap restart/join instants to the round grid of ``spec``.

    The columnar mega lane only re-admits nodes on tick boundaries, so
    mega-regime cases align their lifecycle re-entries with the gossip
    period; crash/leave times and window edges need no alignment. The
    shift is at most half a period — noise next to the rejoin delays the
    fuzzer draws — and keeps restarts strictly after their crashes.
    """
    period = spec.system.gossip_period

    def snap(t: float) -> float:
        return round(t / period) * period

    faults = dataclasses.replace(
        spec.faults,
        faults=[
            dataclasses.replace(f, restart_at=snap(f.restart_at))
            if isinstance(f, CrashWindow) and f.restart_at is not None
            else f
            for f in spec.faults.faults
        ],
    )
    churn = dataclasses.replace(
        spec.churn,
        events=[
            dataclasses.replace(e, time=snap(e.time)) if e.action == "join" else e
            for e in spec.churn.events
        ],
    )
    return dataclasses.replace(spec, faults=faults, churn=churn)


@dataclass(frozen=True)
class FuzzCase:
    """One generated scenario: the spec, its recipe, and its provenance."""

    index: int
    seed: int  # the fuzzer's root seed (not the spec's derived seed)
    spec: ScenarioSpec
    conditions: tuple = ()  # condition objects applied, in order
    loss_exposure: float = 0.0  # the injected-loss budget behind the floor

    @property
    def name(self) -> str:
        return self.spec.name

    def repro_command(self, driver: str = "sim", profile: Optional[str] = None) -> str:
        """A standalone shell command that re-runs exactly this case."""
        cmd = (
            "PYTHONPATH=src python -m repro.experiments fuzz-scenarios "
            f"--seed {self.seed} --only {self.index} --driver {driver}"
        )
        if profile:
            cmd += f" --profile {profile}"
        return cmd


class ScenarioFuzzer:
    """Generates valid random scenario compositions from a single seed.

    ``profile`` sets the scale frame (group size, horizon, load range);
    defaults to the smoke-shrunken active profile so a 200-case sweep
    stays tractable. Case ``i`` depends only on ``(seed, i)`` — never on
    the cases generated before it — so ``--only 17`` reproduces case 17
    without generating 0..16.
    """

    def __init__(self, seed: int, profile=None) -> None:
        from repro.experiments.profiles import get_profile
        from repro.scenarios.runner import smoke_profile

        self.seed = seed
        self.profile = profile if profile is not None else smoke_profile(get_profile())

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def case(self, index: int) -> FuzzCase:
        """Generate case ``index`` (deterministic in ``(seed, index)``)."""
        rng = Random(derive_seed(self.seed, "fuzz", index))
        prof = self.profile
        n_nodes = prof.n_nodes
        duration, warmup, drain = prof.duration, prof.warmup, prof.drain

        n_senders = rng.randint(1, max(1, min(prof.n_senders, n_nodes // 4)))
        stride = max(1, n_nodes // n_senders)
        total_load = prof.offered_load * rng.uniform(0.4, 1.0)
        arrivals = rng.choice(("periodic", "poisson", "onoff"))
        senders = tuple(
            SenderSpec(
                node=(i * stride) % n_nodes,
                rate=total_load / n_senders,
                arrivals=arrivals,
                on=duration * 0.15,
                off=duration * 0.1,
            )
            for i in range(n_senders)
        )
        # one case in four fuzzes the mega regime: baseline lpbcast on a
        # round-synchronous schedule over constant links — the shape the
        # columnar lane accelerates, so `--dispatch vector` sweeps get
        # genuine chaos-on-the-mega-lane coverage instead of 100% fallback
        mega = rng.random() < 0.25
        topology = (
            FixedLinks(0.01)
            if mega
            else rng.choice(
                (None, LanLinks(), FixedLinks(0.01), HeavyTailLinks(), WanClusters(2))
            )
        )
        baseline_p = rng.choice((0.0, 0.0, 0.0, 0.01, 0.05))
        buffer = rng.choice((20, 30, 45, 60))
        system = prof.system(buffer)
        if mega:
            system = dataclasses.replace(system, round_phase=0.0, round_jitter=0.0)

        conditions = self._draw_conditions(rng, duration, warmup, drain, total_load)
        base = ScenarioSpec(
            name=f"fuzz-{self.seed}-{index}",
            summary=("fuzzed mega " if mega else "fuzzed ")
            + "composition "
            + (" + ".join(type(c).__name__ for c in conditions) or "(no conditions)"),
            n_nodes=n_nodes,
            protocol="lpbcast" if mega else "adaptive",
            system=system,
            topology=topology,
            baseline_loss=BernoulliLoss(baseline_p) if baseline_p > 0 else None,
            senders=senders,
            duration=duration,
            warmup=warmup,
            drain=drain,
            seed=derive_seed(self.seed, "fuzz-spec", index) % 2**31,
        )
        spec = base.stressed(*conditions)
        if mega:
            spec = _snap_restarts(spec)
        spec, exposure = self._attach_properties(spec, conditions, baseline_p, mega)
        return FuzzCase(
            index=index,
            seed=self.seed,
            spec=spec,
            conditions=tuple(conditions),
            loss_exposure=exposure,
        )

    def cases(self, count: int, indices=None) -> list[FuzzCase]:
        """The first ``count`` cases, or exactly the given ``indices``."""
        if indices:
            return [self.case(i) for i in indices]
        return [self.case(i) for i in range(count)]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _draw_conditions(self, rng, duration, warmup, drain, total_load) -> list:
        """0..4 conditions with per-family non-overlapping windows."""
        occupied: dict[str, list[tuple[float, float]]] = {}

        def slot(family: str, max_frac: float = 0.3):
            """A window inside the run that overlaps nothing of ``family``."""
            for _ in range(8):
                length = duration * rng.uniform(0.1, max_frac)
                start = rng.uniform(duration * 0.15, duration * 0.85 - length)
                if all(
                    start >= t1 or start + length <= t0
                    for t0, t1 in occupied.get(family, ())
                ):
                    occupied.setdefault(family, []).append((start, start + length))
                    return start, length
            return None  # family too crowded: skip this condition

        conditions: list = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice(
                (
                    CorrelatedLoss,
                    LossyLinks,
                    Partition,
                    OneWayPartition,
                    BandwidthCap,
                    CrashGroup,
                    RollingChurn,
                    BufferSqueeze,
                    LoadSpike,
                    SlowReceivers,
                )
            )
            family = _FAMILY.get(kind)
            window = slot(family) if family is not None else None
            if family is not None and window is None:
                continue
            # lifecycle conditions (crash-restart, churn-rejoin) both
            # resolve `fraction` to the highest-id non-senders, so two of
            # them respawn the same node twice — at most one per spec
            if kind in (CrashGroup, RollingChurn) and any(
                isinstance(c, (CrashGroup, RollingChurn)) for c in conditions
            ):
                continue
            if kind is CorrelatedLoss:
                conditions.append(
                    CorrelatedLoss(window[0], window[1], p=rng.uniform(0.2, 0.8))
                )
            elif kind is LossyLinks:
                conditions.append(
                    LossyLinks(
                        window[0],
                        window[1],
                        p=rng.uniform(0.3, 0.9),
                        fraction=rng.uniform(0.1, 0.3),
                    )
                )
            elif kind is Partition:
                conditions.append(
                    Partition(window[0], window[1], n_groups=rng.choice((2, 3)))
                )
            elif kind is OneWayPartition:
                conditions.append(
                    OneWayPartition(
                        window[0],
                        window[1],
                        n_groups=2,
                        blocked=rng.choice((((0, 1),), ((1, 0),))),
                    )
                )
            elif kind is BandwidthCap:
                conditions.append(
                    BandwidthCap(
                        window[0], window[1], rate=total_load * rng.uniform(1.5, 4.0)
                    )
                )
            elif kind is CrashGroup:
                t = rng.uniform(duration * 0.2, duration * 0.6)
                conditions.append(
                    CrashGroup(
                        time=t,
                        fraction=rng.uniform(0.1, 0.2),
                        restart_after=duration * rng.uniform(0.15, 0.3),
                    )
                )
            elif kind is RollingChurn:
                conditions.append(
                    RollingChurn(
                        start=duration * 0.2,
                        interval=duration * 0.1,
                        fraction=rng.uniform(0.1, 0.2),
                        rejoin_after=duration * 0.15,
                        action="leave",
                    )
                )
            elif kind is BufferSqueeze:
                if any(isinstance(c, BufferSqueeze) for c in conditions):
                    continue
                t = rng.uniform(duration * 0.2, duration * 0.5)
                capacity = rng.choice((8, 12, 16))
                conditions.append(
                    BufferSqueeze(
                        time=t,
                        capacity=capacity,
                        fraction=rng.uniform(0.1, 0.25),
                        restore_at=t + duration * 0.25,
                        restore_to=capacity * 2,
                    )
                )
            elif kind is LoadSpike:
                if any(isinstance(c, LoadSpike) for c in conditions):
                    continue
                t = rng.uniform(duration * 0.2, duration * 0.6)
                conditions.append(
                    LoadSpike(t, duration * rng.uniform(0.1, 0.25), factor=rng.uniform(1.5, 3.0))
                )
            else:  # SlowReceivers
                if any(isinstance(c, SlowReceivers) for c in conditions):
                    continue
                conditions.append(
                    SlowReceivers(
                        capacity=rng.choice((10, 14, 18)),
                        fraction=rng.uniform(0.1, 0.25),
                    )
                )
        return conditions

    def _attach_properties(
        self, spec, conditions, baseline_p, mega: bool = False
    ) -> tuple[ScenarioSpec, float]:
        """Property expectations from the injected adversity itself."""
        w0, w1 = spec.window
        measure = max(w1 - w0, 1e-9)

        def overlap(t, d) -> float:
            return max(0.0, min(t + d, w1) - max(t, w0)) / measure

        exposure = baseline_p
        for c in conditions:
            if isinstance(c, CorrelatedLoss):
                exposure += c.p * overlap(c.time, c.duration)
            elif isinstance(c, LossyLinks):
                # flaky nodes degrade ~2*fraction of directed links
                frac = c.fraction if c.fraction is not None else 0.2
                exposure += c.p * min(1.0, 2 * frac) * overlap(c.time, c.duration)
            elif isinstance(c, Partition):
                exposure += overlap(c.time, c.duration)
            elif isinstance(c, OneWayPartition):
                exposure += 0.7 * overlap(c.time, c.duration)
            elif isinstance(c, BandwidthCap):
                exposure += 0.3 * overlap(c.time, c.duration)
            elif isinstance(c, CrashGroup):
                exposure += c.fraction if c.fraction is not None else 0.15
            elif isinstance(c, (RollingChurn, BufferSqueeze, SlowReceivers)):
                exposure += 0.1
        # baseline lpbcast has no adaptive rate control to lean on: the
        # regime itself counts as exposure (~0.05 off the floor), and so
        # does offered load beyond what the buffer absorbs per round
        # (spikes included). Folding both into ``exposure`` — rather
        # than using a separate base floor — keeps the floor a pure
        # monotone function of the recorded exposure.
        if mega:
            exposure += 0.034
            peak = spec.offered_load
            for c in conditions:
                if isinstance(c, LoadSpike):
                    peak *= c.factor
            capacity = spec.system.buffer_capacity
            overload = max(0.0, peak * spec.system.gossip_period - capacity)
            exposure += 0.5 * overload / capacity
        floor = max(0.05, 0.9 - 1.5 * exposure)
        # lpbcast re-gossips every buffered event each round, so its
        # redundancy ceiling is the structural fanout x max_age bound
        # rather than the adaptive protocol's tuned ~20
        ceiling = (
            float(spec.system.fanout * spec.system.max_age) if mega else 20.0
        )
        expectations = [
            ReliabilityAtLeast(round(floor, 3), metric="avg_receiver_fraction"),
            RedundancyAtMost(ceiling),
        ]
        crashy = any(isinstance(f, CrashWindow) for f in spec.faults.faults)
        churny = len(spec.churn) > 0
        if not crashy and not churny:
            expectations.append(NoDroppedSenders())
        # convergence_rounds turns NaN (a *failure*, not a skip) when no
        # message completes; only promise it when nothing can stall or
        # shrink the group mid-flight
        cut = any(isinstance(c, (Partition, OneWayPartition)) for c in conditions)
        if not cut and not crashy and not churny:
            expectations.append(ConvergenceWithin(14.0))
        return spec.expecting(*expectations), exposure


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzOutcome:
    """One case's verdict on one driver."""

    index: int
    name: str
    driver: str
    passed: bool
    summary: str = ""
    checks: tuple = ()  # ExpectationChecks (sim) or parity notes (threaded)
    repro: str = ""  # standalone command reproducing the failure ("" if passed)


@dataclass(frozen=True)
class FuzzReport:
    """A whole fuzz batch: seed, scale frame, and per-case outcomes."""

    seed: int
    count: int
    driver: str
    profile: str
    outcomes: tuple[FuzzOutcome, ...] = ()
    failing_indices: tuple[int, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failing_indices


def _run_fuzz_sim(cases, profile, jobs, dispatch, horizon, flag) -> list[FuzzOutcome]:
    from repro.experiments.sweep import run_spec_checks

    checks = run_spec_checks(
        [case.spec for case in cases],
        profile_name=profile.name,
        jobs=jobs,
        dispatch=dispatch,
        horizon=horizon,
    )
    outcomes = []
    for case, check in zip(cases, checks):
        failures = check.failures
        outcomes.append(
            FuzzOutcome(
                index=case.index,
                name=case.name,
                driver="sim",
                passed=not failures,
                summary=case.spec.summary,
                checks=check.checks,
                repro="" if not failures else case.repro_command("sim", flag),
            )
        )
    return outcomes


def _run_fuzz_threaded(cases, profile, horizon, flag) -> list[FuzzOutcome]:
    from repro.scenarios.expectations import ScenarioResult, evaluate_expectations
    from repro.scenarios.runner import run_scenario_threaded

    outcomes = []
    for case in cases:
        spec = case.spec if horizon is None else case.spec.with_horizon(horizon)
        report = run_scenario_threaded(spec)
        result = ScenarioResult.from_run(report.result, profile.name, report.driver)
        checks = evaluate_expectations(spec.expectations, result)
        # expectation failures plus the parity property: everything the
        # spec declares must have lowered onto the runtime
        failed = any(not c.passed and not c.skipped for c in checks)
        parity_ok = report.skipped_count == 0
        outcomes.append(
            FuzzOutcome(
                index=case.index,
                name=case.name,
                driver="threaded",
                passed=(not failed) and parity_ok,
                summary=case.spec.summary
                + ("" if parity_ok else f" [PARITY: skipped={report.skipped}]"),
                checks=checks,
                repro=""
                if (not failed) and parity_ok
                else case.repro_command("threaded", flag),
            )
        )
    return outcomes


def run_fuzz(
    seed: int,
    count: int = 20,
    profile=None,
    driver: str = "sim",
    jobs: int = 1,
    dispatch: str = "batched",
    horizon: Optional[float] = None,
    indices=None,
) -> FuzzReport:
    """Generate and check a fuzz batch; see the module docstring.

    ``profile`` may be a base-profile *name* (``"quick"``, ``"paper"``
    — resolved and smoke-shrunk like the CLI does), an already-built
    :class:`Profile`, or None for the active profile's smoke frame.
    ``indices`` restricts the batch to specific case indices (the
    ``--only`` repro path). ``jobs`` shards the sim path through the
    sweep pool; the threaded path is wall-clock-paced and runs serially.
    """
    flag = None
    if isinstance(profile, str):
        from repro.experiments.profiles import get_profile
        from repro.scenarios.runner import smoke_profile

        flag = profile
        profile = smoke_profile(get_profile(profile))
    fuzzer = ScenarioFuzzer(seed, profile=profile)
    cases = fuzzer.cases(count, indices=indices)
    if driver == "sim":
        outcomes = _run_fuzz_sim(cases, fuzzer.profile, jobs, dispatch, horizon, flag)
    elif driver == "threaded":
        outcomes = _run_fuzz_threaded(cases, fuzzer.profile, horizon, flag)
    else:
        raise ValueError(f"unknown driver {driver!r}; choose 'sim' or 'threaded'")
    return FuzzReport(
        seed=seed,
        count=len(cases),
        driver=driver,
        profile=fuzzer.profile.name,
        outcomes=tuple(outcomes),
        failing_indices=tuple(o.index for o in outcomes if not o.passed),
    )
