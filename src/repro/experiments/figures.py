"""One experiment function per figure of the paper's evaluation.

Each function returns a small result dataclass holding exactly the
series the paper plots, ready for :mod:`repro.experiments.report` to
render and for the benchmarks to assert shape properties on.

Figures 6, 7(a–c) and 8(a–b) all come from the *same* buffer sweep with
the baseline and the adaptive protocol (the paper runs one series of
simulations and reads several figures off it); the shared sweep is
:func:`buffer_sweep_comparison` and the figure functions are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.config import AdaptiveConfig
from repro.experiments.calibrate import CalibrationResult, calibrate
from repro.experiments.harness import RunResult, run_once, spec_for_profile
from repro.experiments.sweep import run_specs
from repro.experiments.profiles import Profile
from repro.metrics.delivery import analyze_delivery, atomicity_series
from repro.workload.cluster import SimCluster
from repro.workload.dynamics import ResourceScript

__all__ = [
    "Figure2Row",
    "Figure2Result",
    "figure2",
    "figure4",
    "SweepPair",
    "buffer_sweep_comparison",
    "Figure6Row",
    "Figure6Result",
    "figure6",
    "Figure7Row",
    "Figure7Result",
    "figure7",
    "Figure8Row",
    "Figure8Result",
    "figure8",
    "Figure9Result",
    "figure9",
]


# ----------------------------------------------------------------------
# Figure 2 — reliability degradation vs input rate (static resources)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Figure2Row:
    input_rate: float
    atomicity_pct: float  # messages to >95% of receivers (%)
    avg_receiver_pct: float
    drop_age: float  # mean age of dropped events at this load


@dataclass(frozen=True)
class Figure2Result:
    buffer_capacity: int
    rows: tuple[Figure2Row, ...]


def figure2(
    profile: Profile, buffer_capacity: Optional[int] = None, jobs: int = 1
) -> Figure2Result:
    """Reproduce Figure 2 (plus §2.1's drop-age narrative).

    The baseline protocol with a fixed buffer is driven at increasing
    offered loads; reliability collapses and the drop age falls with it.
    """
    capacity = buffer_capacity if buffer_capacity is not None else profile.fig2_buffer
    results = run_specs(
        [
            spec_for_profile(
                profile, "lpbcast", buffer_capacity=capacity, offered_load=rate
            )
            for rate in profile.input_rates
        ],
        jobs=jobs,
    )
    rows = [
        Figure2Row(
            input_rate=rate,
            atomicity_pct=result.delivery.atomicity_pct,
            avg_receiver_pct=result.delivery.avg_receiver_pct,
            drop_age=result.drop_age_mean,
        )
        for rate, result in zip(profile.input_rates, results)
    ]
    return Figure2Result(buffer_capacity=capacity, rows=tuple(rows))


# ----------------------------------------------------------------------
# Figure 4 — maximum input rate vs buffer size (the calibration)
# ----------------------------------------------------------------------
def figure4(profile: Profile, iterations: int = 6) -> CalibrationResult:
    """Reproduce Figure 4: the calibration sweep (see calibrate module)."""
    return calibrate(profile, iterations=iterations)


# ----------------------------------------------------------------------
# shared buffer sweep for Figures 6, 7, 8
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SweepPair:
    buffer_capacity: int
    lpbcast: RunResult
    adaptive: RunResult


def buffer_sweep_comparison(
    profile: Profile,
    adaptive: Optional[AdaptiveConfig] = None,
    buffer_sizes: Optional[tuple[int, ...]] = None,
    jobs: int = 1,
) -> tuple[SweepPair, ...]:
    """Run baseline and adaptive at constant offered load over the sweep.

    ``jobs`` shards the runs across processes; results are identical to
    a serial sweep (each run is seed-isolated).
    """
    if adaptive is None:
        adaptive = AdaptiveConfig(age_critical=profile.tau_hint)
    sizes = buffer_sizes if buffer_sizes is not None else profile.buffer_sizes
    specs = []
    for capacity in sizes:
        specs.append(spec_for_profile(profile, "lpbcast", buffer_capacity=capacity))
        specs.append(
            spec_for_profile(
                profile, "adaptive", buffer_capacity=capacity, adaptive=adaptive
            )
        )
    results = run_specs(specs, jobs=jobs)
    return tuple(
        SweepPair(capacity, results[2 * i], results[2 * i + 1])
        for i, capacity in enumerate(sizes)
    )


# ----------------------------------------------------------------------
# Figure 6 — ideal and adaptive rates
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Figure6Row:
    buffer_capacity: int
    offered: float
    allowed: float  # the adaptive mechanism's computed grant (total)
    maximum: float  # the calibrated "ideal" maximum rate


@dataclass(frozen=True)
class Figure6Result:
    rows: tuple[Figure6Row, ...]


def figure6(
    profile: Profile,
    sweep: Optional[tuple[SweepPair, ...]] = None,
    calibration: Optional[CalibrationResult] = None,
) -> Figure6Result:
    """Reproduce Figure 6.

    ``maximum`` comes from a provided calibration, falling back to the
    profile's measured hints so this figure does not force a re-run of
    the (slow) Figure 4 bisections.
    """
    if sweep is None:
        sweep = buffer_sweep_comparison(profile)
    rows = []
    for pair in sweep:
        if calibration is not None:
            maximum = calibration.max_rate_for(pair.buffer_capacity)
        else:
            maximum = profile.max_rate_hints.get(pair.buffer_capacity, math.nan)
        rows.append(
            Figure6Row(
                buffer_capacity=pair.buffer_capacity,
                offered=pair.adaptive.offered_rate,
                allowed=pair.adaptive.allowed_rate_total,
                maximum=maximum,
            )
        )
    return Figure6Result(rows=tuple(rows))


# ----------------------------------------------------------------------
# Figure 7 — input rate, output rate, drop ages
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Figure7Row:
    buffer_capacity: int
    input_lpbcast: float
    input_adaptive: float
    output_lpbcast: float
    output_adaptive: float
    drop_age_lpbcast: float
    drop_age_adaptive: float


@dataclass(frozen=True)
class Figure7Result:
    rows: tuple[Figure7Row, ...]


def figure7(
    profile: Profile, sweep: Optional[tuple[SweepPair, ...]] = None
) -> Figure7Result:
    """Reproduce Figures 7(a), 7(b) and 7(c) from the shared sweep."""
    if sweep is None:
        sweep = buffer_sweep_comparison(profile)
    rows = [
        Figure7Row(
            buffer_capacity=pair.buffer_capacity,
            input_lpbcast=pair.lpbcast.input_rate,
            input_adaptive=pair.adaptive.input_rate,
            output_lpbcast=pair.lpbcast.output_rate,
            output_adaptive=pair.adaptive.output_rate,
            drop_age_lpbcast=pair.lpbcast.drop_age_mean,
            drop_age_adaptive=pair.adaptive.drop_age_mean,
        )
        for pair in sweep
    ]
    return Figure7Result(rows=tuple(rows))


# ----------------------------------------------------------------------
# Figure 8 — reliability degradation, baseline vs adaptive
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Figure8Row:
    buffer_capacity: int
    avg_receiver_pct_lpbcast: float
    avg_receiver_pct_adaptive: float
    atomicity_pct_lpbcast: float
    atomicity_pct_adaptive: float


@dataclass(frozen=True)
class Figure8Result:
    rows: tuple[Figure8Row, ...]


def figure8(
    profile: Profile, sweep: Optional[tuple[SweepPair, ...]] = None
) -> Figure8Result:
    """Reproduce Figures 8(a) and 8(b) from the shared sweep."""
    if sweep is None:
        sweep = buffer_sweep_comparison(profile)
    rows = [
        Figure8Row(
            buffer_capacity=pair.buffer_capacity,
            avg_receiver_pct_lpbcast=pair.lpbcast.delivery.avg_receiver_pct,
            avg_receiver_pct_adaptive=pair.adaptive.delivery.avg_receiver_pct,
            atomicity_pct_lpbcast=pair.lpbcast.delivery.atomicity_pct,
            atomicity_pct_adaptive=pair.adaptive.delivery.atomicity_pct,
        )
        for pair in sweep
    ]
    return Figure8Result(rows=tuple(rows))


# ----------------------------------------------------------------------
# Figure 9 — adaptation to dynamic buffer sizes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure9Result:
    """Time series and per-phase summaries of the dynamic scenario."""

    t1: float
    t2: float
    duration: float
    offered: float
    ideal_rates: tuple[float, float, float]  # per phase (base, low, mid)
    # (time, value) series, bucketed
    allowed_series: tuple[tuple[float, float], ...]  # total allowed rate
    atomicity_adaptive: tuple[tuple[float, float], ...]
    atomicity_lpbcast: tuple[tuple[float, float], ...]
    # per-phase steady-state summaries (last third of each phase)
    allowed_by_phase: tuple[float, float, float]
    atomicity_adaptive_by_phase: tuple[float, float, float]
    atomicity_lpbcast_by_phase: tuple[float, float, float]
    # heterogeneity observation (§4): homogeneous-at-min run for contrast
    atomicity_homogeneous_low: float


def _phase_windows(profile: Profile) -> tuple[tuple[float, float], ...]:
    """Steady-state window of each phase: its last 40% (minus drain)."""
    t1, t2, end = profile.fig9_t1, profile.fig9_t2, profile.fig9_duration
    windows = []
    for start, stop in ((0.0, t1), (t1, t2), (t2, end)):
        span = stop - start
        windows.append((stop - 0.4 * span, stop - min(10.0, 0.1 * span)))
    return tuple(windows)


def _dynamic_cluster(profile: Profile, protocol: str, adaptive: Optional[AdaptiveConfig]):
    system = profile.system(profile.fig9_base_buffer)
    cluster = SimCluster(
        n_nodes=profile.n_nodes,
        system=system,
        protocol=protocol,
        adaptive=adaptive,
        seed=profile.seed,
    )
    senders = profile.sender_ids()
    cluster.add_senders(senders, rate_each=profile.fig9_offered / len(senders))
    # The shrinking nodes: the last `frac` of the id space, so they do
    # not collide with the (stride-placed) senders at typical fractions.
    n_small = max(1, int(profile.fig9_frac * profile.n_nodes))
    small = [profile.n_nodes - 1 - i for i in range(n_small)]
    script = (
        ResourceScript()
        .set_capacity(profile.fig9_t1, small, profile.fig9_low_buffer)
        .set_capacity(profile.fig9_t2, small, profile.fig9_mid_buffer)
    )
    cluster.apply_faults(resources=script)
    return cluster, senders


def figure9(
    profile: Profile, adaptive: Optional[AdaptiveConfig] = None
) -> Figure9Result:
    """Reproduce Figures 9(a) and 9(b)."""
    if adaptive is None:
        adaptive = AdaptiveConfig(age_critical=profile.tau_hint)

    # --- adaptive run -------------------------------------------------
    cluster, senders = _dynamic_cluster(profile, "adaptive", adaptive)
    cluster.run(until=profile.fig9_duration)
    m = cluster.metrics
    n = cluster.group_size
    bucket = 5.0
    allowed_series = []
    for t in range(0, int(profile.fig9_duration), int(bucket)):
        each = m.gauge_mean_over("allowed_rate", senders, t, t + bucket)
        allowed_series.append((float(t), each * len(senders)))
    atom_adaptive = atomicity_series(m, n, bucket, 0.0, profile.fig9_duration)

    windows = _phase_windows(profile)
    allowed_by_phase = tuple(
        m.gauge_mean_over("allowed_rate", senders, w0, w1) * len(senders)
        for (w0, w1) in windows
    )
    atom_adaptive_by_phase = tuple(
        analyze_delivery(m.messages_in_window(w0, w1), n).atomicity for (w0, w1) in windows
    )

    # --- baseline run (same scenario) ---------------------------------
    base_cluster, _ = _dynamic_cluster(profile, "lpbcast", None)
    base_cluster.run(until=profile.fig9_duration)
    bm = base_cluster.metrics
    atom_lpbcast = atomicity_series(bm, n, bucket, 0.0, profile.fig9_duration)
    atom_lpbcast_by_phase = tuple(
        analyze_delivery(bm.messages_in_window(w0, w1), n).atomicity for (w0, w1) in windows
    )

    # --- homogeneous contrast run (§4's 87% vs 92% observation) -------
    # Every node at the low buffer, adaptive protocol, same load: the
    # heterogeneous scenario should do *better* in phase 2 because the
    # untouched nodes keep their full buffers.
    homo = run_once(
        spec_for_profile(
            profile,
            "adaptive",
            buffer_capacity=profile.fig9_low_buffer,
            offered_load=profile.fig9_offered,
            adaptive=adaptive,
        )
    )

    ideal = (
        _hint(profile, profile.fig9_base_buffer),
        _hint(profile, profile.fig9_low_buffer),
        _hint(profile, profile.fig9_mid_buffer),
    )
    return Figure9Result(
        t1=profile.fig9_t1,
        t2=profile.fig9_t2,
        duration=profile.fig9_duration,
        offered=profile.fig9_offered,
        ideal_rates=ideal,
        allowed_series=tuple(allowed_series),
        atomicity_adaptive=tuple(atom_adaptive),
        atomicity_lpbcast=tuple(atom_lpbcast),
        allowed_by_phase=allowed_by_phase,
        atomicity_adaptive_by_phase=atom_adaptive_by_phase,
        atomicity_lpbcast_by_phase=atom_lpbcast_by_phase,
        atomicity_homogeneous_low=homo.delivery.atomicity,
    )


def _hint(profile: Profile, buffer_capacity: int) -> float:
    hints = profile.max_rate_hints
    if buffer_capacity in hints:
        return hints[buffer_capacity]
    sizes = sorted(hints)
    if not sizes:
        return math.nan
    if buffer_capacity <= sizes[0]:
        return hints[sizes[0]] * buffer_capacity / sizes[0]
    for lo, hi in zip(sizes, sizes[1:]):
        if buffer_capacity <= hi:
            frac = (buffer_capacity - lo) / (hi - lo)
            return hints[lo] + frac * (hints[hi] - hints[lo])
    return hints[sizes[-1]]
