"""Experiment scale profiles.

Four profiles are provided:

* ``quick`` — the default. 30 nodes, shorter horizons, a coarser sweep.
  Every figure's *shape* is visible; a full benchmark session runs in
  minutes on a laptop.
* ``paper`` — the paper's scale: 60 processes, the 30..180 buffer sweep,
  longer convergence horizons. Select with ``REPRO_PROFILE=paper``.
* ``mega`` — 10,000 processes for the columnar vector executor
  (:mod:`repro.sim.vector`). Keeps the paper's fanout of 4 and short
  horizons; meant for ``--dispatch vector`` scaling runs and the
  ``mega-flood`` scenario, not for the figure sweeps.
* ``giga`` — 100,000 processes on the same executor. Shorter still;
  meant for ``--dispatch vector`` runs of the ``giga-flood`` scenario.

The paper runs its testbed with a gossip period of 5 s; we default to
1 s so wall-clock-heavy sweeps stay tractable — all rates simply scale by
``1/T``, shapes are unaffected. ``tau_hint`` and ``max_rate_hints``
are *measured* values from :func:`repro.experiments.calibrate.calibrate`
on this codebase, baked in so dependent figures do not have to re-run the
calibration; the Figure 4 benchmark recomputes and checks them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.gossip.config import SystemConfig

__all__ = ["Profile", "QUICK", "PAPER", "MEGA", "GIGA", "get_profile"]


@dataclass(frozen=True)
class Profile:
    """Scale parameters shared by all experiments."""

    name: str
    n_nodes: int
    fanout: int
    gossip_period: float
    n_senders: int
    duration: float  # total simulated seconds per run
    warmup: float  # discarded prefix (estimators converging)
    drain: float  # discarded suffix (messages still propagating)
    buffer_sizes: tuple[int, ...]  # the Figure 4/6/7/8 sweep
    input_rates: tuple[float, ...]  # the Figure 2 sweep (total offered)
    fig2_buffer: int  # static buffer for Figure 2
    offered_load: float  # total offered load for Figures 6/7/8
    max_age: int
    dedup_capacity: int
    seed: int
    tau_hint: float  # measured critical age (Figure 4 procedure)
    # Figure 9 dynamic-buffer scenario (paper §4, "Adaptation to Dynamic
    # Buffer Size"): at t1, `frac` of the nodes shrink from `base` to
    # `low`; at t2 they grow back, but only to `mid`.
    fig9_duration: float = 360.0
    fig9_t1: float = 120.0
    fig9_t2: float = 240.0
    fig9_base_buffer: int = 90
    fig9_low_buffer: int = 45
    fig9_mid_buffer: int = 60
    fig9_frac: float = 0.2
    fig9_offered: float = 60.0
    max_rate_hints: dict[int, float] = field(default_factory=dict)

    def system(self, buffer_capacity: Optional[int] = None) -> SystemConfig:
        """A :class:`SystemConfig` for this profile."""
        return SystemConfig(
            fanout=self.fanout,
            gossip_period=self.gossip_period,
            buffer_capacity=(
                buffer_capacity if buffer_capacity is not None else self.fig2_buffer
            ),
            dedup_capacity=self.dedup_capacity,
            max_age=self.max_age,
        )

    @property
    def measure_window(self) -> tuple[float, float]:
        """The steady-state window [warmup, duration - drain)."""
        return (self.warmup, self.duration - self.drain)

    def sender_ids(self) -> list[int]:
        """Sender placement: spread across the id space."""
        stride = max(1, self.n_nodes // self.n_senders)
        return [(i * stride) % self.n_nodes for i in range(self.n_senders)]


QUICK = Profile(
    name="quick",
    n_nodes=30,
    fanout=4,
    gossip_period=1.0,
    n_senders=6,
    duration=160.0,
    warmup=80.0,
    drain=20.0,
    buffer_sizes=(20, 30, 45, 60, 75, 90),
    input_rates=(10.0, 20.0, 30.0, 45.0, 60.0, 90.0),
    fig2_buffer=30,
    offered_load=60.0,
    max_age=10,
    dedup_capacity=4000,
    seed=2003,
    # Measured with calibrate(QUICK, iterations=6): drop ages at the
    # congestion edge were 4.42..4.49 across the whole sweep — the §2.3
    # constant-age observation reproduces; see EXPERIMENTS.md.
    tau_hint=4.46,
    fig9_duration=360.0,
    fig9_t1=120.0,
    fig9_t2=240.0,
    fig9_base_buffer=90,
    fig9_low_buffer=45,
    fig9_mid_buffer=60,
    fig9_frac=0.2,
    # Above the low/mid-phase capacity (~64 / ~85 msg/s), below the
    # base-phase capacity (~130 msg/s) — the paper's regime.
    fig9_offered=100.0,
    max_rate_hints={20: 28.7, 30: 42.8, 45: 63.9, 60: 85.0, 75: 106.1, 90: 129.9},
)

PAPER = Profile(
    name="paper",
    n_nodes=60,
    fanout=4,
    gossip_period=1.0,
    n_senders=10,
    duration=300.0,
    warmup=150.0,
    drain=30.0,
    buffer_sizes=(30, 60, 90, 120, 150, 180),
    input_rates=(20.0, 40.0, 60.0, 80.0, 100.0, 120.0),
    fig2_buffer=60,
    # Crosses the capacity line near buffer 120, as in the paper's
    # Figure 6 (their 30 msg/s at T=5s ≈ our 160 msg/s at T=1s).
    offered_load=160.0,
    max_age=12,
    dedup_capacity=8000,
    seed=2003,
    # Measured with calibrate(PAPER, iterations=6): drop ages at the
    # congestion edge were 5.21..5.26 across the 30..180 sweep — within
    # 1% of the paper's τ = 5.3 (see EXPERIMENTS.md).
    tau_hint=5.25,
    fig9_duration=450.0,
    fig9_t1=150.0,
    fig9_t2=300.0,
    fig9_base_buffer=90,
    fig9_low_buffer=45,
    fig9_mid_buffer=60,
    fig9_frac=0.2,
    # Above the low/mid-phase capacity (~61 / ~81 msg/s), below the
    # base-phase capacity (~122 msg/s).
    fig9_offered=100.0,
    max_rate_hints={
        30: 41.0,
        60: 81.3,
        90: 121.6,
        120: 161.9,
        150: 202.2,
        180: 242.5,
    },
)

MEGA = Profile(
    name="mega",
    n_nodes=10_000,
    # The paper's fanout. log-scaled fanouts (~13 at this size) multiply
    # per-round work 3x without changing what the scaling runs measure;
    # the vector executor's budget is quoted at the paper's setting.
    fanout=4,
    gossip_period=1.0,
    n_senders=4,
    duration=30.0,
    warmup=10.0,
    drain=5.0,
    buffer_sizes=(30, 60),
    input_rates=(4.0, 8.0),
    fig2_buffer=30,
    # Light absolute load: at 10k nodes even a handful of msg/s keeps
    # every buffer busy, and the interesting axis is group size.
    offered_load=6.0,
    max_age=8,
    dedup_capacity=80_000,
    seed=2003,
    tau_hint=4.46,  # reuse quick's measured value; figures unused here
)

GIGA = Profile(
    name="giga",
    n_nodes=100_000,
    fanout=4,  # the paper's setting, as in mega
    gossip_period=1.0,
    n_senders=4,
    duration=24.0,
    warmup=8.0,
    drain=4.0,
    buffer_sizes=(30, 60),
    input_rates=(4.0, 8.0),
    fig2_buffer=30,
    offered_load=6.0,
    max_age=8,
    dedup_capacity=800_000,
    seed=2003,
    tau_hint=4.46,  # reuse quick's measured value; figures unused here
)

_PROFILES = {"quick": QUICK, "paper": PAPER, "mega": MEGA, "giga": GIGA}


def get_profile(name: Optional[str] = None) -> Profile:
    """Resolve a profile by name, or from ``REPRO_PROFILE`` (default quick)."""
    if name is None:
        name = os.environ.get("REPRO_PROFILE", "quick")
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}; choose from {sorted(_PROFILES)}"
        ) from None
