"""Configuration of the adaptive mechanism (paper §3.4).

Every constant the paper discusses is a field here, with the paper's own
selection guidance quoted in the docstrings. Where the available text of
the paper garbles a numeric value, the default follows the stated guidance
and the field's entry below says so; the ablation benchmarks sweep each of
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.gossip.config import SystemConfig

__all__ = ["AdaptiveConfig"]


@dataclass(frozen=True, slots=True)
class AdaptiveConfig:
    """Parameters of Figures 3 and 5.

    Attributes
    ----------
    age_critical:
        ``τ`` — the age the oldest events should reach before being
        dropped for the system to meet its reliability target (delivery
        to ≥95% of members). "Obtained analytically or experimentally"
        (§3.3); :func:`repro.experiments.calibrate.calibrate` measures it
        with the paper's §2.3 procedure. The paper's testbed had τ = 5.3.
    low_mark / high_mark:
        ``L`` and ``H`` — hysteresis thresholds around ``τ``. Decrease
        when ``avgAge < L``; allow increase when ``avgAge > H``. §3.4:
        both close to τ, with "a considerable difference between" them.
        ``None`` derives ``τ ∓ mark_offset``.
    mark_offset:
        Offset used to derive the marks when they are not given.
    alpha:
        ``α`` — moving-average weight for ``avgAge``/``avgTokens``.
        §3.4: "close to 1" for traffic with high inter-arrival variance.
    sample_period:
        ``s`` — seconds per minBuff sample period. §3.4: at least the
        time a value needs to reach everyone, ``τ·T``. ``None`` derives
        ``ceil(τ)·T`` from the system config at resolution time.
    window:
        ``W`` — number of recent sample periods whose minima are combined.
        §3.4: higher values ride out flapping resources at the cost of
        slower reclamation of released capacity.
    dec / inc:
        ``Δdec`` / ``Δinc`` — multiplicative rate adjustments. §3.4 keeps
        them equal ("closer to each other is more forgiving").
    rho:
        ``ρ`` — probability that a sender eligible to increase actually
        does so this round, de-synchronising group-wide ramps. §3.4: "on
        average only ρ of the nodes increase their rate".
    max_tokens:
        Token bucket depth of Figure 3.
    initial_rate:
        Sender's allowed rate at start-up (msg/s).
    min_rate / max_rate:
        Safety bounds for the allowed rate. The paper leaves the floor
        implicit; production code needs one so a sender can always probe
        the system again.
    tokens_low_frac / tokens_high_frac:
        Fractions of ``max_tokens`` interpreting ``avgTokens``: below
        ``low`` the grant counts as fully used (increase permitted),
        above ``high`` as unused (decrease forced). Figure 5(c) uses
        ``max/2`` for both; keeping them separate allows hysteresis.
    initial_avg_age:
        Starting value of ``avgAge``. ``None`` (default) starts the
        estimator empty: until somebody would have dropped something the
        system is treated as uncongested, which matches the paper's
        start-below-capacity scenarios. Set to e.g. ``age_critical`` for
        a neutral start inside the hysteresis band.
    evidence_ttl_rounds:
        Congestion-evidence time-to-live, in gossip rounds. ``avgAge``
        only receives samples while a hypothetical ``minBuff`` buffer
        would be dropping something; if the congestion disappears
        entirely (e.g. resources grew a lot), the stale average would
        otherwise freeze — possibly inside the hysteresis band, pinning
        the rate forever. After this many consecutive sample-free rounds
        the evidence expires and the system counts as uncongested again.
        An addition to the paper's pseudo-code, which does not need it
        because its scenarios keep buffers pressured.
    """

    age_critical: float = 5.3
    low_mark: Optional[float] = None
    high_mark: Optional[float] = None
    mark_offset: float = 0.5
    alpha: float = 0.9
    sample_period: Optional[float] = None
    window: int = 4
    dec: float = 0.05
    inc: float = 0.05
    rho: float = 0.2
    max_tokens: int = 5
    initial_rate: float = 10.0
    min_rate: float = 0.25
    max_rate: float = 1000.0
    tokens_low_frac: float = 0.5
    tokens_high_frac: float = 0.5
    initial_avg_age: Optional[float] = None
    evidence_ttl_rounds: int = 10

    def __post_init__(self) -> None:
        if self.evidence_ttl_rounds < 1:
            raise ValueError("evidence_ttl_rounds must be >= 1")
        if self.age_critical <= 0:
            raise ValueError("age_critical must be > 0")
        if self.mark_offset < 0:
            raise ValueError("mark_offset must be >= 0")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.dec < 1.0:
            raise ValueError("dec must be in (0, 1)")
        if self.inc <= 0:
            raise ValueError("inc must be > 0")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.initial_rate <= 0:
            raise ValueError("initial_rate must be > 0")
        if not 0 < self.min_rate <= self.max_rate:
            raise ValueError("need 0 < min_rate <= max_rate")
        if self.initial_rate > self.max_rate or self.initial_rate < self.min_rate:
            raise ValueError("initial_rate must lie within [min_rate, max_rate]")
        if self.sample_period is not None and self.sample_period <= 0:
            raise ValueError("sample_period must be > 0")
        low, high = self.resolved_marks()
        if low >= high:
            raise ValueError("low_mark must be < high_mark")
        if not 0.0 <= self.tokens_low_frac <= 1.0 or not 0.0 <= self.tokens_high_frac <= 1.0:
            raise ValueError("token fractions must be in [0, 1]")
        if self.tokens_low_frac > self.tokens_high_frac:
            raise ValueError("tokens_low_frac must be <= tokens_high_frac")

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    def resolved_marks(self) -> tuple[float, float]:
        """The (L, H) pair actually used."""
        low = self.low_mark if self.low_mark is not None else self.age_critical - self.mark_offset
        high = (
            self.high_mark if self.high_mark is not None else self.age_critical + self.mark_offset
        )
        return low, high

    def resolved_sample_period(self, system: SystemConfig) -> float:
        """``s`` in seconds: explicit value or ``ceil(τ)·T`` (§3.4)."""
        if self.sample_period is not None:
            return self.sample_period
        return math.ceil(self.age_critical) * system.gossip_period

    def with_age_critical(self, tau: float) -> "AdaptiveConfig":
        """Copy with a newly calibrated ``τ`` (marks re-derived unless fixed)."""
        return replace(self, age_critical=tau)
