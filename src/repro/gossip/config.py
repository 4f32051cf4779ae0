"""Static configuration of the gossip substrate (paper Figure 1 parameters).

These are the parameters the paper treats as given (selected per [3],
the lpbcast paper) and does **not** adapt: fanout ``f``, gossip period
``T``, buffer bound ``|events|max``, dedup bound ``|eventIds|max`` and the
age-out limit ``k``. The adaptive mechanism's own parameters live in
:class:`repro.core.config.AdaptiveConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["SystemConfig"]


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Parameters of the baseline gossip algorithm.

    Attributes
    ----------
    fanout:
        ``f`` — number of random targets per gossip round (paper uses 4).
    gossip_period:
        ``T`` — seconds between gossip rounds. The paper's testbed used
        5 s; we substitute a 1 s default so wall-clock-heavy sweeps stay
        tractable — all rates scale by ``1/T``, shapes are unaffected.
    buffer_capacity:
        ``|events|max`` — bound on buffered events. The evaluation sweeps
        this between 30 and 180.
    dedup_capacity:
        ``|eventIds|max`` — bound on remembered event ids. Must be large
        enough that ids outlive the circulation of their event.
    max_age:
        ``k`` — events older than this many rounds are purged
        unconditionally (they have been disseminated long enough).
    round_jitter:
        Fractional jitter applied to each node's gossip period by the
        drivers, desynchronising rounds as on a real network.
    round_phase:
        First-round offset in seconds. ``None`` (the default) draws a
        random phase per node in ``[0, T)`` — the desynchronised regime
        of a real deployment. A fixed value (with ``round_jitter=0``)
        makes execution *round-synchronous* in the style of deterministic
        gossip analyses: every node fires in the same instant, which the
        batched dispatcher turns into one heap event per cluster round.
    """

    fanout: int = 4
    gossip_period: float = 1.0
    buffer_capacity: int = 90
    dedup_capacity: int = 4000
    max_age: int = 10
    round_jitter: float = 0.05
    round_phase: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.gossip_period <= 0:
            raise ValueError("gossip_period must be > 0")
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.dedup_capacity < self.buffer_capacity:
            raise ValueError("dedup_capacity must be >= buffer_capacity")
        if self.max_age < 1:
            raise ValueError("max_age must be >= 1")
        if not 0 <= self.round_jitter < 0.5:
            raise ValueError("round_jitter must be in [0, 0.5)")
        if self.round_phase is not None and not 0 <= self.round_phase < self.gossip_period:
            raise ValueError("round_phase must be in [0, gossip_period)")

    def with_buffer(self, capacity: int) -> "SystemConfig":
        """Copy with a different buffer capacity (sweep helper)."""
        return replace(self, buffer_capacity=capacity)
