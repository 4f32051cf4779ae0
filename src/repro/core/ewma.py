"""Exponentially weighted moving average.

The paper smooths both its congestion signal (``avgAge``) and its grant
usage signal (``avgTokens``) with a moving average weighted by ``α``
(§3.4: close to 1 for bursty traffic — slow and stable; lower for periodic
traffic — fast reaction). The update rule is the paper's:

    avg ← α · avg + (1 − α) · sample
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["Ewma"]


class Ewma:
    """A single exponentially weighted moving average cell."""

    __slots__ = ("alpha", "_value", "samples")

    def __init__(self, alpha: float, initial: Optional[float] = None) -> None:
        if not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        self.alpha = alpha
        self._value = initial
        self.samples = 0

    @property
    def value(self) -> Optional[float]:
        """Current average, or None before any sample/initial value."""
        return self._value

    def update(self, sample: float) -> float:
        """Fold one sample in and return the new average."""
        return self.update_many((sample,))

    def update_many(self, samples: Iterable[float]) -> Optional[float]:
        """Fold samples in, in order, and return the new average."""
        value = self._value
        alpha = self.alpha
        count = self.samples
        for sample in samples:
            count += 1
            if value is None:
                value = float(sample)
            else:
                value = alpha * value + (1.0 - alpha) * sample
        self._value = value
        self.samples = count
        return value

    def reset(self, initial: Optional[float] = None) -> None:
        self._value = initial
        self.samples = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ewma(alpha={self.alpha}, value={self._value}, samples={self.samples})"
