"""Bucketed time series.

Two flavours cover everything the experiments plot over time:

* :class:`BucketSeries` — counts of point events per fixed-width time
  bucket (admitted broadcasts, deliveries, drops); rates are counts
  divided by bucket width.
* :class:`GaugeSeries` — samples of an instantaneous value (allowed rate,
  avgAge, minBuff estimate); per-bucket means reconstruct the trajectory.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

__all__ = ["BucketSeries", "GaugeSeries"]


class BucketSeries:
    """Counts per fixed-width time bucket."""

    def __init__(self, bucket_width: float = 1.0) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be > 0")
        self.bucket_width = float(bucket_width)
        self._counts: dict[int, float] = {}
        self.total = 0.0

    def _bucket(self, time: float) -> int:
        return int(math.floor(time / self.bucket_width))

    def add(self, time: float, weight: float = 1.0) -> None:
        b = self._bucket(time)
        self._counts[b] = self._counts.get(b, 0.0) + weight
        self.total += weight

    def merge(self, other: "BucketSeries") -> None:
        """Fold another series' counts into this one (sharded collection)."""
        if other.bucket_width != self.bucket_width:
            raise ValueError("cannot merge series with different bucket widths")
        counts = self._counts
        for b, c in other._counts.items():
            counts[b] = counts.get(b, 0.0) + c
        self.total += other.total

    def count(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Total weight of events with bucket start in [since, until)."""
        return sum(
            c for b, c in self._counts.items() if since <= b * self.bucket_width < until
        )

    def rate(self, since: float, until: float) -> float:
        """Mean events/second over [since, until)."""
        if until <= since:
            raise ValueError("until must be > since")
        return self.count(since, until) / (until - since)

    def series(
        self, since: float = 0.0, until: Optional[float] = None
    ) -> Iterator[tuple[float, float]]:
        """Yield (bucket_start_time, rate) for every bucket in range.

        Buckets with no events are reported as zero so plots show gaps.
        """
        if until is None:
            if not self._counts:
                return
            until = (max(self._counts) + 1) * self.bucket_width
        b = self._bucket(since)
        while b * self.bucket_width < until:
            yield b * self.bucket_width, self._counts.get(b, 0.0) / self.bucket_width
            b += 1


class GaugeSeries:
    """Mean of sampled values per fixed-width time bucket."""

    def __init__(self, bucket_width: float = 1.0) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be > 0")
        self.bucket_width = float(bucket_width)
        self._sums: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def sample(self, time: float, value: float) -> None:
        self.sample_many(time, (value,))

    def sample_many(self, time: float, values: Sequence[float]) -> None:
        """Record several samples taken at one instant, as one bucket update.

        For integer-valued samples (drop ages) the one float add of their
        integer sum equals the per-sample adds exactly.
        """
        b = int(math.floor(time / self.bucket_width))
        self._sums[b] = self._sums.get(b, 0.0) + sum(values)
        self._counts[b] = self._counts.get(b, 0) + len(values)

    def merge(self, other: "GaugeSeries") -> None:
        """Fold another series' samples into this one (sharded collection)."""
        if other.bucket_width != self.bucket_width:
            raise ValueError("cannot merge series with different bucket widths")
        sums, counts = self._sums, self._counts
        for b, s in other._sums.items():
            sums[b] = sums.get(b, 0.0) + s
        for b, n in other._counts.items():
            counts[b] = counts.get(b, 0) + n

    def mean(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Mean of all samples whose bucket start is in [since, until)."""
        total = 0.0
        n = 0
        for b, s in self._sums.items():
            t = b * self.bucket_width
            if since <= t < until:
                total += s
                n += self._counts[b]
        return total / n if n else math.nan

    def series(
        self, since: float = 0.0, until: Optional[float] = None
    ) -> Iterator[tuple[float, float]]:
        """Yield (bucket_start_time, mean_value); empty buckets are NaN."""
        if until is None:
            if not self._sums:
                return
            until = (max(self._sums) + 1) * self.bucket_width
        b = int(math.floor(since / self.bucket_width))
        while b * self.bucket_width < until:
            n = self._counts.get(b, 0)
            value = self._sums[b] / n if n else math.nan
            yield b * self.bucket_width, value
            b += 1
