"""Reliability and atomicity analysis of delivery records.

The paper's headline reliability metric is *atomicity*: the fraction of
messages delivered to **more than 95% of the group** (Figures 2, 8(b),
9(b)) — the practical reading of pbcast's bimodal guarantee. Figure 8(a)
additionally reports the *average percentage of receivers* per message.

Both are computed here from the collector's per-message receiver sets,
restricted to an observation window: experiments discard a warm-up prefix
(buffers filling, estimators converging) and a drain suffix (messages
broadcast near the end have not finished propagating).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.metrics.collector import MessageRecord, MetricsCollector

__all__ = ["DeliveryStats", "analyze_delivery", "atomicity_series"]

ATOMICITY_THRESHOLD = 0.95


@dataclass(frozen=True, slots=True)
class DeliveryStats:
    """Reliability summary over a set of messages."""

    messages: int
    group_size: int
    avg_receiver_fraction: float  # Figure 8(a), as a fraction of the group
    atomicity: float  # Figure 8(b): share of messages reaching >95%
    complete_fraction: float  # share reaching 100% (strict atomicity)
    mean_latency: float  # broadcast -> last delivery, mean over messages
    unique_deliveries: int = 0  # total first-time deliveries
    duplicates: int = 0  # total re-deliveries suppressed by dedup

    @property
    def avg_receiver_pct(self) -> float:
        return 100.0 * self.avg_receiver_fraction

    @property
    def atomicity_pct(self) -> float:
        return 100.0 * self.atomicity

    @property
    def redundancy(self) -> float:
        """Duplicate deliveries per unique delivery — the cost gossip
        pays for its reliability (the expectation layer bounds it)."""
        if self.unique_deliveries == 0:
            return math.nan
        return self.duplicates / self.unique_deliveries


def analyze_delivery(
    records: Iterable[MessageRecord],
    group_size: int,
    threshold: float = ATOMICITY_THRESHOLD,
    size_at=None,
) -> DeliveryStats:
    """Summarise reliability over ``records`` for a group of ``group_size``.

    A message's receiver fraction counts the origin (which delivers to
    itself on broadcast) — matching "delivered to X% of participant
    processes" in the paper.

    Under churn the right denominator moves: a message broadcast while a
    quarter of the group is crashed can only ever reach the survivors.
    Pass ``size_at(broadcast_time) -> int`` (e.g.
    :meth:`~repro.driver.Driver.group_size_at`) to judge
    each message against the group it was actually broadcast into;
    ``group_size`` then only reports the nominal size in the summary.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    n_messages = 0
    frac_sum = 0.0
    atomic = 0
    complete = 0
    latency_sum = 0.0
    latency_count = 0
    unique = 0
    duplicates = 0
    for record in records:
        n_messages += 1
        # receiver_count rather than len(record.receivers): aggregate-mode
        # collectors carry CountingMessageRecord, which has no receiver set
        unique += record.receiver_count
        duplicates += record.duplicate_deliveries
        if size_at is None:
            denom = group_size
            fraction = record.receiver_count / denom
        else:
            denom = max(1, size_at(record.broadcast_time))
            # nodes that crash and later restart may still catch a copy,
            # pushing receivers past the broadcast-time group: that is
            # "everyone alive got it, plus returners" — cap at 100%
            fraction = min(1.0, record.receiver_count / denom)
        frac_sum += fraction
        if fraction > threshold:
            atomic += 1
        if record.receiver_count >= denom:
            complete += 1
        if record.last_delivery is not None:
            latency_sum += record.last_delivery - record.broadcast_time
            latency_count += 1
    if n_messages == 0:
        nan = math.nan
        return DeliveryStats(0, group_size, nan, nan, nan, nan)
    return DeliveryStats(
        messages=n_messages,
        group_size=group_size,
        avg_receiver_fraction=frac_sum / n_messages,
        atomicity=atomic / n_messages,
        complete_fraction=complete / n_messages,
        mean_latency=latency_sum / latency_count if latency_count else math.nan,
        unique_deliveries=unique,
        duplicates=duplicates,
    )


def atomicity_series(
    collector: MetricsCollector,
    group_size: int,
    bucket_width: float,
    since: float,
    until: float,
    threshold: float = ATOMICITY_THRESHOLD,
) -> list[tuple[float, float]]:
    """Atomicity over time (Figure 9(b)).

    Messages are grouped by *broadcast* time bucket; each bucket reports
    the share of its messages that eventually reached more than
    ``threshold`` of the group. Buckets without messages yield NaN.
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be > 0")
    buckets: dict[int, list[int]] = {}
    for record in collector.messages.values():
        t = record.broadcast_time
        if not since <= t < until:
            continue
        b = int(t // bucket_width)
        buckets.setdefault(b, []).append(record.receiver_count)
    series: list[tuple[float, float]] = []
    b = int(since // bucket_width)
    while b * bucket_width < until:
        counts = buckets.get(b)
        if counts:
            atomic = sum(1 for c in counts if c / group_size > threshold)
            series.append((b * bucket_width, atomic / len(counts)))
        else:
            series.append((b * bucket_width, math.nan))
        b += 1
    return series
