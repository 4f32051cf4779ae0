"""The metrics collector wired into protocol callbacks by the drivers.

One :class:`MetricsCollector` instance observes a whole cluster run. The
drivers connect it to each node:

* sender admission — :meth:`on_offered` / :meth:`on_admitted` /
  :meth:`on_rejected`;
* protocol delivery callback — :meth:`on_deliver_many`, one call per
  batch of one node's new events (a received message's, a broadcast's);
* protocol drop callback — :meth:`on_drop_bulk`, one call per removal a
  buffer made (an overflow trim, a round's age-out, a resize, a purge);
* the single-event forms :meth:`on_deliver` / :meth:`on_drop`, and the
  columnar lane's :meth:`on_deliver_bulk` (one event, many receivers);
* per-round gauges — :meth:`sample_gauge` (allowed rate, avgAge,
  minBuff estimate, buffer occupancy).

Analysis (reliability, atomicity, rate series) lives in
:mod:`repro.metrics.delivery`; this module only records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.gossip.events import EventId
from repro.gossip.protocol import NodeId
from repro.metrics.rates import BucketSeries, GaugeSeries

__all__ = ["CountingMessageRecord", "MessageRecord", "MetricsCollector"]


@dataclass(slots=True)
class MessageRecord:
    """Lifecycle of one broadcast message."""

    origin: NodeId
    broadcast_time: float
    receivers: set[NodeId] = field(default_factory=set)
    duplicate_deliveries: int = 0
    first_delivery: Optional[float] = None
    last_delivery: Optional[float] = None

    @property
    def receiver_count(self) -> int:
        """How many distinct nodes delivered this message."""
        return len(self.receivers)

    def note_delivery(self, node: NodeId, time: float) -> bool:
        """Record a delivery; returns True if this receiver was new."""
        if node in self.receivers:
            self.duplicate_deliveries += 1
            return False
        self.receivers.add(node)
        if self.first_delivery is None:
            self.first_delivery = time
        self.last_delivery = time
        return True

    def copy(self) -> "MessageRecord":
        return MessageRecord(
            origin=self.origin,
            broadcast_time=self.broadcast_time,
            receivers=set(self.receivers),
            duplicate_deliveries=self.duplicate_deliveries,
            first_delivery=self.first_delivery,
            last_delivery=self.last_delivery,
        )

    def merge(self, other: "MessageRecord") -> None:
        """Fold another shard's view of the same message into this one."""
        self.receivers |= other.receivers
        self.duplicate_deliveries += other.duplicate_deliveries
        if other.first_delivery is not None:
            if self.first_delivery is None or other.first_delivery < self.first_delivery:
                self.first_delivery = other.first_delivery
        if other.last_delivery is not None:
            if self.last_delivery is None or other.last_delivery > self.last_delivery:
                self.last_delivery = other.last_delivery


@dataclass(slots=True)
class CountingMessageRecord:
    """Aggregate-mode message lifecycle: a receiver *count*, not a set.

    Used when the collector runs with ``aggregate=True`` so 10k–100k-node
    runs don't allocate one set entry per (message, receiver). It trusts
    the protocol layer's per-receiver deduplication — every delivery it
    is told about counts as a new receiver. (The one place that dedup can
    lie is an undersized dedup store re-admitting an event a node already
    saw; sized per the paper's guidance this does not occur, and the
    exact per-receiver mode remains the reference.)
    """

    origin: NodeId
    broadcast_time: float
    receiver_count: int = 0
    duplicate_deliveries: int = 0
    first_delivery: Optional[float] = None
    last_delivery: Optional[float] = None

    def note_delivery(self, node: NodeId, time: float) -> bool:
        self.receiver_count += 1
        if self.first_delivery is None:
            self.first_delivery = time
        self.last_delivery = time
        return True

    def note_bulk(self, count: int, time: float) -> None:
        """Record ``count`` first deliveries happening at one instant."""
        self.receiver_count += count
        if self.first_delivery is None:
            self.first_delivery = time
        self.last_delivery = time

    def copy(self) -> "CountingMessageRecord":
        return CountingMessageRecord(
            origin=self.origin,
            broadcast_time=self.broadcast_time,
            receiver_count=self.receiver_count,
            duplicate_deliveries=self.duplicate_deliveries,
            first_delivery=self.first_delivery,
            last_delivery=self.last_delivery,
        )

    def merge(self, other: "CountingMessageRecord") -> None:
        self.receiver_count += other.receiver_count
        self.duplicate_deliveries += other.duplicate_deliveries
        if other.first_delivery is not None:
            if self.first_delivery is None or other.first_delivery < self.first_delivery:
                self.first_delivery = other.first_delivery
        if other.last_delivery is not None:
            if self.last_delivery is None or other.last_delivery > self.last_delivery:
                self.last_delivery = other.last_delivery


class MetricsCollector:
    """Records everything the experiments measure.

    ``aggregate=True`` selects the aggregate-only mode for very large
    groups: message records count receivers instead of holding sets
    (:class:`CountingMessageRecord`), per-node gauges are not recorded
    (``sample_gauge`` is a no-op), and bulk deliveries can be folded in
    one call (:meth:`on_deliver_bulk`). Everything else — admission
    series, drop series, pickling, and merging shards of the *same* mode
    — behaves identically.
    """

    def __init__(self, bucket_width: float = 1.0, aggregate: bool = False) -> None:
        self.bucket_width = bucket_width
        self.aggregate = aggregate
        self.messages: dict[EventId, MessageRecord] = {}
        # point-event series
        self.offered = BucketSeries(bucket_width)
        self.admitted = BucketSeries(bucket_width)
        self.rejected = BucketSeries(bucket_width)
        self.deliveries = BucketSeries(bucket_width)
        self.drops_overflow = BucketSeries(bucket_width)
        self.drops_age_out = BucketSeries(bucket_width)
        self.drops_obsolete = BucketSeries(bucket_width)
        # drop ages (the congestion signal measured from the outside)
        self.drop_age_gauge = GaugeSeries(bucket_width)
        self.drop_ages: list[int] = []
        # named per-node gauges, indexed per name: name -> node -> series
        # (per-name lookups — gauge_mean, gauge_nodes — touch only that
        # name's bucket instead of scanning every (name, node) pair)
        self._gauges: dict[str, dict[NodeId, GaugeSeries]] = {}
        # counters
        self.duplicate_deliveries = 0
        # Deliveries observed before their admission was recorded. The
        # protocol delivers a broadcast to its own sender *inside*
        # broadcast(), i.e. before the Sender can call on_admitted, so
        # early deliveries are parked here and replayed on admission.
        self._early: dict[EventId, list[tuple[NodeId, float]]] = {}

    # ------------------------------------------------------------------
    # sender-side hooks
    # ------------------------------------------------------------------
    def on_offered(self, node: NodeId, time: float) -> None:
        """The application offered one broadcast (admitted or not)."""
        self.offered.add(time)

    def on_admitted(self, node: NodeId, event_id: EventId, time: float) -> None:
        """A broadcast passed admission control; start its record."""
        self.admitted.add(time)
        if event_id not in self.messages:
            record_cls = CountingMessageRecord if self.aggregate else MessageRecord
            self.messages[event_id] = record_cls(origin=node, broadcast_time=time)
        for early_node, early_time in self._early.pop(event_id, ()):
            self.on_deliver(early_node, event_id, early_time)

    def on_rejected(self, node: NodeId, time: float) -> None:
        """An offer was abandoned (bounded pending queue overflowed)."""
        self.rejected.add(time)

    # ------------------------------------------------------------------
    # protocol hooks (bound per node by the driver)
    # ------------------------------------------------------------------
    def on_deliver(self, node: NodeId, event_id: EventId, time: float) -> None:
        """A node delivered an event (deduplicated per receiver)."""
        self.on_deliver_many(node, (event_id,), time)

    def on_deliver_many(self, node: NodeId, event_ids: Sequence[EventId], time: float) -> None:
        """One node delivered several events at one instant, in order.

        Records exactly what one :meth:`on_deliver` per event would, with
        one weighted ``deliveries`` add (integer weights: the same float
        sums).
        """
        messages = self.messages
        fresh = 0
        for event_id in event_ids:
            record = messages.get(event_id)
            if record is None:
                # Not admitted (yet): either the sender's own in-broadcast
                # delivery racing its on_admitted call, or a message from an
                # uninstrumented source. Parked and replayed on admission.
                self._early.setdefault(event_id, []).append((node, time))
            elif record.note_delivery(node, time):
                fresh += 1
            else:
                self.duplicate_deliveries += 1
        if fresh:
            self.deliveries.add(time, fresh)

    def on_deliver_bulk(self, event_id: EventId, count: int, time: float) -> None:
        """``count`` first deliveries of one event at one instant.

        Aggregate-mode fast path for bulk executors: one call per
        (event, instant) instead of one per receiver.
        """
        record = self.messages.get(event_id)
        if record is None:
            self._early.setdefault(event_id, []).extend([(None, time)] * count)
            return
        record.note_bulk(count, time)
        self.deliveries.add(time, count)

    def on_drop(self, node: NodeId, event_id: EventId, age: int, reason: str, time: float) -> None:
        """A buffer dropped an event; overflow drops feed the age signal."""
        self.on_drop_bulk(reason, time, (age,))

    def on_drop_bulk(self, reason: str, time: float, ages: Sequence[int]) -> None:
        """``len(ages)`` drops of one reason at one instant, in one call.

        Records exactly what one :meth:`on_drop` per age, in order, would:
        every series takes one integer-valued weight, and the drop-age
        gauge one bucket update, instead of that many unit adds (integer
        ages: the same float sums).
        """
        if not ages:
            return
        if reason == "age_out":
            self.drops_age_out.add(time, len(ages))
            return
        if reason == "obsolete":
            # semantic purging ([11]) is voluntary, not congestion — it
            # must not pollute the drop-age signal statistics
            self.drops_obsolete.add(time, len(ages))
            return
        # overflow and resize evictions are the paper's "dropped messages"
        self.drops_overflow.add(time, len(ages))
        self.drop_age_gauge.sample_many(time, ages)
        self.drop_ages.extend(ages)

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def sample_gauge(self, name: str, node: NodeId, time: float, value: float) -> None:
        """Record one sample of a named per-node gauge."""
        if self.aggregate:
            return
        by_node = self._gauges.get(name)
        if by_node is None:
            by_node = self._gauges[name] = {}
        series = by_node.get(node)
        if series is None:
            series = by_node[node] = GaugeSeries(self.bucket_width)
        series.sample(time, value)

    def gauge(self, name: str, node: NodeId) -> Optional[GaugeSeries]:
        """The series for one (gauge, node), or None if never sampled."""
        by_node = self._gauges.get(name)
        return by_node.get(node) if by_node is not None else None

    def gauge_nodes(self, name: str) -> list[NodeId]:
        """All nodes that ever sampled the named gauge."""
        return list(self._gauges.get(name, ()))

    def gauge_mean(
        self, name: str, since: float = float("-inf"), until: float = float("inf")
    ) -> float:
        """Mean over all nodes' samples of a named gauge in a window."""
        total = 0.0
        count = 0
        for series in self._gauges.get(name, {}).values():
            m = series.mean(since, until)
            if m == m:  # not NaN
                total += m
                count += 1
        return total / count if count else float("nan")

    def gauge_mean_over(
        self,
        name: str,
        nodes,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> float:
        """Mean of a named gauge restricted to ``nodes`` (e.g. senders only)."""
        by_node = self._gauges.get(name, {})
        total = 0.0
        count = 0
        for node in nodes:
            series = by_node.get(node)
            if series is None:
                continue
            m = series.mean(since, until)
            if m == m:  # not NaN
                total += m
                count += 1
        return total / count if count else float("nan")

    # ------------------------------------------------------------------
    # sharded collection
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector into this one.

        Collectors are plain data (picklable), so shards of one logical
        experiment — parallel seeds, or node subsets observed by separate
        workers — can each record locally and be reduced afterwards.
        Message records with the same :class:`EventId` are merged
        (receiver-set union, min/max delivery times); series and counters
        add. Event ids must be consistent across shards: shards of one
        observed run always are, and independent runs are only mergeable
        when their ids cannot collide (disjoint sender nodes). A
        detectable collision — an :class:`EventId` naming *different*
        broadcasts in the two shards (same (origin, seq), different
        origin or broadcast time) — raises ``ValueError`` rather than
        silently unioning unrelated messages; collisions whose broadcast
        schedules coincide exactly cannot be detected, which is why
        sender-disjointness is the caller's contract.
        """
        if other.bucket_width != self.bucket_width:
            raise ValueError("cannot merge collectors with different bucket widths")
        if other.aggregate != self.aggregate:
            raise ValueError(
                "cannot merge an aggregate-mode collector with a per-receiver "
                "one (receiver sets and counts are not reconcilable)"
            )
        for event_id, record in other.messages.items():
            mine = self.messages.get(event_id)
            if mine is not None and (
                mine.origin != record.origin
                or mine.broadcast_time != record.broadcast_time
            ):
                raise ValueError(
                    f"event id {event_id!r} names different broadcasts in the "
                    "two collectors (colliding shards — e.g. independent seeds "
                    "with the same senders); refusing to merge them"
                )
            if mine is None:
                self.messages[event_id] = record.copy()
            else:
                mine.merge(record)
        self.offered.merge(other.offered)
        self.admitted.merge(other.admitted)
        self.rejected.merge(other.rejected)
        self.deliveries.merge(other.deliveries)
        self.drops_overflow.merge(other.drops_overflow)
        self.drops_age_out.merge(other.drops_age_out)
        self.drops_obsolete.merge(other.drops_obsolete)
        self.drop_age_gauge.merge(other.drop_age_gauge)
        self.drop_ages.extend(other.drop_ages)
        for name, other_by_node in other._gauges.items():
            by_node = self._gauges.get(name)
            if by_node is None:
                by_node = self._gauges[name] = {}
            for node, series in other_by_node.items():
                mine_series = by_node.get(node)
                if mine_series is None:
                    mine_series = by_node[node] = GaugeSeries(self.bucket_width)
                mine_series.merge(series)
        self.duplicate_deliveries += other.duplicate_deliveries
        for event_id, early in other._early.items():
            self._early.setdefault(event_id, []).extend(early)
        # A shard that only observed receivers parks every delivery in
        # _early (admission lives in the origin's shard). Now that both
        # shards' records are present, replay anything that matched up —
        # the same reconciliation on_admitted performs within one shard.
        for event_id in [eid for eid in self._early if eid in self.messages]:
            for node, time in self._early.pop(event_id):
                self.on_deliver(node, event_id, time)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    @property
    def unknown_deliveries(self) -> int:
        """Deliveries never matched to an admission (instrumentation gap)."""
        return sum(len(v) for v in self._early.values())

    def messages_in_window(self, since: float, until: float) -> list[MessageRecord]:
        """Messages broadcast within [since, until)."""
        return [
            r for r in self.messages.values() if since <= r.broadcast_time < until
        ]

    def mean_drop_age(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Mean age of overflow-dropped events in a window."""
        return self.drop_age_gauge.mean(since, until)
