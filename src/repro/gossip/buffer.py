"""The bounded, age-ordered event buffer (the paper's ``events`` store).

Semantics reproduced from the paper's Figure 1:

* every gossip round, **all** stored events age by one;
* events older than the age-out limit ``k`` are dropped;
* when the buffer exceeds its capacity, the *oldest* events (highest age,
  ties broken by arrival order) are discarded first — age-based purging;
* when a duplicate arrives with a higher age, the stored age is raised to
  the maximum (ages synchronise across copies).

Performance note — the "anchor" representation
----------------------------------------------
The naive implementation ages every buffered event every round (O(buffer)
per round per node) and scans for the oldest event on every overflow
(O(buffer) per drop). Both are on the simulator's hottest path. We instead
store, per event, the *anchor* ``round - age``: ageing everything is then a
single increment of the buffer's round counter, and "oldest first" is a
min-heap on ``(anchor, arrival_seq)``. An event's stored entry *is* its
heap record, the tuple ``(anchor, arrival, id, payload)``: the
``(anchor, arrival)`` keys are unique, so the heap never compares
further. Raising an age replaces the entry with a lowered-anchor record
and lazily pushes it; a popped record is live exactly when it is still
the entry stored under its id (an identity check), stale strands are
skipped, and the heap is rebuilt automatically when they outnumber live
entries ~4:1 (heavy duplicate age-raising would otherwise grow it
without bound). The observable behaviour is identical to Figure 1 (the
unit tests check this against a brute-force model).

Performance note — the cached columnar snapshot
-----------------------------------------------
Every round every node re-gossips its whole buffer, but between rounds
the buffer is usually *unchanged* — anchors do not move on
:meth:`advance_round`, only on add/remove/``sync_age``. The buffer
therefore keeps its wire columns ``(ids, anchors, payloads)`` cached
under a mutation version counter: :meth:`snapshot_columns` is a pure
cache hit when nothing arrived between rounds, an O(new) append patch
when only new events were staged, and a full rebuild only after a
removal or an age raise. Batched duplicate folding goes through
:meth:`sync_ages`, which walks the entry dict directly and defers heap
maintenance to one :meth:`compact` pass when enough anchors moved.

Performance note — columns per message
--------------------------------------
Under overload every received message stages a dozen or more new events
and evicts as many, so the per-event work is done in columns: one
:meth:`stage_many` call stages a message's new events, and every
removal path (:meth:`evict_overflow`, :meth:`drop_aged_out`,
:meth:`resize`, :meth:`add`) returns the ``(ids, ages)`` it removed as
two lists instead of one record per drop. Figure 5(b)'s victim search,
:meth:`oldest_excluding`, pops a copy of the heap in key order and
stops at the ``count``-th live, non-excluded record: every live entry
has exactly one live heap record and the keys are unique, so this is
the sorted scan's answer at the cost of the victims (plus the excluded
and stale records ahead of them) instead of the whole buffer.
"""

from __future__ import annotations

import heapq
from typing import Any, Container, Iterable, KeysView, Optional, Sequence

from repro.gossip.events import EventColumns, EventId, EventSummary

__all__ = ["Dropped", "EventBuffer"]

# (ids, ages) of the events one removal call dropped, in drop order
Dropped = tuple[list[EventId], list[int]]

# One stored event, which is also its live heap record:
# (anchor, arrival, id, payload). Indexed positionally on the hot paths.
_Record = tuple[int, int, EventId, Any]


class EventBuffer:
    """Bounded event store with age-based purging.

    Parameters
    ----------
    capacity:
        Maximum number of events retained (``|events|max`` in the paper).
        May be changed at runtime with :meth:`resize` — the Figure 9
        experiment does exactly that.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self._capacity = int(capacity)
        self._round = 0
        self._entries: dict[EventId, _Record] = {}
        self._heap: list[_Record] = []
        self._next_arrival = 0
        # snapshot cache: wire columns valid at mutation version _snap_version
        self._version = 0
        self._snap_version = -1
        self._snap_ids: tuple[EventId, ...] = ()
        self._snap_anchors: tuple[int, ...] = ()
        self._snap_payloads: tuple[Any, ...] = ()
        self._snap_id_set: frozenset = frozenset()
        # Entries staged since the cache was built (an O(new) append patch
        # on the next snapshot); None after any non-append mutation —
        # removal or anchor change — meaning a full rebuild is due.
        self._snap_pending: Optional[list[_Record]] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def round(self) -> int:
        """Number of times :meth:`advance_round` has been called."""
        return self._round

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, event_id: EventId) -> bool:
        return event_id in self._entries

    def age_of(self, event_id: EventId) -> int:
        """Current age of a stored event (KeyError if absent)."""
        return self._round - self._entries[event_id][0]

    def payload_of(self, event_id: EventId) -> Any:
        return self._entries[event_id][3]

    def ids(self) -> KeysView[EventId]:
        """The stored ids, as a live set-like view (arrival order)."""
        return self._entries.keys()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def advance_round(self) -> None:
        """Age every stored event by one round. O(1).

        Anchors are round-relative, so this neither moves an anchor nor
        invalidates the snapshot cache — the next round's gossip reuses
        the cached columns with a higher base round.
        """
        self._round += 1

    def add(self, event_id: EventId, age: int = 0, payload: Any = None) -> Dropped:
        """Insert a new event with the given age; evict overflow.

        Returns the ``(ids, ages)`` dropped to make room (possibly the
        event just inserted, if it is itself the oldest). Duplicate ids
        raise ``ValueError`` — callers dedup first (Figure 1 checks
        ``eventIds`` before buffering).
        """
        self.stage_many((event_id,), (age,), (payload,))
        return self.evict_overflow()

    def stage(self, event_id: EventId, age: int = 0, payload: Any = None) -> None:
        """Insert one new event *without* evicting overflow (see :meth:`stage_many`)."""
        self.stage_many((event_id,), (age,), (payload,))

    def stage_many(
        self, ids: Sequence[EventId], ages: Sequence[int], payloads: Sequence[Any]
    ) -> None:
        """Insert new events, in order, *without* evicting overflow.

        Figure 1 folds a whole gossip message into ``events`` first and
        garbage-collects afterwards; Figure 5(b)'s congestion accounting
        runs in between, against the un-trimmed buffer. Receive paths
        therefore stage a message's new events, run the estimator hook,
        then call :meth:`evict_overflow`. An id already buffered (or
        repeated in ``ids``) or a negative age raises ``ValueError``
        before anything is staged.
        """
        entries = self._entries
        if not entries.keys().isdisjoint(ids):
            raise ValueError(f"events {list(ids)!r} include an already buffered id")
        if ages and min(ages) < 0:
            raise ValueError("age must be >= 0")
        round_ = self._round
        first = self._next_arrival
        records = list(
            zip(
                [round_ - age for age in ages],
                range(first, first + len(ids)),
                ids,
                payloads,
            )
        )
        size = len(entries)
        entries.update(zip(ids, records))
        if len(entries) - size != len(records):  # an id repeated in ids
            for event_id in ids:
                entries.pop(event_id, None)
            raise ValueError(f"events {list(ids)!r} repeat an id")
        self._next_arrival = first + len(records)
        heap = self._heap
        push = heapq.heappush
        for record in records:
            push(heap, record)
        self._version += 1
        if self._snap_pending is not None:  # an append: the cache patches
            self._snap_pending.extend(records)

    def sync_age(self, event_id: EventId, age: int) -> bool:
        """Raise the stored age to ``max(current, age)``.

        Returns True if the age changed. Unknown ids are ignored (the
        duplicate may have already been purged locally) and return False.
        Each raise lazily re-pushes a heap record and strands the old one;
        under heavy duplicate traffic the strands are bounded by an
        automatic :meth:`compact` once the heap outgrows the live set
        (see the module's performance note).
        """
        return self.sync_ages((event_id,), (age,)) == 1

    def sync_ages(self, ids: Iterable[EventId], ages: Iterable[int]) -> int:
        """Raise stored ages to ``max(current, age)`` for many events.

        The batched counterpart of calling :meth:`sync_age` per id —
        one direct walk over the entry dict, with heap maintenance
        deferred to a single :meth:`compact` pass when enough anchors
        moved to make per-raise pushes a net loss. Unknown ids are
        ignored. Returns the number of ages actually raised.
        """
        round_ = self._round
        entries = self._entries
        raised: list[_Record] = []
        # map() dispatches the dict lookups at C speed; the Python body
        # only runs the compare (and, for a raise, the new record).
        for record, age in zip(map(entries.get, ids), ages):
            if record is None:
                continue
            anchor = round_ - age
            if anchor < record[0]:
                record = (anchor, record[1], record[2], record[3])
                entries[record[2]] = record
                raised.append(record)
        if not raised:
            return 0
        self._version += 1
        self._snap_pending = None
        heap = self._heap
        if 4 * len(raised) >= len(entries):
            # Rebuilding once beats pushing (and later skipping) this
            # many strands — the heap comes out stale-free as a bonus.
            self.compact()
        else:
            for record in raised:
                heapq.heappush(heap, record)
            if len(heap) > 64 and len(heap) > 4 * len(entries):
                self.compact()
        return len(raised)

    def drop_aged_out(self, max_age: int) -> Dropped:
        """Remove every event with age strictly greater than ``max_age``."""
        cutoff = self._round - max_age  # drop anchors strictly below cutoff
        heap = self._heap
        if not heap or heap[0][0] >= cutoff:
            # The heap minimum bounds every live anchor (stale records
            # only ever carry anchors of entries that were since lowered
            # or removed), so nothing can be old enough to drop.
            return [], []
        get = self._entries.get
        pop = heapq.heappop
        victims = []
        while heap and heap[0][0] < cutoff:
            record = pop(heap)
            if get(record[2]) is record:  # else a stale strand
                victims.append(record)
        return self._remove_records(victims)

    def remove(self, event_id: EventId) -> Optional[int]:
        """Remove a specific event (semantic purging, [11]-style).

        Returns the removed event's age, or None if the id is not
        buffered. The stale heap record is discarded lazily on a later pop.
        """
        record = self._entries.pop(event_id, None)
        if record is None:
            return None
        self._version += 1
        self._snap_pending = None
        return self._round - record[0]

    def resize(self, capacity: int) -> Dropped:
        """Change the capacity at runtime; evicts oldest events if shrinking."""
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self._capacity = int(capacity)
        return self.evict_overflow()

    def evict_overflow(self) -> Dropped:
        """Trim to capacity, oldest first; returns the dropped ``(ids, ages)``."""
        excess = len(self._entries) - self._capacity
        if excess <= 0:
            return [], []
        heap = self._heap
        get = self._entries.get
        pop = heapq.heappop
        victims = []
        while excess:
            record = pop(heap)
            if get(record[2]) is record:  # else a stale strand
                victims.append(record)
                excess -= 1
        return self._remove_records(victims)

    def _remove_records(self, victims: list[_Record]) -> Dropped:
        """Delete popped live records; their ``(ids, ages)``, in order."""
        ids = [record[2] for record in victims]
        if ids:
            round_ = self._round
            entries = self._entries
            for event_id in ids:
                del entries[event_id]
            self._version += 1
            self._snap_pending = None
            return ids, [round_ - record[0] for record in victims]
        return ids, []

    # ------------------------------------------------------------------
    # read paths used by the protocols
    # ------------------------------------------------------------------
    def snapshot_columns(self, refresh: bool = False) -> EventColumns:
        """Wire columns of all stored events, anchored at the current round.

        The heavy part — the ``(ids, anchors, payloads)`` column tuples —
        is cached under the mutation version counter: unchanged buffer →
        cache hit; only appends since the last build → incremental patch;
        anything else → full rebuild. ``refresh=True`` forces the rebuild
        (benchmark/measurement hook). The returned columns may be shared
        between the ``f`` copies of one round's gossip message; callers
        must not mutate them.
        """
        if refresh or self._snap_version != self._version:
            pending = self._snap_pending
            if refresh or not pending:
                # Full rebuild (first snapshot, or a removal/age raise
                # happened since the last one).
                records = list(self._entries.values())
                self._snap_ids = tuple([r[2] for r in records])
                self._snap_anchors = tuple([r[0] for r in records])
                self._snap_payloads = tuple([r[3] for r in records])
                self._snap_id_set = frozenset(self._snap_ids)
            else:
                # Append-only delta: the staged entries are exactly the
                # (insertion-ordered) dict's tail — an O(new) patch.
                fresh_ids = tuple([r[2] for r in pending])
                self._snap_ids += fresh_ids
                self._snap_anchors += tuple([r[0] for r in pending])
                self._snap_payloads += tuple([r[3] for r in pending])
                self._snap_id_set = self._snap_id_set.union(fresh_ids)
            self._snap_pending = []
            self._snap_version = self._version
        return EventColumns(
            self._snap_ids,
            self._round,
            self._snap_anchors,
            self._snap_payloads,
            id_set=self._snap_id_set,
        )

    def snapshot(self) -> list[EventSummary]:
        """Row-form summaries of all stored events with their current ages.

        Compatibility view over :meth:`snapshot_columns`; hot paths embed
        the columns directly. The caller must not mutate the result.
        """
        columns = self.snapshot_columns()
        return list(map(EventSummary, columns.ids, columns.ages, columns.payloads))

    def oldest_excluding(
        self, count: int, exclude: Optional[Container[EventId]] = None
    ) -> list[tuple[EventId, int]]:
        """The ``count`` oldest stored events not in ``exclude``.

        Used by the congestion estimator (Figure 5(b)) to find the events
        a hypothetical buffer of size ``minBuff`` would have dropped.
        Returns ``(id, age)`` pairs, oldest first. Does not remove
        anything: it pops a copy of the heap (see the performance note).
        """
        picked: list[tuple[EventId, int]] = []
        if count <= 0:
            return picked
        if exclude is None:
            exclude = ()
        heap = self._heap[:]
        get = self._entries.get
        pop = heapq.heappop
        round_ = self._round
        while heap:
            record = pop(heap)
            event_id = record[2]
            if get(event_id) is record and event_id not in exclude:
                picked.append((event_id, round_ - record[0]))
                if len(picked) == count:
                    break
        return picked

    def compact(self) -> None:
        """Rebuild the heap, discarding stale records (housekeeping)."""
        self._heap = list(self._entries.values())
        heapq.heapify(self._heap)
