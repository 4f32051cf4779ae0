"""EventBuffer under adversarial duplicate traffic.

Every ``sync_age`` raise strands a stale heap entry (the lazy re-push
path documented in the module). Heavy duplicate age-raising must not let
the heap grow without bound — the automatic compaction has to kick in —
and, compacted or not, the observable drop behaviour must stay identical
to a brute-force model of Figure 1's buffer.
"""

import random

from repro.gossip.buffer import EventBuffer
from repro.gossip.events import EventId


class BruteForceBuffer:
    """O(n)-per-operation reference model of the paper's `events` store."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = {}  # id -> [age, arrival]
        self._arrivals = 0

    def add(self, event_id, age):
        self.items[event_id] = [age, self._arrivals]
        self._arrivals += 1
        dropped = []
        while len(self.items) > self.capacity:
            eid = max(self.items, key=lambda e: (self.items[e][0], -self.items[e][1]))
            dropped.append((eid, self.items.pop(eid)[0]))
        return dropped

    def sync_age(self, event_id, age):
        if event_id in self.items:
            self.items[event_id][0] = max(self.items[event_id][0], age)

    def advance(self):
        for item in self.items.values():
            item[0] += 1

    def drop_aged_out(self, max_age):
        dropped = sorted(
            (
                (eid, item[0])
                for eid, item in self.items.items()
                if item[0] > max_age
            ),
            key=lambda pair: (-pair[1], self.items[pair[0]][1]),
        )
        for eid, _age in dropped:
            del self.items[eid]
        return dropped


def test_heavy_duplicate_age_raising_stays_compact():
    """Millions of raises on a small buffer: heap stays O(live set)."""
    buf = EventBuffer(64)
    ids = [EventId("src", i) for i in range(64)]
    for i, eid in enumerate(ids):
        buf.add(eid, age=0)
    rng = random.Random(1)
    raises = 0
    for step in range(200):
        buf.advance_round()
        # every duplicate arrives with an age one above the stored one,
        # so every sync_age call strands a stale heap entry
        for eid in ids:
            if eid in buf:
                raised = buf.sync_age(eid, buf.age_of(eid) + rng.randint(0, 1))
                raises += raised
    assert raises > 4000  # the stress actually stressed
    # without compaction the heap would hold ~64 + raises entries
    assert len(buf._heap) < 8 * len(buf)


def test_compaction_preserves_drop_semantics():
    """Fuzz adds/raises/ageing against the brute-force model."""
    rng = random.Random(42)
    buf = EventBuffer(20)
    model = BruteForceBuffer(20)
    next_id = 0
    for step in range(3000):
        op = rng.random()
        if op < 0.25:
            eid = EventId("n", next_id)
            next_id += 1
            age = rng.randint(0, 5)
            got = buf.add(eid, age=age)
            expected = model.add(eid, age)
            assert sorted(zip(*got)) == sorted(expected)
        elif op < 0.85:
            live = list(buf.ids())
            if live:
                eid = rng.choice(live)
                target = buf.age_of(eid) + rng.randint(0, 3)
                buf.sync_age(eid, target)
                model.sync_age(eid, target)
        else:
            buf.advance_round()
            model.advance()
            got = buf.drop_aged_out(12)
            expected = model.drop_aged_out(12)
            assert sorted(zip(*got)) == sorted(expected)
        assert set(buf.ids()) == set(model.items)
        for eid in model.items:
            assert buf.age_of(eid) == model.items[eid][0]


def test_snapshot_cache_matches_fresh_build_under_random_interleavings():
    """Cache-hit, append-patch and rebuild paths all equal a fresh build.

    Drives random interleavings of every mutation the buffer supports —
    add/stage, sync_age (raising and not), drop_aged_out, remove, resize,
    advance_round — and after every step checks the cached columnar
    snapshot against the entry dict itself (ids, ages, payloads, order).
    """
    rng = random.Random(7)
    buf = EventBuffer(24)
    next_id = 0
    for step in range(4000):
        op = rng.random()
        if op < 0.30:
            buf.add(EventId("n", next_id), age=rng.randint(0, 6), payload=next_id)
            next_id += 1
        elif op < 0.50:
            live = list(buf.ids())
            if live:
                eid = rng.choice(live)
                buf.sync_age(eid, buf.age_of(eid) + rng.randint(-1, 2))
        elif op < 0.65:
            buf.advance_round()
        elif op < 0.78:
            buf.drop_aged_out(rng.randint(6, 14))
        elif op < 0.88:
            live = list(buf.ids())
            if live:
                buf.remove(rng.choice(live))
        elif op < 0.94:
            buf.resize(rng.randint(4, 32))
        else:
            buf.advance_round()  # consecutive rounds: pure cache hits
            buf.snapshot_columns()

        columns = buf.snapshot_columns()
        assert columns.ids == tuple(buf.ids())
        assert columns.ages == tuple(buf.age_of(e) for e in buf.ids())
        assert columns.payloads == tuple(buf.payload_of(e) for e in buf.ids())
        assert columns == tuple(buf.snapshot())  # row view agrees too
    assert next_id > 1000  # the stress actually exercised the buffer


def test_snapshot_cache_hits_share_column_tuples():
    """Consecutive unchanged rounds reuse the cached tuples outright."""
    buf = EventBuffer(16)
    for i in range(8):
        buf.add(EventId("s", i), age=i % 3)
    first = buf.snapshot_columns()
    buf.advance_round()  # ages everything; anchors (and columns) unchanged
    second = buf.snapshot_columns()
    assert second.ids is first.ids
    assert second.anchors is first.anchors
    assert second.payloads is first.payloads
    assert second.base_round == first.base_round + 1
    assert [age - 1 for age in second.ages] == list(first.ages)
    # an append patches incrementally: the old prefix is preserved
    buf.stage(EventId("s", 99), age=0, payload="fresh")
    third = buf.snapshot_columns()
    assert third.ids[: len(first.ids)] == first.ids
    assert third.ids[-1] == EventId("s", 99)


def test_explicit_compact_is_idempotent_and_lossless():
    buf = EventBuffer(32)
    for i in range(32):
        buf.add(EventId("x", i), age=i % 7)
    for i in range(32):
        buf.sync_age(EventId("x", i), 10 + i % 3)
    before = sorted((eid, buf.age_of(eid)) for eid in buf.ids())
    buf.compact()
    buf.compact()
    assert len(buf._heap) == len(buf)
    assert sorted((eid, buf.age_of(eid)) for eid in buf.ids()) == before
    # drop order unaffected by compaction
    ids, ages = buf.resize(1)
    assert len(ids) == len(ages) == 31
