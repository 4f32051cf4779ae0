"""Tests for the age-ordered bounded event buffer.

Includes a hypothesis model test checking the anchor/heap implementation
against a brute-force reference that follows the paper's Figure 1
semantics literally.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.buffer import EventBuffer
from repro.gossip.events import EventId


def eid(n):
    return EventId("n", n)


def test_capacity_validated():
    with pytest.raises(ValueError):
        EventBuffer(0)


def test_add_and_lookup():
    buf = EventBuffer(4)
    buf.add(eid(1), age=2, payload="p")
    assert eid(1) in buf
    assert buf.age_of(eid(1)) == 2
    assert buf.payload_of(eid(1)) == "p"
    assert len(buf) == 1


def test_duplicate_add_rejected():
    buf = EventBuffer(4)
    buf.add(eid(1))
    with pytest.raises(ValueError):
        buf.add(eid(1))


def test_negative_age_rejected():
    buf = EventBuffer(4)
    with pytest.raises(ValueError):
        buf.add(eid(1), age=-1)


def test_advance_round_ages_everything():
    buf = EventBuffer(4)
    buf.add(eid(1), age=0)
    buf.add(eid(2), age=3)
    buf.advance_round()
    assert buf.age_of(eid(1)) == 1
    assert buf.age_of(eid(2)) == 4


def test_overflow_evicts_oldest_age_first():
    buf = EventBuffer(2)
    buf.add(eid(1), age=5)
    buf.add(eid(2), age=1)
    assert buf.add(eid(3), age=3) == ([eid(1)], [5])
    assert set(buf.ids()) == {eid(2), eid(3)}


def test_overflow_tie_broken_by_arrival_order():
    buf = EventBuffer(2)
    buf.add(eid(1), age=2)
    buf.add(eid(2), age=2)
    assert buf.add(eid(3), age=0) == ([eid(1)], [2])


def test_new_event_can_be_evicted_immediately():
    buf = EventBuffer(2)
    buf.add(eid(1), age=1)
    buf.add(eid(2), age=1)
    assert buf.add(eid(3), age=9) == ([eid(3)], [9])  # oldest on arrival


def test_sync_age_raises_only():
    buf = EventBuffer(4)
    buf.add(eid(1), age=3)
    assert buf.sync_age(eid(1), 5)
    assert buf.age_of(eid(1)) == 5
    assert not buf.sync_age(eid(1), 2)  # lower ages are ignored
    assert buf.age_of(eid(1)) == 5
    assert not buf.sync_age(eid(9), 4)  # unknown id ignored


def test_sync_age_affects_eviction_order():
    buf = EventBuffer(2)
    buf.add(eid(1), age=0)
    buf.add(eid(2), age=0)
    buf.sync_age(eid(1), 7)
    assert buf.add(eid(3), age=1) == ([eid(1)], [7])


def test_drop_aged_out():
    buf = EventBuffer(10)
    buf.add(eid(1), age=0)
    buf.add(eid(2), age=4)
    for _ in range(3):
        buf.advance_round()
    assert buf.drop_aged_out(max_age=5) == ([eid(2)], [7])  # age 7 > 5
    assert eid(1) in buf  # age 3 <= 5


def test_drop_aged_out_boundary_inclusive():
    buf = EventBuffer(10)
    buf.add(eid(1), age=5)
    assert buf.drop_aged_out(max_age=5) == ([], [])  # equal is kept
    buf.advance_round()
    assert buf.drop_aged_out(max_age=5) == ([eid(1)], [6])


def test_resize_shrink_evicts_oldest():
    buf = EventBuffer(4)
    for i, age in enumerate([1, 4, 2, 3]):
        buf.add(eid(i), age=age)
    assert buf.resize(2) == ([eid(1), eid(3)], [4, 3])  # oldest first
    assert buf.capacity == 2


def test_resize_grow_keeps_everything():
    buf = EventBuffer(2)
    buf.add(eid(1))
    buf.add(eid(2))
    assert buf.resize(5) == ([], [])
    buf.add(eid(3))
    assert len(buf) == 3


def test_stage_then_evict_overflow():
    buf = EventBuffer(2)
    for i in range(5):
        buf.stage(eid(i), age=i)
    assert len(buf) == 5  # staging does not evict
    dropped = buf.evict_overflow()
    assert len(buf) == 2
    assert dropped == ([eid(4), eid(3), eid(2)], [4, 3, 2])  # oldest first
    assert set(buf.ids()) == {eid(0), eid(1)}


def test_snapshot_reflects_current_ages():
    buf = EventBuffer(4)
    buf.add(eid(1), age=1, payload="a")
    buf.advance_round()
    snap = buf.snapshot()
    assert len(snap) == 1
    assert snap[0].id == eid(1)
    assert snap[0].age == 2
    assert snap[0].payload == "a"


def test_oldest_excluding():
    buf = EventBuffer(10)
    for i, age in enumerate([5, 1, 3, 7]):
        buf.add(eid(i), age=age)
    oldest = buf.oldest_excluding(2)
    assert [x[0] for x in oldest] == [eid(3), eid(0)]
    assert [x[1] for x in oldest] == [7, 5]
    oldest = buf.oldest_excluding(2, exclude={eid(3)})
    assert [x[0] for x in oldest] == [eid(0), eid(2)]
    assert buf.oldest_excluding(0) == []


def test_compact_preserves_behaviour():
    buf = EventBuffer(3)
    for i in range(3):
        buf.add(eid(i), age=i)
    buf.sync_age(eid(0), 9)
    buf.compact()
    assert buf.add(eid(9), age=0) == ([eid(0)], [9])


# ----------------------------------------------------------------------
# model-based property test
# ----------------------------------------------------------------------
class ModelBuffer:
    """Literal Figure 1 semantics: explicit ages, linear scans."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = {}  # id -> [age, arrival]
        self.arrival = 0

    def add(self, event_id, age):
        self.stage(event_id, age)
        return self.evict()

    def stage(self, event_id, age):
        self.items[event_id] = [age, self.arrival]
        self.arrival += 1

    def evict(self):
        dropped = []
        while len(self.items) > self.capacity:
            victim = max(self.items, key=lambda k: (self.items[k][0], -self.items[k][1]))
            dropped.append((victim, self.items.pop(victim)[0]))
        return dropped

    def oldest_excluding(self, count, exclude):
        """Every stored event, oldest first, minus ``exclude``: a full sort."""
        ranked = sorted(self.items.items(), key=lambda kv: (-kv[1][0], kv[1][1]))
        return [(key, age) for key, (age, _arr) in ranked if key not in exclude][:count]

    def advance(self):
        for v in self.items.values():
            v[0] += 1

    def sync(self, event_id, age):
        if event_id in self.items:
            self.items[event_id][0] = max(self.items[event_id][0], age)

    def age_out(self, k):
        victims = sorted(
            (kv for kv in self.items.items() if kv[1][0] > k),
            key=lambda kv: (-kv[1][0], kv[1][1]),
        )
        out = []
        for key, (age, _arr) in victims:
            del self.items[key]
            out.append((key, age))
        return out


pairs = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 12)), max_size=8)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 30), st.integers(0, 8)),
        st.tuples(st.just("advance"), st.just(0), st.just(0)),
        st.tuples(st.just("sync"), st.integers(0, 30), st.integers(0, 12)),
        st.tuples(st.just("age_out"), st.just(0), st.integers(2, 10)),
        # the column paths: a message's new events staged in one call,
        # one trim, a batched age fold, and Figure 5(b)'s victim search
        st.tuples(st.just("stage_many"), pairs, st.just(0)),
        st.tuples(st.just("evict"), st.just(0), st.just(0)),
        st.tuples(st.just("sync_many"), pairs, st.just(0)),
        st.tuples(
            st.just("oldest"), st.integers(0, 8), st.frozensets(st.integers(0, 30), max_size=6)
        ),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=ops, capacity=st.integers(1, 6))
def test_buffer_matches_model(ops, capacity):
    real = EventBuffer(capacity)
    model = ModelBuffer(capacity)
    untrimmed = False
    for op, a, b in ops:
        if op == "add":
            if eid(a) in real:
                continue
            got = list(zip(*real.add(eid(a), age=b)))
            want = model.add(eid(a), b)
            assert got == want
        elif op == "advance":
            real.advance_round()
            model.advance()
        elif op == "sync":
            real.sync_age(eid(a), b)
            model.sync(eid(a), b)
        elif op == "age_out":
            got = list(zip(*real.drop_aged_out(b)))
            want = model.age_out(b)
            assert got == want
        elif op == "stage_many":
            fresh = {eid(k): age for k, age in a if eid(k) not in real}  # first copy wins
            real.stage_many(list(fresh), list(fresh.values()), [None] * len(fresh))
            for key, age in fresh.items():
                model.stage(key, age)
        elif op == "evict":
            assert list(zip(*real.evict_overflow())) == model.evict()
        elif op == "sync_many":
            assert real.sync_ages([eid(k) for k, _ in a], [age for _, age in a]) >= 0
            for k, age in a:
                model.sync(eid(k), age)
        else:  # oldest
            exclude = {eid(k) for k in b}
            assert real.oldest_excluding(a, exclude) == model.oldest_excluding(a, exclude)
        assert set(real.ids()) == set(model.items)
        for key, (age, _arr) in model.items.items():
            assert real.age_of(key) == age
        if op in ("add", "evict"):
            untrimmed = False
        elif op == "stage_many":
            untrimmed = True  # staging may overfill until the next trim
        assert len(real) <= capacity or untrimmed


def test_stage_many_rejects_buffered_or_repeated_ids_before_staging():
    buf = EventBuffer(8)
    buf.add(eid(1))
    with pytest.raises(ValueError):
        buf.stage_many([eid(2), eid(1)], [0, 0], [None, None])
    with pytest.raises(ValueError):
        buf.stage_many([eid(3), eid(3)], [0, 1], [None, None])
    with pytest.raises(ValueError):
        buf.stage_many([eid(4)], [-1], [None])
    assert list(buf.ids()) == [eid(1)]  # nothing was staged


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(8, 24),
    rounds=st.integers(5, 40),
)
def test_heap_walk_and_column_eviction_on_stale_heavy_heaps(seed, capacity, rounds):
    """Many ``sync_ages`` calls, each raising fewer than a quarter of the
    entries (below the rebuild threshold), strand stale heap records
    ahead of the live ones; the heap walk of ``oldest_excluding`` and
    the column eviction must still equal the brute-force model's full
    sort, for any exclude set."""
    import random

    rng = random.Random(seed)
    real = EventBuffer(capacity)
    model = ModelBuffer(capacity)
    next_id = 0
    stale_seen = 0
    for _ in range(rounds):
        real.advance_round()
        model.advance()
        # a message: a few new events staged in one call
        new = [(eid(next_id + k), rng.randint(0, 6)) for k in range(rng.randint(0, 5))]
        next_id += len(new)
        real.stage_many([k for k, _ in new], [a for _, a in new], [None] * len(new))
        for key, age in new:
            model.stage(key, age)
        # a few age raises per call, below the compaction threshold
        for _ in range(rng.randint(1, 4)):
            live = list(real.ids())
            picks = rng.sample(live, min(len(live), max(1, (len(live) - 1) // 4)))
            ages = [real.age_of(k) + rng.randint(1, 3) for k in picks]
            real.sync_ages(picks, ages)
            for key, age in zip(picks, ages):
                model.sync(key, age)
        stale_seen = max(stale_seen, len(real._heap) - len(real))
        live = list(real.ids())
        exclude = set(rng.sample(live, rng.randint(0, len(live))))
        count = rng.randint(0, len(live) + 2)
        assert real.oldest_excluding(count, exclude) == model.oldest_excluding(count, exclude)
        assert list(zip(*real.evict_overflow())) == model.evict()
        assert {k: real.age_of(k) for k in real.ids()} == {
            k: age for k, (age, _arr) in model.items.items()
        }
    if rounds >= 20:
        assert stale_seen > capacity // 2  # the heap really was stale-heavy


def test_remove_specific_event():
    buf = EventBuffer(4)
    buf.add(eid(1), age=3, payload="p")
    assert buf.remove(eid(1)) == 3  # the removed event's age
    assert eid(1) not in buf


def test_remove_missing_returns_none():
    buf = EventBuffer(4)
    assert buf.remove(eid(9)) is None


def test_remove_keeps_heap_consistent():
    buf = EventBuffer(3)
    buf.add(eid(1), age=9)
    buf.add(eid(2), age=1)
    buf.add(eid(3), age=5)
    buf.remove(eid(1))  # the oldest leaves a stale heap entry
    assert buf.add(eid(4), age=0) == ([], [])  # capacity not exceeded
    assert buf.add(eid(5), age=0) == ([eid(3)], [5])  # next-oldest, not the ghost
