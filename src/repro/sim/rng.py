"""Deterministic named random streams.

Every stochastic component of a simulation (each node's gossip target
selection, the network latency sampler, the workload generator, ...) draws
from its own named stream derived from a single root seed. This gives two
properties that matter for a reproduction:

* **Reproducibility** — the same root seed always produces the same run,
  bit for bit, regardless of dict ordering or component creation order.
* **Variance isolation** — changing one component's behaviour (e.g. adding
  a sender) does not perturb the random choices of unrelated components,
  so A/B comparisons between algorithm variants share their randomness.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Hashable, Sequence

try:  # only WordBank needs it — stdlib-only installs work unchanged
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on stdlib-only installs
    _np = None

__all__ = [
    "derive_seed",
    "sample_indices",
    "uniform_sample",
    "RngRegistry",
    "WordBank",
]


def derive_seed(root_seed: int, *name: Hashable) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    The derivation is a SHA-256 hash of the canonical representation of the
    root seed and the name parts, so it is stable across processes and
    Python versions (unlike ``hash()``).
    """
    material = repr((int(root_seed), tuple(name))).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def _pool_limit(k: int) -> int:
    """Largest population CPython's ``sample`` copies into a pool.

    Above it the stdlib tracks a selection set instead (its heuristic
    weighs the set's table size against the cost of the copy).
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def sample_indices(getrandbits, n: int, k: int) -> list[int]:
    """The indices ``random.Random.sample(range(n), k)`` picks, draw for draw.

    The one scalar copy of CPython's sampler: partial Fisher–Yates over
    a pool for small populations, rejection into a selection set
    otherwise, with the ``_randbelow`` loop inlined over ``getrandbits``
    — any callable that returns the next ``bits``-bit draw of a stream,
    ``Random.getrandbits`` or a :meth:`WordBank.reader`. It consumes the
    *exact same* draws as the stdlib, so swapping it in changes no run
    anywhere; a unit test pins the equality on both branches so a future
    CPython change cannot silently desynchronise us.
    """
    result = [0] * k
    if n <= _pool_limit(k):
        pool = list(range(n))
        for i in range(k):
            bound = n - i
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[bound - 1]
    else:
        bits = n.bit_length()
        selected: set[int] = set()
        selected_add = selected.add
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected_add(j)
            result[i] = j
    return result


def uniform_sample(rng: random.Random, population: Sequence, k: int) -> list:
    """``rng.sample(population, k)`` with identical draws, minus overhead.

    Target selection runs once per node per round, which makes the
    stdlib's Python-level call stack (``sample`` → ``_randbelow`` per
    draw) a measurable slice of the simulator's hot path;
    :func:`sample_indices` replays it over ``getrandbits`` directly.
    Non-``random.Random`` generators fall back to their own ``sample``.
    """
    if type(rng) is not random.Random:
        return rng.sample(population, k)
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    return [population[j] for j in sample_indices(rng.getrandbits, n, k)]


class RngRegistry:
    """A factory of named, independently-seeded ``random.Random`` streams.

    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("node", 3)
    >>> b = rngs.stream("network")
    >>> a is rngs.stream("node", 3)
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[tuple[Hashable, ...], random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def stream(self, *name: Hashable) -> random.Random:
        """Return the (memoized) stream for ``name``, creating it on demand."""
        key = tuple(name)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(derive_seed(self._seed, *key))
            self._streams[key] = stream
        return stream

    def fork(self, *name: Hashable) -> "RngRegistry":
        """Return a new registry whose root seed is derived from ``name``.

        Useful to hand a component a whole private namespace of streams.
        """
        return RngRegistry(derive_seed(self._seed, "fork", *name))


# Words per stream per prefetch. The bank holds two blocks per stream
# (n x 64 uint32: 5 MB at 20k streams), which keeps the columnar lane's
# peak RSS within 3-5% of the unbanked run; 64 measured +11%, over the
# perf ledger's 10% bound, for no measurable gain in speed.
BANK_BLOCK = 32


class WordBank:
    """Raw 32-bit outputs of many registry streams, prefetched for bulk draws.

    ``random.Random`` hands out one draw per Python call; a population
    that draws every round pays that call millions of times. The bank
    pulls the Mersenne Twister outputs of streams ``(name, 0) .. (name,
    n - 1)`` :data:`BANK_BLOCK` words at a time (one ``getrandbits``
    call) into an ``(n, 2 * BANK_BLOCK)`` ``uint32`` array with a cursor
    per stream, so a whole population's draws become array operations
    over the next few words of every row. The layout is word-level
    because a word is the unit every ``Random`` method consumes:
    ``getrandbits(b <= 32)`` is the top ``b`` bits of one word,
    ``random()`` is two.

    **Ownership:** once a stream's first draw has been made here the
    bank has run it up to two blocks ahead, so the bank must be the
    *only* reader of the streams it is given — draw through
    :meth:`sample_indices` or :meth:`reader`, never through
    ``RngRegistry.stream``. Streams must be unread when handed over.
    :meth:`export` rebuilds, from the seed and the consumed-word count,
    the ``random.Random`` a stream would be had every banked draw been
    made on it directly.
    """

    def __init__(self, rngs: RngRegistry, name: Hashable, n: int) -> None:
        if _np is None:
            raise RuntimeError("WordBank needs numpy (pip install .[accel])")
        self._seed = rngs.seed
        self._name = name
        self._getrandbits = [rngs.stream(name, i).getrandbits for i in range(n)]
        # nothing is prefetched yet: every cursor sits at the end of its
        # row, and a row is refilled when a draw finds it there
        self._words = _np.zeros((n, 2 * BANK_BLOCK), dtype=_np.uint32)
        self._cursor = _np.full(n, 2 * BANK_BLOCK, dtype=_np.intp)
        self._retired = _np.full(n, -2 * BANK_BLOCK, dtype=_np.int64)  # words shifted out

    def _refill(self, sub) -> None:
        """Drop the spent lower block of rows ``sub``, prefetch the next one."""
        block = BANK_BLOCK
        getrandbits = self._getrandbits
        words = self._words
        # a slice of rows at a time: the first refill covers every stream,
        # and its byte strings would otherwise be a second copy of the bank
        for lo in range(0, sub.size, 2048):
            part = sub[lo : lo + 2048]
            fresh = b"".join(
                [getrandbits[i](32 * block).to_bytes(4 * block, "little") for i in part.tolist()]
            )
            words[part, :block] = words[part, block:]
            # getrandbits(32 * B) packs B outputs least-significant word first
            words[part, block:] = _np.frombuffer(fresh, dtype="<u4").reshape(-1, block)
        self._cursor[sub] -= block
        self._retired[sub] += block

    def reader(self, i: int) -> Callable[[int], int]:
        """A ``getrandbits`` (``1 <= bits <= 32``) over stream ``i``'s words."""
        words = self._words
        cursor = self._cursor

        def getrandbits(bits: int) -> int:
            c = int(cursor[i])
            if c == 2 * BANK_BLOCK:
                self._refill(_np.array([i], dtype=_np.intp))
                c = BANK_BLOCK
            cursor[i] = c + 1
            return int(words[i, c]) >> (32 - bits)

        return getrandbits

    def sample_indices(self, streams, n: int, k: int):
        """Row ``r`` is ``Random.sample(range(n), k)`` drawn from ``streams[r]``.

        ``streams`` is an index array (any order, no repeats); the
        result is ``(len(streams), k)``. The set branch of CPython's
        sampler runs as array operations: every row looks at its next
        ``window`` words, keeps ``word >> (32 - bits)`` where it is below
        ``n``, takes the first ``k`` kept and advances its cursor past
        the last word it used. Rows that find fewer than ``k`` in the
        window, or pick an index twice (the stdlib would redraw), are
        left untouched and redone by the scalar sampler over the same
        words — as is every row on the small-population pool branch,
        whose draw widths shrink pick by pick.
        """
        a = streams.shape[0]
        # acceptance is > 1/2 per word, so 2k words are expected to do
        window = min(BANK_BLOCK, 2 * k + 8)
        if n <= _pool_limit(k) or not 0 < k <= window:
            picked = _np.empty((a, k), dtype=_np.intp)
            redo = range(a)
        else:
            # a cursor past the lower block may not have a window ahead
            spent = streams[self._cursor[streams] > BANK_BLOCK]
            if spent.size:
                self._refill(spent)
            cursor = self._cursor[streams]
            draws = self._words.ravel().take(
                (streams * (2 * BANK_BLOCK) + cursor)[:, None] + _np.arange(window)
            ) >> _np.uint32(32 - n.bit_length())
            ok = draws < n
            # row-major flat positions of the accepted draws: each row's
            # run starts where the rows before it end. The k spare slots
            # keep the last rows' reads in range when they come up short.
            hits = _np.concatenate((_np.flatnonzero(ok), _np.zeros(k, dtype=_np.intp)))
            count = ok.sum(axis=1)
            first_k = hits[(_np.cumsum(count) - count)[:, None] + _np.arange(k)]
            picked = draws.ravel().take(first_k).astype(_np.intp)
            ranked = _np.sort(picked, axis=1)
            bad = (count < k) | (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
            used = first_k[:, -1] - _np.arange(a) * window + 1
            self._cursor[streams] = cursor + _np.where(bad, 0, used)
            redo = _np.flatnonzero(bad).tolist()
        for r in redo:
            picked[r] = sample_indices(self.reader(int(streams[r])), n, k)
        return picked

    def consumed(self, i: int) -> int:
        """How many words of stream ``i`` have been drawn so far."""
        return int(self._retired[i] + self._cursor[i])

    def export(self, i: int) -> random.Random:
        """Stream ``i`` as a ``random.Random`` positioned after the banked draws."""
        rng = random.Random(derive_seed(self._seed, self._name, i))
        consumed = self.consumed(i)
        if consumed:
            rng.getrandbits(32 * consumed)
        return rng
