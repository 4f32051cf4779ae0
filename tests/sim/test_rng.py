"""Tests for deterministic named RNG streams."""

from repro.sim.rng import RngRegistry, derive_seed


def test_derive_seed_is_stable():
    assert derive_seed(1, "a") == derive_seed(1, "a")


def test_derive_seed_differs_by_name_and_seed():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_multi_part_names():
    assert derive_seed(1, "node", 3) != derive_seed(1, "node", 4)
    assert derive_seed(1, "node", 3) == derive_seed(1, "node", 3)


def test_streams_are_memoized():
    rngs = RngRegistry(7)
    assert rngs.stream("a") is rngs.stream("a")


def test_streams_reproducible_across_registries():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_independent():
    rngs = RngRegistry(7)
    a = rngs.stream("a")
    _ = [a.random() for _ in range(100)]  # consuming a must not affect b
    b_fresh = RngRegistry(7).stream("b")
    b = rngs.stream("b")
    assert [b.random() for _ in range(5)] == [b_fresh.random() for _ in range(5)]


def test_creation_order_does_not_matter():
    r1 = RngRegistry(9)
    s1a = r1.stream("a")
    s1b = r1.stream("b")
    r2 = RngRegistry(9)
    s2b = r2.stream("b")
    s2a = r2.stream("a")
    assert s1a.random() == s2a.random()
    assert s1b.random() == s2b.random()


def test_fork_namespaces():
    root = RngRegistry(5)
    f1 = root.fork("component")
    f2 = root.fork("component")
    assert f1.seed == f2.seed
    assert f1.stream("x").random() == f2.stream("x").random()
    assert root.fork("other").seed != f1.seed


def test_seed_property():
    assert RngRegistry(123).seed == 123


# ----------------------------------------------------------------------
# uniform_sample: draw-for-draw parity with random.sample
# ----------------------------------------------------------------------
def test_uniform_sample_matches_stdlib_sample_exactly():
    """Both branches (pool copy and selection set), many shapes and seeds.

    The hot path inlines CPython's sample algorithm; this pins the
    equivalence so a future stdlib change cannot silently desynchronise
    runs that were produced with different repro versions.
    """
    import random as _random

    from repro.sim.rng import uniform_sample

    for seed in range(25):
        for n, k in [(3, 2), (10, 4), (21, 5), (60, 4), (60, 21), (999, 10),
                     (500, 9), (7, 7), (40, 0)]:
            population = [f"m{i}" for i in range(n)]
            expected = _random.Random(seed).sample(population, k)
            got = uniform_sample(_random.Random(seed), population, k)
            assert got == expected, (seed, n, k)


def test_uniform_sample_consumes_stream_identically():
    """Draws after the sample line up too — the stream stays in sync."""
    import random as _random

    from repro.sim.rng import uniform_sample

    a, b = _random.Random(77), _random.Random(77)
    population = list(range(300))
    a.sample(population, 12)
    uniform_sample(b, population, 12)
    assert a.random() == b.random()
    assert a.getrandbits(31) == b.getrandbits(31)


def test_uniform_sample_validates_k():
    import random as _random

    import pytest

    from repro.sim.rng import uniform_sample

    with pytest.raises(ValueError):
        uniform_sample(_random.Random(1), [1, 2, 3], 4)
    with pytest.raises(ValueError):
        uniform_sample(_random.Random(1), [1, 2, 3], -1)


# ----------------------------------------------------------------------
# WordBank: whole-population draws, word for word what Random would draw
# ----------------------------------------------------------------------
def _bank_and_references(n_streams, seed=11):
    import random as _random

    import pytest

    pytest.importorskip("numpy")
    from repro.sim.rng import WordBank

    bank = WordBank(RngRegistry(seed), "protocol", n_streams)
    references = [
        _random.Random(derive_seed(seed, "protocol", i)) for i in range(n_streams)
    ]
    return bank, references


def _assert_bank_replays_sample(bank, references, calls):
    """Every row equals ``Random.sample``; every stream ends where it would."""
    import numpy as np

    for streams, m, k in calls:
        got = bank.sample_indices(np.asarray(streams, dtype=np.intp), m, k)
        assert got.shape == (len(streams), k)
        for row, i in zip(got.tolist(), streams):
            assert row == references[i].sample(range(m), k), (i, m, k)
    for i, reference in enumerate(references):
        assert bank.export(i).getstate() == reference.getstate(), i


def test_bank_matches_stdlib_sample_on_every_branch():
    """Pool and set branch, the k > 5 set-size growth (pool up to 85 at
    k = 6), and populations either side of a power of two, where the
    rejection rate jumps from almost never to almost half."""
    bank, references = _bank_and_references(40)
    everyone = list(range(40))
    calls = [
        (everyone, m, k)
        for m, k in [
            (10, 3), (21, 4), (22, 4), (500, 4), (21, 5), (22, 5),
            (85, 6), (86, 6), (300, 12), (1000, 20),
            (255, 4), (256, 4), (257, 4), (4095, 4), (4096, 4), (4097, 4),
            (7, 7), (30, 0),
        ]
    ]
    _assert_bank_replays_sample(bank, references, calls)


def test_bank_serves_a_shuffled_alive_subset_across_refills():
    """Rows follow the order of ``streams``, idle streams are not
    advanced, and 60 rounds of ~6.5 words cross a 32-word block a dozen
    times with the branch changing under the same streams."""
    from repro.sim.rng import BANK_BLOCK

    bank, references = _bank_and_references(64)
    subset = [41, 3, 17, 0, 63, 22, 9, 58, 30, 12]
    calls = []
    for round_ in range(60):
        calls.append((subset, 40_000, 4))
        if round_ % 7 == 0:
            calls.append((subset[::-1], 19, 3))  # pool branch, scalar reader
    _assert_bank_replays_sample(bank, references, calls)
    assert bank.consumed(41) > 3 * BANK_BLOCK
    assert bank.consumed(1) == 0  # never drew


def test_bank_redoes_starved_and_duplicate_rows_over_the_same_words():
    """Forced by overwriting prefetched words: a row whose whole window
    is rejected and a row whose first two draws collide must continue
    exactly as the scalar sampler would over those words."""
    import random as _random

    import pytest

    np = pytest.importorskip("numpy")
    from repro.sim.rng import WordBank, sample_indices

    m, k, bits = 300, 4, 9
    rngs = RngRegistry(5)
    bank = WordBank(rngs, "protocol", 6)
    streams = np.arange(6, dtype=np.intp)
    bank.sample_indices(streams, m, k)  # prefetch, so there are words to overwrite
    starved, collided = 1, 4
    at = int(bank._cursor[starved])
    bank._words[starved, at : at + 2 * k + 8] = 0xFFFFFFFF  # 511 >= m: all rejected
    at = int(bank._cursor[collided])
    bank._words[collided, at : at + 2] = 7 << (32 - bits)  # draws 7, then 7 again

    expected, consumed = [], []
    for i in range(6):
        pending = bank._words[i, int(bank._cursor[i]) :].tolist()
        tail = _random.Random()
        tail.setstate(rngs.stream("protocol", i).getstate())  # what follows the row
        calls = []

        def getrandbits(b, pending=pending, tail=tail, calls=calls):
            calls.append(b)
            word = pending.pop(0) if pending else tail.getrandbits(32)
            return word >> (32 - b)

        expected.append(sample_indices(getrandbits, m, k))
        consumed.append(len(calls))
    assert consumed[starved] > 2 * k + 8 and expected[collided][0] == 7

    before = [bank.consumed(i) for i in range(6)]
    got = bank.sample_indices(streams, m, k)
    assert got.tolist() == expected
    assert [bank.consumed(i) - before[i] for i in range(6)] == consumed


def test_columnar_no_draw_case_leaves_the_banked_streams_unread():
    """fanout >= peers: the full view returns everyone, no stream is read."""
    import random as _random

    import pytest

    pytest.importorskip("numpy")
    from repro.gossip.config import SystemConfig
    from repro.sim.network import ConstantLatency
    from repro.workload.cluster import SimCluster

    cluster = SimCluster(
        n_nodes=4,
        system=SystemConfig(fanout=3, round_jitter=0.0, round_phase=0.0),
        protocol="lpbcast",
        seed=9,
        latency=ConstantLatency(0.01),
        dispatch="vector",
    )
    cluster.add_senders([0], rate_each=2.0)
    cluster.run(until=6.0)
    assert cluster.vector is not None and cluster.metrics.deliveries.total > 0
    for i in range(4):
        fresh = _random.Random(derive_seed(9, "protocol", i))
        assert cluster.vector._bank.export(i).getstate() == fresh.getstate()
