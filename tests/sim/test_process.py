"""Tests for the SimProcess base class."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import SimProcess


def test_every_fires_periodically():
    sim = Simulator(seed=1)
    proc = SimProcess(sim, "p")
    ticks = []
    proc.every(1.0, lambda: ticks.append(sim.now), phase=0.5, jitter=0.0)
    sim.run(until=5.0)
    assert ticks == [0.5, 1.5, 2.5, 3.5, 4.5]


def test_every_random_phase_within_period():
    sim = Simulator(seed=2)
    proc = SimProcess(sim, "p")
    ticks = []
    proc.every(1.0, lambda: ticks.append(sim.now), jitter=0.0)
    sim.run(until=1.0)
    assert len(ticks) == 1
    assert 0.0 <= ticks[0] < 1.0


def test_every_validates_period():
    sim = Simulator()
    proc = SimProcess(sim, "p")
    with pytest.raises(ValueError):
        proc.every(0.0, lambda: None)


def test_jitter_desynchronises():
    sim = Simulator(seed=3)
    proc = SimProcess(sim, "p")
    ticks = []
    proc.every(1.0, lambda: ticks.append(sim.now), phase=0.0, jitter=0.2)
    sim.run(until=10.0)
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    assert all(0.8 <= g <= 1.2 for g in gaps)
    assert len(set(round(g, 6) for g in gaps)) > 1  # not constant


def test_stop_cancels_timers():
    sim = Simulator(seed=1)
    proc = SimProcess(sim, "p")
    ticks = []
    proc.every(1.0, lambda: ticks.append(sim.now), phase=0.5, jitter=0.0)
    sim.run(until=2.0)
    proc.stop()
    sim.run(until=10.0)
    assert len(ticks) == 2
    assert proc.stopped


def test_stop_is_idempotent():
    sim = Simulator(seed=1)
    proc = SimProcess(sim, "p")
    proc.stop()
    proc.stop()


def test_after_one_shot():
    sim = Simulator(seed=1)
    proc = SimProcess(sim, "p")
    fired = []
    proc.after(2.0, fired.append, "x")
    sim.run(until=5.0)
    assert fired == ["x"]


def test_after_suppressed_by_stop():
    sim = Simulator(seed=1)
    proc = SimProcess(sim, "p")
    fired = []
    proc.after(2.0, fired.append, "x")
    proc.stop()
    sim.run(until=5.0)
    assert fired == []


def test_rng_is_deterministic_per_name():
    a = SimProcess(Simulator(seed=5), "p")
    b = SimProcess(Simulator(seed=5), "p")
    assert a.rng.random() == b.rng.random()
    c = SimProcess(Simulator(seed=5), "q")
    assert a.rng.random() != c.rng.random()

