"""Base class for simulated processes.

A :class:`SimProcess` is anything with an identity that lives on the
simulator: gossip nodes, workload generators, scenario scripts. It wraps
the common chores — periodic timers with per-process phase jitter, a named
RNG stream, tracing — so protocol code stays focused on protocol logic.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from repro.sim.engine import Simulator, TimerHandle

__all__ = ["SimProcess"]


class SimProcess:
    """A named participant in a simulation.

    Subclasses typically call :meth:`every` in their constructor to start
    periodic work and use :attr:`rng` for all their random choices.
    """

    def __init__(self, sim: Simulator, name: Hashable) -> None:
        self.sim = sim
        self.name = name
        self.rng = sim.rngs.stream("process", name)
        self._timers: list[TimerHandle] = []
        self._stopped = False

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def every(
        self,
        period: float,
        fn: Callable[[], None],
        phase: Optional[float] = None,
        jitter: float = 0.0,
    ) -> None:
        """Run ``fn()`` every ``period`` seconds.

        ``phase`` sets the first firing offset; by default a random phase
        in ``[0, period)`` desynchronises processes, matching how real
        deployments drift apart. ``jitter`` (fraction of the period) adds
        per-tick noise thereafter.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        if phase is None:
            phase = self.rng.uniform(0, period)

        def tick() -> None:
            if self._stopped:
                return
            fn()
            delay = period
            if jitter:
                delay *= self.rng.uniform(1 - jitter, 1 + jitter)
            self._timers.append(self.sim.schedule(delay, tick))

        self._timers.append(self.sim.schedule(phase, tick))

    def after(self, delay: float, fn: Callable[[], None], *args: Any) -> TimerHandle:
        """One-shot timer that is suppressed once the process stops."""

        def guarded() -> None:
            if not self._stopped:
                fn(*args)

        handle = self.sim.schedule(delay, guarded)
        self._timers.append(handle)
        return handle

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop all periodic activity. Idempotent."""
        self._stopped = True
        for t in self._timers:
            t.cancel()
        self._timers.clear()

    @property
    def stopped(self) -> bool:
        return self._stopped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
