"""The discrete-event simulation kernel.

A :class:`Simulator` owns a priority queue of timestamped callbacks and a
virtual clock. Time only advances when an event is dispatched; between
events nothing happens, so simulating hundreds of virtual seconds costs
only as much as the number of scheduled events.

Events scheduled for the same instant fire in FIFO order (a monotonically
increasing sequence number breaks ties), which keeps runs deterministic.

Two scheduling paths share one heap:

* :meth:`Simulator.schedule` returns a cancellable :class:`TimerHandle`;
* :meth:`Simulator.post` is the fire-and-forget fast path — no handle is
  allocated, which matters on hot paths that schedule hundreds of
  thousands of never-cancelled events (message deliveries, round ticks).

For periodic work at scale, :class:`RoundDispatcher` provides the batched
round fast path: members with the same period and aligned phase share one
*round bucket*, so a whole cluster's gossip round costs one heap pop
instead of N. Members with per-tick jitter or distinct phases degrade
gracefully to per-member buckets that still avoid the handle/closure
overhead of naive per-node timers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "TimerHandle",
    "SimulationError",
    "RoundDispatcher",
    "RoundMembership",
]


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class TimerHandle:
    """A cancellable reference to a scheduled callback."""

    __slots__ = ("time", "_seq", "_callback", "_args", "_cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self._seq = seq
        self._callback = callback
        self._args = args
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call more than once."""
        self._cancelled = True
        # Drop references eagerly so cancelled timers don't pin objects
        # until they percolate out of the heap.
        self._callback = None
        self._args = ()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<TimerHandle t={self.time:.6f} {state}>"


class Simulator:
    """Deterministic discrete-event scheduler with a virtual clock.

    Parameters
    ----------
    seed:
        Root seed for the :class:`RngRegistry` exposed as :attr:`rngs`.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        # Heap entries are (time, seq, handle_or_None, callback, args).
        # The unique seq guarantees tuple comparison never reaches the
        # callback, so heterogeneous callables are safe in the heap.
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._dispatched = 0
        self._running = False
        self.rngs = RngRegistry(seed)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Number of callbacks executed so far."""
        return self._dispatched

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled stragglers)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        handle = TimerHandle(time, next(self._seq), callback, args)
        heapq.heappush(self._queue, (time, handle._seq, handle, callback, args))
        return handle

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`TimerHandle`.

        The hot path for events that are never cancelled (message
        deliveries, round buckets): one tuple on the heap, no handle
        allocation, no cancellation bookkeeping.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} seconds in the past")
        heapq.heappush(
            self._queue, (self._now + delay, next(self._seq), None, callback, args)
        )

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Absolute-time variant of :meth:`post`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        heapq.heappush(self._queue, (time, next(self._seq), None, callback, args))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next pending event. Returns False if queue is empty."""
        queue = self._queue
        while queue:
            time, _seq, handle, callback, args = heapq.heappop(queue)
            if handle is not None:
                if handle._cancelled:
                    continue
                # Release the handle's references before the callback runs
                # so re-entrant cancels of already-fired timers are harmless.
                handle.cancel()
            self._now = time
            self._dispatched += 1
            callback(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been dispatched. Returns the final clock value.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, so repeated ``run(until=...)``
        calls observe a monotone clock.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        budget = max_events if max_events is not None else -1
        queue = self._queue
        try:
            while queue:
                if budget == 0:
                    break
                head = queue[0]
                handle = head[2]
                if handle is not None and handle._cancelled:
                    heapq.heappop(queue)
                    continue
                if until is not None and head[0] > until:
                    break
                self.step()
                if budget > 0:
                    budget -= 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_empty(self, max_events: int = 10_000_000) -> float:
        """Drain the whole queue (bounded by ``max_events`` as a fuse)."""
        return self.run(until=None, max_events=max_events)


class RoundMembership:
    """A member of a :class:`RoundDispatcher`; :meth:`cancel` to leave."""

    __slots__ = ("fn", "active")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.active = True

    def cancel(self) -> None:
        """Stop firing this member. Safe to call more than once."""
        self.active = False
        self.fn = None

    @property
    def cancelled(self) -> bool:
        return not self.active


class _AlignedBucket:
    """All same-period members due at the same instant: one pop fires all.

    The owning dispatcher's registry always maps ``(period, next_time)``
    to the bucket: each firing re-keys the entry to the new fire time
    (so later joiners aligned with it find and share it) and a bucket
    whose members have all cancelled deletes its entry — the registry
    stays bounded by the number of live buckets even under churn.
    """

    __slots__ = ("dispatcher", "period", "next_time", "members")

    def __init__(self, dispatcher: "RoundDispatcher", period: float, next_time: float) -> None:
        self.dispatcher = dispatcher
        self.period = period
        self.next_time = next_time
        self.members: list[RoundMembership] = []

    def fire(self) -> None:
        members = self.members
        dead = 0
        for m in members:
            if m.active:
                m.fn()
            else:
                dead += 1
        if dead and dead * 2 >= len(members):
            self.members = members = [m for m in members if m.active]
        registry = self.dispatcher._aligned
        old_key = (self.period, self.next_time)
        if registry.get(old_key) is self:
            del registry[old_key]
        if members:
            sim = self.dispatcher.sim
            self.next_time = sim.now + self.period
            registry[(self.period, self.next_time)] = self
            sim.post_at(self.next_time, self.fire)


class _JitteredMember(RoundMembership):
    """A member whose per-tick jitter forces its own re-arm schedule."""

    __slots__ = ("sim", "period", "jitter", "rng")

    def __init__(self, sim: Simulator, fn, period: float, jitter: float, rng) -> None:
        super().__init__(fn)
        self.sim = sim
        self.period = period
        self.jitter = jitter
        self.rng = rng

    def fire(self) -> None:
        if not self.active:
            return
        self.fn()
        # Matches SimProcess.every's draw pattern exactly, so a run is
        # byte-identical whichever dispatch path drives it.
        delay = self.period * self.rng.uniform(1 - self.jitter, 1 + self.jitter)
        self.sim.post(delay, self.fire)


class RoundDispatcher:
    """Batched periodic dispatch: the timer-wheel for gossip rounds.

    ``add`` registers ``fn`` to run every ``period`` seconds. Jitter-free
    members whose first firing coincides share an *aligned bucket* — the
    whole bucket costs one heap event per round no matter how many members
    it has (the round-synchronous fast path). Members with per-tick jitter
    get their own re-arm schedule but still skip the TimerHandle/closure
    machinery of :meth:`repro.sim.process.SimProcess.every`.

    The phase and jitter draws replicate ``SimProcess.every`` exactly
    (first fire after ``phase`` — a uniform draw in ``[0, period)`` when
    omitted — then ``period * U(1-jitter, 1+jitter)`` between fires), so a
    simulation driven by this dispatcher is byte-identical to one driven
    by per-member timers, provided the same RNG streams are supplied.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._aligned: dict[tuple[float, float], _AlignedBucket] = {}

    def add(
        self,
        fn: Callable[[], None],
        period: float,
        phase: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
    ) -> RoundMembership:
        """Register a periodic member; returns a cancellable membership."""
        if period <= 0:
            raise ValueError("period must be positive")
        if phase is None:
            if rng is None:
                raise ValueError("a random phase needs an rng")
            phase = rng.uniform(0, period)
        if jitter:
            if rng is None:
                raise ValueError("per-tick jitter needs an rng")
            member = _JitteredMember(self.sim, fn, period, jitter, rng)
            self.sim.post(phase, member.fire)
            return member
        member = RoundMembership(fn)
        first = self.sim.now + phase
        bucket = self._aligned.get((period, first))
        if bucket is None:
            bucket = _AlignedBucket(self, period, first)
            self._aligned[(period, first)] = bucket
            self.sim.post_at(first, bucket.fire)
        bucket.members.append(member)
        return member
