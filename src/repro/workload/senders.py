"""Application senders.

A :class:`Sender` offers broadcasts to one node at a configurable arrival
pattern and pushes them through the protocol's admission interface:

* the baseline admits everything immediately (unbounded input rate —
  Figure 7(a), "lpbcast");
* token-bucket protocols may refuse; refused messages wait in a bounded
  :class:`~repro.driver.OfferQueue` (the one the live host's nodes use)
  and are retried the moment a token is due — this is the paper's
  blocking ``BROADCAST`` (Figure 3) without blocking a thread.

Arrival patterns are small strategy objects exposing
``next_interval(rng) -> float`` and a mutable ``rate`` so scenario scripts
can change the offered load at runtime.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.driver import OfferQueue
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator, TimerHandle
from repro.sim.process import SimProcess

__all__ = ["PeriodicArrivals", "PoissonArrivals", "OnOffArrivals", "Sender"]


class PeriodicArrivals:
    """Strictly periodic offers at ``rate`` msg/s."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = float(rate)

    def next_interval(self, rng) -> float:
        return 1.0 / self.rate


class PoissonArrivals:
    """Exponential inter-arrival times with mean ``1/rate``."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.rate = float(rate)

    def next_interval(self, rng) -> float:
        return rng.expovariate(self.rate)


class OnOffArrivals:
    """Bursty traffic: periodic at ``rate`` for ``on`` seconds, silent for
    ``off`` seconds, repeating. Exercises the unused-grant decay rule of
    Figure 5(c) (§3.3's inflated-allowance attack)."""

    def __init__(self, rate: float, on: float, off: float) -> None:
        if rate <= 0 or on <= 0 or off < 0:
            raise ValueError("need rate > 0, on > 0, off >= 0")
        self.rate = float(rate)
        self.on = float(on)
        self.off = float(off)
        self._phase_left = self.on
        self._in_on = True

    def next_interval(self, rng) -> float:
        # The arrival clock only runs during ON phases; OFF phases add
        # silence to the returned interval without consuming it.
        remaining = 1.0 / self.rate
        interval = 0.0
        while True:
            if self._in_on:
                if remaining <= self._phase_left:
                    self._phase_left -= remaining
                    return interval + remaining
                interval += self._phase_left
                remaining -= self._phase_left
                self._in_on = False
                self._phase_left = self.off
            else:
                interval += self._phase_left
                self._in_on = True
                self._phase_left = self.on


class Sender(SimProcess):
    """Offers broadcasts to one protocol instance.

    Parameters
    ----------
    sim, name:
        Simulation process identity (name is usually ("sender", node_id)).
    protocol:
        The node's protocol; must expose ``try_broadcast`` and
        ``time_until_admission``.
    arrivals:
        Arrival pattern strategy.
    collector:
        Metrics sink (offered/admitted/rejected accounting).
    payload_fn:
        Builds payloads; defaults to None payloads (the experiments only
        study dissemination, not content).
    start / stop:
        Active interval; offers outside it are not generated.
    queue_limit:
        Bound on offers waiting for admission (see
        :class:`~repro.driver.OfferQueue`, which also counts them).
    """

    def __init__(
        self,
        sim: Simulator,
        name: Any,
        protocol,
        arrivals,
        collector: MetricsCollector,
        payload_fn: Optional[Callable[[int], Any]] = None,
        start: float = 0.0,
        stop: Optional[float] = None,
        queue_limit: int = 100,
    ) -> None:
        super().__init__(sim, name)
        self.queue = OfferQueue(protocol.node_id, protocol, collector, queue_limit)
        self.protocol = protocol
        self.arrivals = arrivals
        self.payload_fn = payload_fn
        self.start = start
        self.stop_time = stop
        self._offer_seq = 0
        self._retry: Optional[TimerHandle] = None
        self.after(max(0.0, start - sim.now), self._tick)

    # ------------------------------------------------------------------
    # offer loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            return
        payload = self.payload_fn(self._offer_seq) if self.payload_fn else None
        self._offer_seq += 1
        self._settle(self.queue.offer(payload, now), now)
        self.after(self.arrivals.next_interval(self.rng), self._tick)

    def _settle(self, waiting: bool, now: float) -> None:
        """Keep one retry timer, due when admission next allows, while
        offers wait; none otherwise."""
        if not waiting:
            if self._retry is not None:
                self._retry.cancel()
                self._retry = None
            return
        if self._retry is not None and not self._retry.cancelled:
            return
        delay = max(self.protocol.time_until_admission(now), 1e-6)
        self._retry = self.after(delay, self._on_retry)

    def _on_retry(self) -> None:
        self._retry = None
        now = self.sim.now
        self._settle(self.queue.drain(now), now)

    # ------------------------------------------------------------------
    # runtime control
    # ------------------------------------------------------------------
    def set_rate(self, rate: float) -> None:
        """Change the offered rate (takes effect from the next arrival)."""
        if rate <= 0:
            raise ValueError("rate must be > 0")
        self.arrivals.rate = rate

