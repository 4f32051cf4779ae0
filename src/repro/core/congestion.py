"""Local congestion estimation (paper Figure 5(b)).

Knowing the group's smallest buffer ``minBuff``, a node can *simulate*
that minimal buffer against its own traffic: after folding each received
gossip message into the real buffer, the events that a buffer of size
``minBuff`` would have had to discard are identified (the oldest ones
beyond ``minBuff``) and their ages feed a moving average ``avgAge``.

``avgAge`` then estimates the age at which the most constrained member is
currently dropping events — the congestion signal of §2.3: low average
drop age ⇒ events die young ⇒ the system is overloaded.

Events already accounted are remembered (the paper's ``lost`` set) so each
contributes at most once; the real buffer keeps using its full capacity,
which is why heterogeneous groups retain better reliability than the
minimum alone would suggest (observed in the paper's Figure 9 discussion).
"""

from __future__ import annotations

from typing import Optional

from repro.core.ewma import Ewma
from repro.gossip.buffer import EventBuffer
from repro.gossip.events import EventId

__all__ = ["CongestionEstimator"]


class CongestionEstimator:
    """Moving average of the ages a ``minBuff``-sized buffer would drop."""

    def __init__(self, alpha: float, initial_age: Optional[float] = None) -> None:
        self._avg = Ewma(alpha, initial=initial_age)
        self._accounted: set[EventId] = set()
        self.events_accounted = 0

    @property
    def avg_age(self) -> Optional[float]:
        """Current ``avgAge`` (None until first sample if no initial)."""
        return self._avg.value

    @property
    def accounted_live(self) -> int:
        """Size of the ``lost`` bookkeeping set (for tests/metrics)."""
        return len(self._accounted)

    def update(self, buffer: EventBuffer, min_buff: int) -> int:
        """Account the events a ``min_buff`` buffer would drop now.

        Call after folding one received gossip message into ``buffer``
        (Figure 5(b) hooks into RECEIVE). Returns how many events were
        newly accounted.
        """
        if min_buff < 1:
            raise ValueError("min_buff must be >= 1")
        # Forget accounted events that have left the real buffer; their
        # ids can never be re-buffered (dedup) so they are dead weight.
        accounted = self._accounted
        if accounted:  # walks the (smaller) accounted set at C speed
            accounted = self._accounted = buffer.ids() & accounted
        excess = len(buffer) - len(accounted) - min_buff
        if excess <= 0:
            return 0
        victims = buffer.oldest_excluding(excess, accounted)
        self._avg.update_many([age for _id, age in victims])
        accounted.update([event_id for event_id, _age in victims])
        self.events_accounted += len(victims)
        return len(victims)

    def reset(self, initial_age: Optional[float] = None) -> None:
        self._avg.reset(initial_age)
        self._accounted.clear()
