"""Semantic obsolescence purging (related work [11], PSRM).

§5: "The usage of message semantics to discard obsolete messages in
order to ensure reliability for recent messages has also been proposed
[11]" — probabilistic semantically reliable multicast, by a subset of
this paper's own authors. The idea: many applications only care about
the *latest* event per logical key (a stock quote, a sensor reading);
once a newer event for a key exists, older ones are obsolete and may be
purged from buffers *before* anything the application still needs.

:class:`SemanticLpbcastProtocol` adds this to the Figure 1 baseline:

* an :class:`ObsolescencePolicy` extracts a key from each payload
  (``None`` = the event never becomes obsolete);
* when a newer event for a key is buffered, the older buffered event for
  that key is purged immediately (reason ``"obsolete"``) — freeing
  capacity for live information instead of waiting for age-ordering.

Orthogonal to the adaptive mechanism: purging changes *what* survives
overload, adaptation changes *whether* there is overload; they compose
(``benchmarks/test_ablation_semantics.py`` measures each alone and both).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from repro.gossip.events import EventId
from repro.gossip.lpbcast import LpbcastProtocol

__all__ = ["ObsolescencePolicy", "KeyedPayloadPolicy", "SemanticLpbcastProtocol"]

# policy(payload) -> key or None
ObsolescencePolicy = Callable[[Any], Optional[Hashable]]


def KeyedPayloadPolicy(payload: Any) -> Optional[Hashable]:
    """Default policy: payloads shaped ``(key, value)`` obsolete by key."""
    if isinstance(payload, tuple) and len(payload) == 2:
        return payload[0]
    return None


class SemanticLpbcastProtocol(LpbcastProtocol):
    """Figure 1 + [11]-style purging of semantically obsolete events.

    Additional parameters
    ---------------------
    policy:
        Maps payloads to obsolescence keys; defaults to
        :func:`KeyedPayloadPolicy`.

    Notes
    -----
    Obsolescence is decided by *local arrival order of buffering*: if an
    event for key k arrives after another is already buffered, the
    buffered one is purged. Delivery is unaffected (events are delivered
    on first receipt as usual); what changes is which events keep
    circulating — exactly [11]'s trade: reliability concentrates on the
    most recent event per key.
    """

    def __init__(self, *args: Any, policy: Optional[ObsolescencePolicy] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.policy = policy if policy is not None else KeyedPayloadPolicy
        self._holder_of: dict[Hashable, EventId] = {}
        self.obsoleted = 0

    # The baseline buffers events in broadcast() and in on_receive()'s
    # fold loop; both go through buffer.stage / buffer.add. We hook the
    # two protocol-level entry points instead of the buffer so the keys
    # of *payload-bearing* insertions are tracked exactly once.
    def broadcast(self, payload: Any, now: float) -> EventId:
        event_id = super().broadcast(payload, now)
        self._note_insertion(event_id, payload, now)
        return event_id

    def on_receive(self, message, now: float):
        replies = super().on_receive(message, now)
        # Events newly buffered by this message: sweep any key conflicts.
        for event_id, _age, payload in message.events:
            if event_id in self.buffer:
                self._note_insertion(event_id, payload, now)
        return replies

    # ------------------------------------------------------------------
    def _note_insertion(self, event_id: EventId, payload: Any, now: float) -> None:
        key = self.policy(payload)
        if key is None:
            return
        previous = self._holder_of.get(key)
        if previous is not None and previous != event_id:
            age = self.buffer.remove(previous)
            if age is not None:
                self.obsoleted += 1
                self._dropped("obsolete", ([previous], [age]), now)
        # Track the newest holder even if the new event itself was already
        # evicted by overflow — its id still defines "newest seen".
        self._holder_of[key] = event_id
        self._bound_holders()

    def _bound_holders(self) -> None:
        # The key map must not grow without bound; forget keys whose
        # newest event no longer circulates locally (not in the buffer).
        if len(self._holder_of) <= 4 * self.config.buffer_capacity:
            return
        self._holder_of = {
            key: event_id
            for key, event_id in self._holder_of.items()
            if event_id in self.buffer
        }
