"""Wire messages and the sans-IO protocol interface.

All gossip variants in this library are *sans-IO* state machines: they
never touch clocks, sockets or the simulator. A **driver** (see
:mod:`repro.driver` — the discrete-event :class:`~repro.workload.cluster.SimCluster`
or the threaded :class:`~repro.runtime.cluster.ThreadedCluster`) calls:

* :meth:`GossipProtocol.on_round` once per gossip period,
* :meth:`GossipProtocol.on_receive` for every arriving message,
* :meth:`GossipProtocol.broadcast` when the application sends,

and transmits the returned :class:`Emission` list however it likes. This
is how one protocol implementation backs both the paper's simulation and
its prototype deployment.

Batched variants exist for the hot path: :meth:`GossipProtocol.on_round_batch`
returns ``(destinations, message)`` pairs instead of one
:class:`Emission` per destination (a gossip round sends the *same*
message to ``f`` peers, so per-destination tuples are pure churn), and
:meth:`GossipProtocol.on_receive_batch` folds several queued messages in
one call. Both have default implementations in terms of the unbatched
methods, so protocol variants only override them for speed, never for
semantics.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Hashable, NamedTuple, Optional, Sequence, Union

from repro.gossip.events import EventColumns, EventId, EventSummary

__all__ = [
    "NodeId",
    "AdaptiveHeader",
    "MembershipHeader",
    "GossipMessage",
    "Emission",
    "EmissionBatch",
    "DeliverFn",
    "DropFn",
    "GossipProtocol",
]

NodeId = Hashable


class AdaptiveHeader(NamedTuple):
    """Piggybacked adaptation state (paper Figure 5(a)).

    ``period`` is the sender's current sample period index ``s`` and
    ``min_buff`` its current minimum-buffer estimate for that period.
    """

    period: int
    min_buff: int


class MembershipHeader(NamedTuple):
    """Piggybacked membership gossip (lpbcast-style subs/unsubs)."""

    subs: tuple[NodeId, ...]
    unsubs: tuple[NodeId, ...]


class GossipMessage(NamedTuple):
    """One gossip message: event summaries plus optional headers.

    ``events`` is either a plain tuple of :class:`EventSummary` (the row
    form, for small hand-built lists) or the columnar
    :class:`~repro.gossip.events.EventColumns` the hot paths emit — the
    two iterate and compare identically. ``events`` may be shared between
    the ``f`` emissions of a round — receivers must treat it as
    immutable.
    """

    sender: NodeId
    events: Union[tuple[EventSummary, ...], EventColumns]
    adaptive: Optional[AdaptiveHeader] = None
    membership: Optional[MembershipHeader] = None
    kind: str = "gossip"

    @property
    def n_events(self) -> int:
        return len(self.events)


class Emission(NamedTuple):
    """An outbound message produced by a protocol."""

    dest: NodeId
    message: GossipMessage


# One batched emission: a message shared by a group of destinations.
EmissionBatch = tuple[tuple[NodeId, ...], GossipMessage]


# deliver_fn(event_ids, payloads, now) — called once per batch of locally
# new events: once per received message that carried any (or per event on
# the reference and row-form paths), and once per broadcast. Every new
# event is in exactly one call, in the order it was buffered.
DeliverFn = Callable[[Sequence[EventId], Sequence[Any], float], None]
# drop_fn(reason, event_ids, ages, now) — called once per removal the real
# buffer made (a message's overflow trim, a round's age-out, a resize, an
# obsolescence purge) with the dropped ids and their ages, in drop order;
# reason is "overflow", "age_out", "resize" or "obsolete". Never called
# with no events.
DropFn = Callable[[str, Sequence[EventId], Sequence[int], float], None]


class GossipProtocol(abc.ABC):
    """Interface implemented by every gossip variant."""

    node_id: NodeId

    @abc.abstractmethod
    def broadcast(self, payload: Any, now: float) -> EventId:
        """Inject an application broadcast; returns the new event's id."""

    @abc.abstractmethod
    def on_round(self, now: float) -> list[Emission]:
        """Advance one gossip round; returns the messages to transmit."""

    @abc.abstractmethod
    def on_receive(self, message: GossipMessage, now: float) -> list[Emission]:
        """Handle an arriving message; may return replies (pull variants)."""

    # Batched hot-path variants ---------------------------------------------
    def on_round_batch(self, now: float) -> list[EmissionBatch]:
        """Advance one round; returns ``(destinations, message)`` batches.

        Semantically identical to :meth:`on_round`. The default groups
        consecutive emissions that share one message object — exactly the
        structure every variant here produces (``f`` copies of a round's
        gossip, one push to everyone, one digest to ``f`` peers, ...) —
        so drivers can hand each group to a single network multicast.
        Hot protocols override this to skip :class:`Emission` churn
        entirely.
        """
        batches: list[tuple[list[NodeId], GossipMessage]] = []
        last: Optional[GossipMessage] = None
        for dest, message in self.on_round(now):
            if message is last:
                batches[-1][0].append(dest)
            else:
                batches.append(([dest], message))
                last = message
        return [(tuple(dests), message) for dests, message in batches]

    def on_receive_batch(
        self, messages: Sequence[GossipMessage], now: float
    ) -> list[Emission]:
        """Handle several queued messages arriving at one instant.

        Equivalent to calling :meth:`on_receive` per message in order;
        drivers that drain receive queues in bulk (the live runtime)
        use this to amortise per-call overhead.
        """
        replies: list[Emission] = []
        for message in messages:
            replies.extend(self.on_receive(message, now))
        return replies

    # Optional capabilities -------------------------------------------------
    def set_buffer_capacity(self, capacity: int, now: float) -> None:
        """Change local buffer resources at runtime (Figure 9 scenario)."""
        raise NotImplementedError

    @property
    def buffer_capacity(self) -> int:
        raise NotImplementedError


def summaries_tuple(summaries: Sequence[EventSummary]) -> tuple[EventSummary, ...]:
    """Normalise a summary sequence for embedding in a message."""
    return tuple(summaries)
