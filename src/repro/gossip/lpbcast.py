"""Baseline gossip broadcast — the paper's Figure 1 (lpbcast-style).

Behaviour, in the paper's own structure:

``every T ms`` (:meth:`LpbcastProtocol.on_round`):
  1. *Update ages* — every buffered event ages by one; events older than
     ``k`` are purged.
  2. *Gossip* — all buffered events are sent to ``f`` random members.

``upon RECEIVE(gossip)`` (:meth:`LpbcastProtocol.on_receive`):
  1. *Update events and ages* — unseen events are buffered and delivered;
     duplicate ages are raised to the maximum seen.
  2. *Garbage collect* — ``eventIds`` is FIFO-bounded; ``events`` drops
     its oldest entries when over capacity.

The steady-state receive path is batch-oriented: columnar messages are
split into new-vs-duplicate columns against the dedup store's backing
dict, new ids are bulk-inserted (one capacity trim per message) and
staged in one :meth:`~repro.gossip.buffer.EventBuffer.stage_many` call,
duplicate age-raises fold through one
:meth:`~repro.gossip.buffer.EventBuffer.sync_ages` call, and the
bookkeeping is per message too: one ``deliver_fn`` call carries the
message's new events and one ``drop_fn`` call its overflow trim. In the
regime the paper's steady state lives in — every summary a duplicate —
the whole message reduces to one subset check and one direct-dict loop.
The seed's per-event loop is kept as :meth:`on_receive_reference`,
reporting through the same callbacks one event at a time; the
dispatch-determinism tests assert the two paths produce byte-identical
runs. (The one observable difference
is deliberately pathological: with the batch path, ids are atomic
within a message, so an undersized dedup store can no longer evict an
id mid-message and re-deliver a later duplicate of it from the *same*
message.)

``upon BROADCAST(event)`` (:meth:`LpbcastProtocol.broadcast`):
  buffer the new event locally with age 0 (admission control — the token
  bucket of Figure 3 — lives in :mod:`repro.core.tokens` and is applied by
  the sender, not by the protocol).

The class exposes protected hooks (``_emission_headers``,
``_on_adaptive_header``, ``_after_receive``) that the adaptive variant
(:class:`repro.core.adaptive.AdaptiveLpbcastProtocol`) overrides; the
baseline keeps them as no-ops so the two variants differ *only* by the
paper's Figure 5 additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.gossip.buffer import Dropped, EventBuffer
from repro.gossip.config import SystemConfig
from repro.gossip.dedup import DedupStore
from repro.gossip.events import EventColumns, EventId
from repro.gossip.peer_sampling import TargetSampler, UniformSampler
from repro.gossip.protocol import (
    AdaptiveHeader,
    DeliverFn,
    DropFn,
    Emission,
    GossipMessage,
    GossipProtocol,
    NodeId,
)

__all__ = ["LpbcastProtocol", "ProtocolStats"]


@dataclass(slots=True)
class ProtocolStats:
    """Per-node protocol counters (used by tests and metrics)."""

    rounds: int = 0
    broadcasts: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    events_delivered: int = 0
    duplicates_seen: int = 0
    drops_overflow: int = 0
    drops_age_out: int = 0
    drops_resize: int = 0
    drops_obsolete: int = 0

    def note_drops(self, reason: str, count: int) -> None:
        """Count ``count`` drops of one reason."""
        if reason == "overflow":
            self.drops_overflow += count
        elif reason == "age_out":
            self.drops_age_out += count
        elif reason == "obsolete":
            self.drops_obsolete += count
        else:
            self.drops_resize += count


class LpbcastProtocol(GossipProtocol):
    """The baseline protocol of Figure 1 as a sans-IO state machine.

    Parameters
    ----------
    node_id:
        This node's identity (must be usable as a dict key).
    config:
        Static algorithm parameters (:class:`SystemConfig`).
    membership:
        Any view with ``sample_targets(count, rng)``; full and partial
        views from :mod:`repro.membership` both qualify.
    rng:
        Source of randomness for target selection (a named stream from
        the driver, for reproducibility).
    deliver_fn / drop_fn:
        Optional per-batch callbacks for application delivery and buffer
        drops (the :data:`~repro.gossip.protocol.DeliverFn` /
        :data:`~repro.gossip.protocol.DropFn` contract); the metrics
        collector hooks in here.
    sampler:
        Target-selection strategy; defaults to the paper's uniform pick.
    """

    def __init__(
        self,
        node_id: NodeId,
        config: SystemConfig,
        membership,
        rng,
        deliver_fn: Optional[DeliverFn] = None,
        drop_fn: Optional[DropFn] = None,
        sampler: Optional[TargetSampler] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.membership = membership
        self.rng = rng
        self.buffer = EventBuffer(config.buffer_capacity)
        self.dedup = DedupStore(config.dedup_capacity)
        # The dedup backing dict, bound once — the receive path consults
        # it per message and the dict object is stable for the store's
        # lifetime (resize/trim mutate it in place).
        self._known_ids = self.dedup.backing
        self._known_keys = self._known_ids.keys()  # live view, set-typed
        # Per-message hook elision, resolved once: passive membership
        # views (full membership) skip the on_gossip_receive call, and
        # variants that don't override _after_receive skip that call.
        self._membership_receive = (
            None if getattr(membership, "gossip_passive", False)
            else membership.on_gossip_receive
        )
        self._has_after_hook = (
            type(self)._after_receive is not LpbcastProtocol._after_receive
        )
        self._has_before_hook = (
            type(self)._before_emission is not LpbcastProtocol._before_emission
        )
        self._has_header_hook = (
            type(self)._emission_headers is not LpbcastProtocol._emission_headers
        )
        # Subclasses that wrap on_receive (e.g. keyed obsolescence) must
        # see every message: the hoisted batch loop only applies when
        # on_receive is the stock implementation.
        self._receive_overridden = (
            type(self).on_receive is not LpbcastProtocol.on_receive
        )
        self._membership_emit = (
            None if getattr(membership, "gossip_passive", False)
            else membership.on_gossip_emit
        )
        self.stats = ProtocolStats()
        self._deliver_fn = deliver_fn
        self._drop_fn = drop_fn
        self._sampler = sampler if sampler is not None else UniformSampler()
        self._next_seq = 0

    # ------------------------------------------------------------------
    # application side
    # ------------------------------------------------------------------
    def broadcast(self, payload: Any, now: float) -> EventId:
        """Admit one application event into the local buffer (age 0)."""
        event_id = EventId(self.node_id, self._next_seq)
        self._next_seq += 1
        self.dedup.add(event_id)
        self.stats.broadcasts += 1
        self._deliver((event_id,), (payload,), now)  # the sender is a receiver too
        self._dropped("overflow", self.buffer.add(event_id, age=0, payload=payload), now)
        return event_id

    def try_broadcast(self, payload: Any, now: float) -> Optional[EventId]:
        """Admission-controlled broadcast.

        The baseline has no admission control (its input rate is whatever
        the application offers — the behaviour Figure 7(a) shows), so this
        always succeeds. Rate-limited variants override it.
        """
        return self.broadcast(payload, now)

    def time_until_admission(self, now: float) -> float:
        """Seconds until :meth:`try_broadcast` could succeed (0 here)."""
        return 0.0

    @property
    def allowed_rate(self) -> Optional[float]:
        """Currently allowed sending rate; None means unbounded."""
        return None

    # Push-only: on_receive never returns replies, so drivers may skip
    # reply handling entirely (pull variants set this True).
    may_reply = False

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def _round_batch(self, now: float):
        """One round's work: returns ``(targets, message)``; message may be None."""
        stats = self.stats
        stats.rounds += 1
        buffer = self.buffer
        buffer.advance_round()
        dropped = buffer.drop_aged_out(self.config.max_age)
        if dropped[0]:
            self._dropped("age_out", dropped, now)
        if self._has_before_hook:
            self._before_emission(now)

        targets = self._sampler.select(self.membership, self.config.fanout, self.rng)
        if not targets:
            return (), None
        # Columnar snapshot, shared across the f copies — a cache hit
        # whenever no event arrived since the last round (see EventBuffer).
        membership_emit = self._membership_emit
        message = GossipMessage(
            sender=self.node_id,
            events=buffer.snapshot_columns(),
            adaptive=self._emission_headers(now) if self._has_header_hook else None,
            membership=membership_emit(self.rng) if membership_emit is not None else None,
        )
        stats.messages_sent += len(targets)
        return targets, message

    def on_round(self, now: float) -> list[Emission]:
        targets, message = self._round_batch(now)
        if message is None:
            return []
        return [Emission(t, message) for t in targets]

    def on_round_batch(self, now: float):
        targets, message = self._round_batch(now)
        if message is None:
            return []
        return [(targets, message)]

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def on_receive(self, message: GossipMessage, now: float) -> list[Emission]:
        self._receive_many((message,), now)
        return []

    def on_receive_batch(self, messages, now: float) -> list[Emission]:
        """Fold several messages arriving at one instant.

        Message-for-message identical to calling :meth:`on_receive` in
        order. Drivers that coalesce deliveries per instant (the
        simulated network, the live runtime's inbox flush) land
        here. Subclasses that override :meth:`on_receive` are routed
        through their override, message by message.
        """
        if self._receive_overridden:
            replies: list[Emission] = []
            for message in messages:
                replies.extend(self.on_receive(message, now))
            return replies
        self._receive_many(messages, now)
        return []

    def _receive_many(self, messages, now: float) -> None:
        """The receive loop shared by the single and batched entry points.

        Hoists the per-message binds (stats, dedup keys, buffer) across
        the batch, and must never dispatch back through
        :meth:`on_receive` — subclass wrappers route in from above.

        Figure 1 ordering per message: fold every event in first,
        garbage collect after. The _after_receive hook runs in between,
        against the un-trimmed buffer — that is where Figure 5(b)
        measures what a minBuff-sized buffer would have dropped.
        """
        stats = self.stats
        stats.messages_received += len(messages)
        membership_receive = self._membership_receive
        known_keys = self._known_keys
        buffer = self.buffer
        sync_ages = buffer.sync_ages
        rng = self.rng
        has_after = self._has_after_hook
        for message in messages:
            if membership_receive is not None:
                membership_receive(message.membership, message.sender, rng)
            if message.adaptive is not None:
                self._on_adaptive_header(message.adaptive, now)
            events = message.events
            if type(events) is EventColumns:
                ids = events.ids
                if ids:
                    id_set = events._id_set  # inline the lazy-property slots
                    if id_set is None:
                        id_set = events.id_set
                    if known_keys >= id_set:
                        # Steady state: every summary is a duplicate. No
                        # deliveries, no dedup mutation, nothing staged
                        # (so no overflow possible) — one batched fold.
                        stats.duplicates_seen += len(ids)
                        ages = events._ages
                        if ages is None:
                            ages = events.ages
                        sync_ages(ids, ages)
                        if has_after:
                            self._after_receive(message, now)
                        continue
                    if len(id_set) == len(ids):
                        self._fold_columns(events, now)
                    else:
                        # an id repeated within one message (only a
                        # malformed wire message can): first copy wins
                        self._fold_rows(events, now)
            elif events:
                self._fold_rows(events, now)
            if has_after:
                self._after_receive(message, now)
            if len(buffer) > buffer.capacity:
                self._dropped("overflow", buffer.evict_overflow(), now)

    def _fold_columns(self, events: EventColumns, now: float) -> None:
        """Fold a columnar message with at least one new event, in columns."""
        ids = events.ids
        ages = events.ages
        payloads = events.payloads
        known = self._known_ids
        fresh = [k for k, event_id in enumerate(ids) if event_id not in known]
        if len(fresh) == len(ids):
            new_ids, new_ages, new_payloads = ids, ages, payloads
        else:
            new_ids = [ids[k] for k in fresh]
            new_ages = [ages[k] for k in fresh]
            new_payloads = [payloads[k] for k in fresh]
        known.update(dict.fromkeys(new_ids))
        self.dedup.trim()
        self._deliver(new_ids, new_payloads, now)
        buffer = self.buffer
        buffer.stage_many(new_ids, new_ages, new_payloads)
        if new_ids is not ids:
            self.stats.duplicates_seen += len(ids) - len(new_ids)
            # the new events sit at exactly their message ages, so only
            # the duplicates can raise: fold the whole message at once
            buffer.sync_ages(ids, ages)

    def _fold_rows(self, events, now: float) -> None:
        """Fold row-form events (hand-built lists: requests, replies).

        One event at a time, delivering each through its own
        ``deliver_fn`` call — the seed's loop, and the per-event
        reference the batched column fold is tested against.
        """
        buffer = self.buffer
        dedup_add = self.dedup.add
        sync_age = buffer.sync_age
        stage = buffer.stage
        duplicates = 0
        for event_id, age, payload in events:
            if dedup_add(event_id):
                self._deliver((event_id,), (payload,), now)
                stage(event_id, age=age, payload=payload)
            else:
                duplicates += 1
                sync_age(event_id, age)
        if duplicates:
            self.stats.duplicates_seen += duplicates

    def on_receive_reference(self, message: GossipMessage, now: float) -> list[Emission]:
        """The seed's per-event receive loop, kept as the reference path.

        Semantically identical to :meth:`on_receive` (the determinism
        tests bind nodes to this method and assert byte-identical runs);
        only the folding strategy differs, and it reports every delivery
        and every drop through its own callback call.
        """
        stats = self.stats
        stats.messages_received += 1
        self.membership.on_gossip_receive(message.membership, message.sender, self.rng)
        if message.adaptive is not None:
            self._on_adaptive_header(message.adaptive, now)
        self._fold_rows(message.events, now)
        buffer = self.buffer
        self._after_receive(message, now)
        if len(buffer) > buffer.capacity:
            for event_id, age in zip(*buffer.evict_overflow()):
                self._dropped("overflow", ([event_id], [age]), now)
        return []

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------
    def set_buffer_capacity(self, capacity: int, now: float) -> None:
        """Change ``|events|max`` at runtime (Figure 9's resource change)."""
        self._dropped("resize", self.buffer.resize(capacity), now)

    @property
    def buffer_capacity(self) -> int:
        return self.buffer.capacity

    # ------------------------------------------------------------------
    # hooks for the adaptive variant
    # ------------------------------------------------------------------
    def _emission_headers(self, now: float) -> Optional[AdaptiveHeader]:
        """Adaptation header for outgoing gossip; baseline sends none."""
        return None

    def _on_adaptive_header(self, header: AdaptiveHeader, now: float) -> None:
        """Fold a received adaptation header; baseline ignores it."""

    def _before_emission(self, now: float) -> None:
        """Called each round after ageing, before building the message."""

    def _after_receive(self, message: GossipMessage, now: float) -> None:
        """Called after a message's events have been folded in."""

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _deliver(self, event_ids: Sequence[EventId], payloads: Sequence[Any], now: float) -> None:
        self.stats.events_delivered += len(event_ids)
        if self._deliver_fn is not None:
            self._deliver_fn(event_ids, payloads, now)

    def _dropped(self, reason: str, dropped: Dropped, now: float) -> None:
        ids, ages = dropped
        if not ids:
            return
        self.stats.note_drops(reason, len(ids))
        if self._drop_fn is not None:
            self._drop_fn(reason, ids, ages, now)
