"""A bimodal-multicast-style gossip substrate (pbcast, Birman et al.).

The paper's §5 argues its adaptation mechanism applies to *any*
gossip-based broadcast, naming Bimodal Multicast [1] first. This module
makes that concrete with a second, structurally different substrate:

* **optimistic phase** — a new broadcast is pushed once to every known
  member (the stand-in for pbcast's unreliable IP multicast);
* **anti-entropy phase** — every round, each node sends a *digest* of
  its buffer (ids + ages, no payloads) to ``f`` random members;
  receivers *request* what they miss and holders *reply* with the
  payloads (pull-based repair, pbcast's gossip phase).

Buffering, ageing, age-out and age-ordered overflow are identical to the
lpbcast substrate (the paper's buffering model is substrate-independent),
so the same congestion signal exists and the same
:class:`~repro.core.machinery.AdaptiveMachinery` drops in unchanged —
see :class:`repro.core.bimodal.AdaptiveBimodalProtocol` for the (tiny)
integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.gossip.buffer import Dropped, EventBuffer
from repro.gossip.config import SystemConfig
from repro.gossip.dedup import DedupStore
from repro.gossip.events import EventColumns, EventId, EventSummary
from repro.gossip.lpbcast import ProtocolStats
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

__all__ = ["BimodalStats", "BimodalProtocol"]


@dataclass(slots=True)
class BimodalStats(ProtocolStats):
    """Baseline counters plus the anti-entropy specifics."""

    digests_sent: int = 0
    requests_sent: int = 0
    events_requested: int = 0
    events_repaired: int = 0


class BimodalProtocol(GossipProtocol):
    """Multicast + digest/pull anti-entropy, sans-IO.

    Constructor signature matches :class:`LpbcastProtocol` so the same
    drivers and factories work.
    """

    may_reply = True  # digests pull requests, requests pull replies

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
        self._known_ids = self.dedup.backing  # stable dict, bound once
        self._known_keys = self._known_ids.keys()  # live view, set-typed
        self._membership_receive = (
            None if getattr(membership, "gossip_passive", False)
            else membership.on_gossip_receive
        )
        self.stats = BimodalStats()
        self._deliver_fn = deliver_fn
        self._drop_fn = drop_fn
        self._sampler = sampler if sampler is not None else UniformSampler()
        self._next_seq = 0
        self._fresh: list[EventId] = []  # awaiting the optimistic push

    # ------------------------------------------------------------------
    # application side
    # ------------------------------------------------------------------
    def broadcast(self, payload: Any, now: float) -> EventId:
        event_id = EventId(self.node_id, self._next_seq)
        self._next_seq += 1
        self.dedup.add(event_id)
        self.stats.broadcasts += 1
        self._deliver((event_id,), (payload,), now)
        self._dropped("overflow", self.buffer.add(event_id, age=0, payload=payload), now)
        self._fresh.append(event_id)
        return event_id

    def try_broadcast(self, payload: Any, now: float) -> Optional[EventId]:
        return self.broadcast(payload, now)

    def time_until_admission(self, now: float) -> float:
        return 0.0

    @property
    def allowed_rate(self) -> Optional[float]:
        return None

    # ------------------------------------------------------------------
    # rounds: optimistic push + digest gossip
    # ------------------------------------------------------------------
    def on_round(self, now: float) -> list[Emission]:
        self.stats.rounds += 1
        self.buffer.advance_round()
        self._dropped("age_out", self.buffer.drop_aged_out(self.config.max_age), now)
        self._before_emission(now)

        header = self._emission_headers(now)
        membership_header = self.membership.on_gossip_emit(self.rng)
        emissions: list[Emission] = []

        fresh = [eid for eid in self._fresh if eid in self.buffer]
        self._fresh.clear()
        if fresh:
            events = tuple(
                EventSummary(eid, self.buffer.age_of(eid), self.buffer.payload_of(eid))
                for eid in fresh
            )
            push = GossipMessage(
                sender=self.node_id,
                events=events,
                adaptive=header,
                kind="multicast",
            )
            everyone = self.membership.sample_targets(2**31, self.rng)
            emissions.extend(Emission(peer, push) for peer in everyone)

        targets = self._sampler.select(self.membership, self.config.fanout, self.rng)
        if targets:
            # ids + anchors from the cached columnar snapshot, payloads
            # stripped — the digest never re-copies the buffer contents.
            digest = GossipMessage(
                sender=self.node_id,
                events=self.buffer.snapshot_columns().without_payloads(),
                adaptive=header,
                membership=membership_header,
                kind="digest",
            )
            self.stats.digests_sent += len(targets)
            emissions.extend(Emission(t, digest) for t in targets)
        self.stats.messages_sent += len(emissions)
        return emissions

    # ------------------------------------------------------------------
    # receive: fold data, answer digests, serve requests
    # ------------------------------------------------------------------
    def on_receive(self, message: GossipMessage, now: float) -> list[Emission]:
        self.stats.messages_received += 1
        membership_receive = self._membership_receive
        if membership_receive is not None:
            membership_receive(message.membership, message.sender, self.rng)
        if message.adaptive is not None:
            self._on_adaptive_header(message.adaptive, now)

        if message.kind in ("multicast", "reply", "gossip"):
            self._fold_events(message, now)
            return []
        if message.kind == "digest":
            return self._answer_digest(message, now)
        if message.kind == "request":
            return self._serve_request(message)
        raise ValueError(f"unknown message kind {message.kind!r}")

    def _fold_events(self, message: GossipMessage, now: float) -> None:
        buffer = self.buffer
        events = message.events
        if type(events) is EventColumns and self._known_keys >= events.id_set:
            # Steady state: all duplicates — one batched age fold.
            self.stats.duplicates_seen += len(events.ids)
            buffer.sync_ages(events.ids, events.ages)
        else:
            repaired = message.kind == "reply"
            new_ids: list[EventId] = []
            new_payloads: list[Any] = []
            for event_id, age, payload in events:
                if not self.dedup.add(event_id):
                    self.stats.duplicates_seen += 1
                    buffer.sync_age(event_id, age)
                    continue
                if repaired:
                    self.stats.events_repaired += 1
                new_ids.append(event_id)
                new_payloads.append(payload)
                buffer.stage(event_id, age=age, payload=payload)
            if new_ids:
                self._deliver(new_ids, new_payloads, now)
        self._after_receive(message, now)
        self._dropped("overflow", buffer.evict_overflow(), now)

    def _answer_digest(self, message: GossipMessage, now: float) -> list[Emission]:
        events = message.events
        if type(events) is EventColumns and self._known_keys >= events.id_set:
            # Nothing missing: fold the whole digest's ages in one pass.
            self.buffer.sync_ages(events.ids, events.ages)
            return []
        missing = []
        known = self._known_ids
        sync_age = self.buffer.sync_age
        for event_id, age, _none in events:
            if event_id in known:
                sync_age(event_id, age)
            else:
                missing.append(EventSummary(event_id, 0, None))
        if not missing:
            return []
        self.stats.requests_sent += 1
        self.stats.events_requested += len(missing)
        request = GossipMessage(
            sender=self.node_id, events=tuple(missing), kind="request"
        )
        return [Emission(message.sender, request)]

    def _serve_request(self, message: GossipMessage) -> list[Emission]:
        available = tuple(
            EventSummary(eid, self.buffer.age_of(eid), self.buffer.payload_of(eid))
            for eid, _age, _p in message.events
            if eid in self.buffer
        )
        if not available:
            return []
        reply = GossipMessage(sender=self.node_id, events=available, kind="reply")
        return [Emission(message.sender, reply)]

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------
    def set_buffer_capacity(self, capacity: int, now: float) -> None:
        self._dropped("resize", self.buffer.resize(capacity), now)

    @property
    def buffer_capacity(self) -> int:
        return self.buffer.capacity

    # ------------------------------------------------------------------
    # adaptation hooks (same contract as the lpbcast substrate)
    # ------------------------------------------------------------------
    def _before_emission(self, now: float) -> None:
        pass

    def _emission_headers(self, now: float) -> Optional[AdaptiveHeader]:
        return None

    def _on_adaptive_header(self, header: AdaptiveHeader, now: float) -> None:
        pass

    def _after_receive(self, message: GossipMessage, now: float) -> None:
        pass

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
