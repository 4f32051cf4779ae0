"""Gossip broadcast substrate.

This package implements the baseline *lpbcast*-style gossip broadcast that
the paper builds on (its Figure 1), plus the data structures it needs:

* :mod:`repro.gossip.events` — event identities and wire summaries.
* :mod:`repro.gossip.buffer` — the bounded, age-ordered event buffer.
* :mod:`repro.gossip.dedup` — the bounded duplicate-detection store
  (the paper's ``eventIds``).
* :mod:`repro.gossip.protocol` — wire message types and the sans-IO
  protocol interface shared by all variants.
* :mod:`repro.gossip.peer_sampling` — gossip target selection over full or
  partial membership views.
* :mod:`repro.gossip.lpbcast` — the baseline protocol (paper Figure 1).
* :mod:`repro.gossip.bimodal` — a bimodal-multicast-style variant used to
  demonstrate that the adaptation mechanism is substrate-agnostic (§5).
* :mod:`repro.gossip.recovery` — [10]-style rendezvous-hashed long-term
  bufferers with gap-triggered pull repair (§5's recovery contrast).
* :mod:`repro.gossip.semantics` — [11]-style purging of semantically
  obsolete events (§5's complementary optimisation).
* :mod:`repro.gossip.config` — static protocol parameters.
"""

from repro.gossip.bimodal import BimodalProtocol, BimodalStats
from repro.gossip.recovery import BuffererBimodalProtocol, rendezvous_bufferers
from repro.gossip.semantics import KeyedPayloadPolicy, SemanticLpbcastProtocol
from repro.gossip.buffer import EventBuffer
from repro.gossip.config import SystemConfig
from repro.gossip.dedup import DedupStore
from repro.gossip.events import EventId, EventSummary, make_event_id
from repro.gossip.lpbcast import LpbcastProtocol
from repro.gossip.protocol import (
    AdaptiveHeader,
    Emission,
    GossipMessage,
    GossipProtocol,
    MembershipHeader,
)

__all__ = [
    "EventId",
    "EventSummary",
    "make_event_id",
    "EventBuffer",
    "DedupStore",
    "SystemConfig",
    "GossipMessage",
    "AdaptiveHeader",
    "MembershipHeader",
    "Emission",
    "GossipProtocol",
    "LpbcastProtocol",
    "BimodalProtocol",
    "BimodalStats",
    "BuffererBimodalProtocol",
    "rendezvous_bufferers",
    "SemanticLpbcastProtocol",
    "KeyedPayloadPolicy",
]
