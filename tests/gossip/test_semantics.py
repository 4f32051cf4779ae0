"""Tests for semantic obsolescence purging ([11]-style)."""

import random

from repro.gossip.config import SystemConfig
from repro.gossip.events import EventId, EventSummary
from repro.gossip.protocol import GossipMessage
from repro.gossip.semantics import KeyedPayloadPolicy, SemanticLpbcastProtocol
from repro.membership.full import Directory, FullMembershipView


def make_node(node_id=0, n=8, policy=None, **cfg):
    directory = Directory(range(n))
    config = SystemConfig(**{"buffer_capacity": 8, "dedup_capacity": 64, **cfg})
    drops = []
    proto = SemanticLpbcastProtocol(
        node_id,
        config,
        FullMembershipView(directory, node_id),
        random.Random(1),
        drop_fn=lambda r, ids, ages, t: drops.extend((e, r) for e in ids),
        policy=policy,
    )
    return proto, drops


def gossip(sender, entries):
    return GossipMessage(
        sender=sender,
        events=tuple(EventSummary(e, a, p) for e, a, p in entries),
    )


def test_default_policy_keys_pairs():
    assert KeyedPayloadPolicy(("stock:ACME", 101)) == "stock:ACME"
    assert KeyedPayloadPolicy("unkeyed") is None
    assert KeyedPayloadPolicy((1, 2, 3)) is None


def test_newer_update_purges_older():
    proto, drops = make_node()
    first = proto.broadcast(("k", 1), now=0.0)
    second = proto.broadcast(("k", 2), now=0.1)
    assert first not in proto.buffer
    assert second in proto.buffer
    assert (first, "obsolete") in drops
    assert proto.obsoleted == 1
    assert proto.stats.drops_obsolete == 1


def test_different_keys_coexist():
    proto, drops = make_node()
    a = proto.broadcast(("k1", 1), now=0.0)
    b = proto.broadcast(("k2", 1), now=0.1)
    assert a in proto.buffer and b in proto.buffer
    assert proto.obsoleted == 0


def test_unkeyed_payloads_never_obsoleted():
    proto, drops = make_node()
    a = proto.broadcast("plain", now=0.0)
    b = proto.broadcast("plain", now=0.1)
    assert a in proto.buffer and b in proto.buffer


def test_received_update_purges_local():
    proto, drops = make_node()
    mine = proto.broadcast(("k", 1), now=0.0)
    proto.on_receive(gossip(3, [(EventId(3, 0), 1, ("k", 2))]), now=0.5)
    assert mine not in proto.buffer
    assert EventId(3, 0) in proto.buffer


def test_duplicate_does_not_self_obsolete():
    proto, drops = make_node()
    proto.on_receive(gossip(3, [(EventId(3, 0), 1, ("k", 1))]), now=0.5)
    proto.on_receive(gossip(4, [(EventId(3, 0), 3, ("k", 1))]), now=0.6)
    assert EventId(3, 0) in proto.buffer
    assert proto.obsoleted == 0


def test_custom_policy():
    proto, drops = make_node(policy=lambda p: p["key"] if isinstance(p, dict) else None)
    a = proto.broadcast({"key": "x", "v": 1}, now=0.0)
    proto.broadcast({"key": "x", "v": 2}, now=0.1)
    assert a not in proto.buffer


def test_holder_map_bounded():
    proto, drops = make_node(buffer_capacity=4, dedup_capacity=4000)
    for i in range(200):
        proto.on_receive(
            gossip(3, [(EventId(3, i), 0, (f"key-{i}", i))]), now=0.01 * i
        )
    assert len(proto._holder_of) <= 4 * proto.config.buffer_capacity + 1


def test_semantic_frees_room_for_fresh_events():
    """With per-key updates, the buffer holds one live event per key
    instead of drowning in stale versions."""
    proto, drops = make_node(buffer_capacity=4)
    for i in range(12):
        proto.on_receive(
            gossip(3, [(EventId(3, i), 0, (f"k{i % 2}", i))]), now=0.01 * i
        )
    live_keys = {proto.buffer.payload_of(e)[0] for e in proto.buffer.ids()}
    assert live_keys == {"k0", "k1"}
    assert len(proto.buffer) == 2  # newest update per key only


def test_adaptive_semantic_composition():
    from repro.core.config import AdaptiveConfig
    from repro.core.semantics import AdaptiveSemanticLpbcastProtocol

    directory = Directory(range(6))
    proto = AdaptiveSemanticLpbcastProtocol(
        0,
        SystemConfig(buffer_capacity=8, dedup_capacity=64),
        FullMembershipView(directory, 0),
        random.Random(1),
        adaptive=AdaptiveConfig(age_critical=4.5),
    )
    first = proto.try_broadcast(("k", 1), now=0.0)
    second = proto.try_broadcast(("k", 2), now=0.01)
    assert first is not None and second is not None
    assert first not in proto.buffer  # semantic layer active
    assert proto.min_buff_estimate == 8  # adaptive layer active
    emissions = proto.on_round(now=1.0)
    assert emissions[0].message.adaptive is not None

def test_batch_receive_routes_through_semantic_override():
    """on_receive_batch must not bypass the subclass's on_receive wrapper
    (the simulated network's per-instant coalescing delivers through it)."""
    from repro.gossip.events import EventColumns

    proto, _drops = make_node()
    older = EventColumns.from_summaries(
        (EventSummary(EventId("s", 0), 0, ("key", 1)),)
    )
    newer = EventColumns.from_summaries(
        (EventSummary(EventId("s", 1), 0, ("key", 2)),)
    )
    proto.on_receive_batch(
        [
            GossipMessage(sender="s", events=older),
            GossipMessage(sender="s", events=newer),
        ],
        now=1.0,
    )
    assert proto.obsoleted == 1
    assert EventId("s", 0) not in proto.buffer
    assert EventId("s", 1) in proto.buffer
