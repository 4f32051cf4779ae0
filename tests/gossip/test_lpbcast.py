"""Unit tests for the baseline lpbcast protocol (Figure 1)."""

import random


from repro.gossip.config import SystemConfig
from repro.gossip.events import EventId, EventSummary
from repro.gossip.lpbcast import LpbcastProtocol
from repro.gossip.protocol import GossipMessage
from repro.membership.full import Directory, FullMembershipView


def make_node(node_id=0, n=10, **cfg):
    directory = Directory(range(n))
    config = SystemConfig(**{"buffer_capacity": 8, "dedup_capacity": 64, **cfg})
    delivered = []
    dropped = []
    proto = LpbcastProtocol(
        node_id,
        config,
        FullMembershipView(directory, node_id),
        random.Random(1),
        deliver_fn=lambda ids, ps, t: delivered.extend((e, p, t) for e, p in zip(ids, ps)),
        drop_fn=lambda r, ids, ages, t: dropped.extend((e, a, r, t) for e, a in zip(ids, ages)),
    )
    return proto, delivered, dropped


def gossip_from(sender, events):
    return GossipMessage(
        sender=sender,
        events=tuple(EventSummary(e, a, None) for e, a in events),
    )


def test_broadcast_assigns_sequential_ids():
    proto, delivered, _ = make_node()
    a = proto.broadcast("x", now=0.0)
    b = proto.broadcast("y", now=0.1)
    assert a == EventId(0, 0)
    assert b == EventId(0, 1)
    assert len(proto.buffer) == 2


def test_broadcast_delivers_locally():
    proto, delivered, _ = make_node()
    eid = proto.broadcast("payload", now=0.0)
    assert delivered == [(eid, "payload", 0.0)]


def test_on_round_emits_fanout_messages():
    proto, _, _ = make_node()
    proto.broadcast("x", now=0.0)
    emissions = proto.on_round(now=1.0)
    assert len(emissions) == proto.config.fanout
    dests = {e.dest for e in emissions}
    assert 0 not in dests  # never gossips to itself
    assert len(dests) == proto.config.fanout  # without replacement
    # all emissions share the same message content
    assert all(e.message is emissions[0].message for e in emissions)


def test_on_round_ages_events():
    proto, _, _ = make_node()
    eid = proto.broadcast("x", now=0.0)
    proto.on_round(now=1.0)
    assert proto.buffer.age_of(eid) == 1
    msg = proto.on_round(now=2.0)[0].message
    assert msg.events[0].age == 2


def test_age_out_drops(caplog=None):
    proto, _, dropped = make_node(max_age=2)
    eid = proto.broadcast("x", now=0.0)
    for r in range(4):
        proto.on_round(now=float(r + 1))
    assert eid not in proto.buffer
    assert any(d[0] == eid and d[2] == "age_out" for d in dropped)


def test_receive_new_event_delivers_and_buffers():
    proto, delivered, _ = make_node()
    msg = gossip_from(3, [(EventId(3, 0), 2)])
    proto.on_receive(msg, now=0.5)
    assert delivered == [(EventId(3, 0), None, 0.5)]
    assert proto.buffer.age_of(EventId(3, 0)) == 2


def test_receive_duplicate_not_redelivered_but_age_synced():
    proto, delivered, _ = make_node()
    proto.on_receive(gossip_from(3, [(EventId(3, 0), 1)]), now=0.5)
    proto.on_receive(gossip_from(4, [(EventId(3, 0), 5)]), now=0.6)
    assert len(delivered) == 1
    assert proto.buffer.age_of(EventId(3, 0)) == 5
    assert proto.stats.duplicates_seen == 1


def test_receive_overflow_drops_oldest():
    proto, _, dropped = make_node()
    events = [(EventId(3, i), i) for i in range(12)]  # capacity is 8
    proto.on_receive(gossip_from(3, events), now=0.5)
    assert len(proto.buffer) == 8
    overflow = [d for d in dropped if d[2] == "overflow"]
    assert len(overflow) == 4
    # the four oldest (highest age) were dropped
    assert {d[0] for d in overflow} == {EventId(3, i) for i in (8, 9, 10, 11)}


def test_forwarding_includes_received_events():
    proto, _, _ = make_node()
    proto.on_receive(gossip_from(3, [(EventId(3, 0), 1)]), now=0.5)
    emissions = proto.on_round(now=1.0)
    ids = [e.id for e in emissions[0].message.events]
    assert EventId(3, 0) in ids


def test_dedup_prevents_rebuffering_after_drop():
    proto, delivered, _ = make_node()
    proto.on_receive(gossip_from(3, [(EventId(3, 0), 1)]), now=0.5)
    # push it out of the buffer with newer events
    events = [(EventId(4, i), 0) for i in range(8)]
    proto.on_receive(gossip_from(4, events), now=0.6)
    assert EventId(3, 0) not in proto.buffer
    proto.on_receive(gossip_from(5, [(EventId(3, 0), 2)]), now=0.7)
    assert EventId(3, 0) not in proto.buffer  # dedup remembered it
    assert len([d for d in delivered if d[0] == EventId(3, 0)]) == 1


def test_try_broadcast_always_admits_on_baseline():
    proto, _, _ = make_node()
    assert proto.try_broadcast("x", now=0.0) is not None
    assert proto.time_until_admission(0.0) == 0.0
    assert proto.allowed_rate is None


def test_set_buffer_capacity_runtime():
    proto, _, dropped = make_node()
    for i in range(8):
        proto.broadcast(f"m{i}", now=0.0)
    proto.set_buffer_capacity(4, now=1.0)
    assert proto.buffer.capacity == 4
    assert len(proto.buffer) == 4
    assert len([d for d in dropped if d[2] == "resize"]) == 4
    assert proto.buffer_capacity == 4


def test_stats_counters():
    proto, _, _ = make_node()
    proto.broadcast("x", now=0.0)
    proto.on_round(now=1.0)
    proto.on_receive(gossip_from(3, [(EventId(3, 0), 1)]), now=1.5)
    s = proto.stats
    assert s.broadcasts == 1
    assert s.rounds == 1
    assert s.messages_sent == proto.config.fanout
    assert s.messages_received == 1
    assert s.events_delivered == 2


def test_no_emission_when_alone():
    directory = Directory([0])
    proto = LpbcastProtocol(
        0,
        SystemConfig(buffer_capacity=8, dedup_capacity=64),
        FullMembershipView(directory, 0),
        random.Random(1),
    )
    proto.broadcast("x", now=0.0)
    assert proto.on_round(now=1.0) == []


def test_fanout_larger_than_group():
    proto, _, _ = make_node(n=3)  # 2 peers, fanout 4
    proto.broadcast("x", now=0.0)
    emissions = proto.on_round(now=1.0)
    assert len(emissions) == 2
