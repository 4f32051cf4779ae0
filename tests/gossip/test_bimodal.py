"""Unit tests for the bimodal-multicast-style substrate."""

import random

import pytest

from repro.gossip.bimodal import BimodalProtocol
from repro.gossip.config import SystemConfig
from repro.gossip.events import EventId, EventSummary
from repro.gossip.protocol import GossipMessage
from repro.membership.full import Directory, FullMembershipView


def make_node(node_id=0, n=8, **cfg):
    directory = Directory(range(n))
    config = SystemConfig(**{"buffer_capacity": 16, "dedup_capacity": 128, **cfg})
    delivered = []
    proto = BimodalProtocol(
        node_id,
        config,
        FullMembershipView(directory, node_id),
        random.Random(1),
        deliver_fn=lambda ids, ps, t: delivered.extend(zip(ids, ps)),
    )
    return proto, delivered


def test_broadcast_multicasts_to_everyone_next_round():
    proto, _ = make_node(n=8)
    proto.broadcast("x", now=0.0)
    emissions = proto.on_round(now=1.0)
    pushes = [e for e in emissions if e.message.kind == "multicast"]
    digests = [e for e in emissions if e.message.kind == "digest"]
    assert len(pushes) == 7  # every other member
    assert {e.dest for e in pushes} == set(range(1, 8))
    assert len(digests) == proto.config.fanout
    # the push carries the payload
    assert pushes[0].message.events[0].payload == "x"
    # a second round does not re-multicast
    again = [e for e in proto.on_round(now=2.0) if e.message.kind == "multicast"]
    assert again == []


def test_digest_carries_no_payloads():
    proto, _ = make_node()
    proto.broadcast("secret", now=0.0)
    emissions = proto.on_round(now=1.0)
    digest = next(e.message for e in emissions if e.message.kind == "digest")
    assert all(s.payload is None for s in digest.events)


def test_multicast_received_is_delivered():
    proto, delivered = make_node()
    msg = GossipMessage(
        sender=3,
        events=(EventSummary(EventId(3, 0), 0, "hello"),),
        kind="multicast",
    )
    assert proto.on_receive(msg, now=0.5) == []
    assert delivered == [(EventId(3, 0), "hello")]


def test_digest_triggers_request_for_missing():
    proto, _ = make_node()
    digest = GossipMessage(
        sender=3,
        events=(
            EventSummary(EventId(3, 0), 2, None),
            EventSummary(EventId(3, 1), 1, None),
        ),
        kind="digest",
    )
    replies = proto.on_receive(digest, now=0.5)
    assert len(replies) == 1
    request = replies[0]
    assert request.dest == 3
    assert request.message.kind == "request"
    assert {s.id for s in request.message.events} == {EventId(3, 0), EventId(3, 1)}
    assert proto.stats.requests_sent == 1
    assert proto.stats.events_requested == 2


def test_digest_of_known_events_syncs_ages_only():
    proto, _ = make_node()
    proto.on_receive(
        GossipMessage(sender=3, events=(EventSummary(EventId(3, 0), 1, "p"),),
                      kind="multicast"),
        now=0.4,
    )
    digest = GossipMessage(
        sender=4, events=(EventSummary(EventId(3, 0), 6, None),), kind="digest"
    )
    assert proto.on_receive(digest, now=0.5) == []
    assert proto.buffer.age_of(EventId(3, 0)) == 6


def test_request_served_from_buffer():
    proto, _ = make_node()
    proto.broadcast("data", now=0.0)
    request = GossipMessage(
        sender=5,
        events=(
            EventSummary(EventId(0, 0), 0, None),
            EventSummary(EventId(9, 9), 0, None),  # not held here
        ),
        kind="request",
    )
    replies = proto.on_receive(request, now=0.5)
    assert len(replies) == 1
    reply = replies[0].message
    assert reply.kind == "reply"
    assert [s.id for s in reply.events] == [EventId(0, 0)]
    assert reply.events[0].payload == "data"


def test_request_for_unknown_events_yields_nothing():
    proto, _ = make_node()
    request = GossipMessage(
        sender=5, events=(EventSummary(EventId(9, 9), 0, None),), kind="request"
    )
    assert proto.on_receive(request, now=0.5) == []


def test_reply_counts_repairs():
    proto, delivered = make_node()
    reply = GossipMessage(
        sender=5, events=(EventSummary(EventId(5, 0), 3, "fix"),), kind="reply"
    )
    proto.on_receive(reply, now=0.5)
    assert proto.stats.events_repaired == 1
    assert delivered == [(EventId(5, 0), "fix")]


def test_unknown_kind_rejected():
    proto, _ = make_node()
    with pytest.raises(ValueError):
        proto.on_receive(
            GossipMessage(sender=1, events=(), kind="carrier-pigeon"), now=0.0
        )


def test_overflow_and_age_out_match_substrate_rules():
    proto, _ = make_node(buffer_capacity=4, max_age=3)
    events = tuple(EventSummary(EventId(3, i), i % 3, None) for i in range(8))
    proto.on_receive(GossipMessage(sender=3, events=events, kind="multicast"), now=0.1)
    assert len(proto.buffer) == 4
    for r in range(5):
        proto.on_round(now=1.0 + r)
    assert len(proto.buffer) == 0  # everything aged out


def test_set_buffer_capacity():
    proto, _ = make_node()
    proto.set_buffer_capacity(2, now=1.0)
    assert proto.buffer_capacity == 2
