"""Property-based tests of protocol-level invariants.

A hypothesis-driven adversary feeds one lpbcast node arbitrary
interleavings of rounds, local broadcasts and incoming gossip messages
(valid but adversarial: duplicate ids, wild ages, oversized batches) and
checks the Figure 1 safety invariants after every step:

* the buffer never exceeds its capacity after an operation completes;
* an event id is never delivered twice while its id is remembered;
* every buffered event's id is remembered in ``eventIds``;
* emissions never target the node itself and never exceed the fanout;
* ages on the wire are never negative.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.config import SystemConfig
from repro.gossip.events import EventId, EventSummary
from repro.gossip.lpbcast import LpbcastProtocol
from repro.gossip.protocol import GossipMessage
from repro.membership.full import Directory, FullMembershipView

N = 10
CAPACITY = 6

event_ids = st.tuples(st.integers(1, 5), st.integers(0, 15)).map(
    lambda t: EventId(*t)
)
summaries = st.builds(
    EventSummary,
    id=event_ids,
    age=st.integers(0, 20),
    payload=st.none(),
)
operations = st.lists(
    st.one_of(
        st.just(("round",)),
        st.just(("broadcast",)),
        st.tuples(st.just("receive"), st.lists(summaries, max_size=12)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_protocol_invariants_under_adversarial_input(ops):
    directory = Directory(range(N))
    config = SystemConfig(
        buffer_capacity=CAPACITY, dedup_capacity=64, max_age=8, fanout=4
    )
    delivered: list[EventId] = []
    proto = LpbcastProtocol(
        0,
        config,
        FullMembershipView(directory, 0),
        random.Random(7),
        deliver_fn=lambda ids, ps, t: delivered.extend(ids),
    )
    now = 0.0
    for op in ops:
        now += 0.1
        if op[0] == "round":
            emissions = proto.on_round(now)
            assert len(emissions) <= config.fanout
            for dest, message in emissions:
                assert dest != 0
                assert all(s.age >= 0 for s in message.events)
        elif op[0] == "broadcast":
            proto.broadcast(None, now)
        else:
            proto.on_receive(
                GossipMessage(sender=3, events=tuple(op[1])), now
            )
        # safety invariants after every operation
        assert len(proto.buffer) <= CAPACITY
        for eid in proto.buffer.ids():
            assert eid in proto.dedup
    # no event delivered twice while its id was remembered: with a dedup
    # store larger than everything we injected, that means never.
    assert len(delivered) == len(set(delivered))
