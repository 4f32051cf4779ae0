"""Tests for the wire codec, including a round-trip property test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.buffer import EventBuffer
from repro.gossip.events import EventColumns, EventId, EventSummary
from repro.gossip.protocol import AdaptiveHeader, GossipMessage, MembershipHeader
from repro.runtime.codec import BinaryCodec, CodecError

CODECS = [BinaryCodec()]


def simple_message():
    return GossipMessage(
        sender=3,
        events=(
            EventSummary(EventId(1, 0), 2, None),
            EventSummary(EventId("node-x", 7), 5, "payload"),
        ),
        adaptive=AdaptiveHeader(4, 45),
        membership=MembershipHeader(subs=(1, 2), unsubs=("dead",)),
    )


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_roundtrip_full_message(codec):
    msg = simple_message()
    assert codec.decode(codec.encode(msg)) == msg


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_roundtrip_minimal_message(codec):
    msg = GossipMessage(sender="a", events=())
    assert codec.decode(codec.encode(msg)) == msg


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_roundtrip_k_smallest_aggregate_state(codec):
    msg = GossipMessage(
        sender=0,
        events=(),
        adaptive=AdaptiveHeader(2, ((30, 5), (60, "h2"))),
    )
    assert codec.decode(codec.encode(msg)) == msg


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_roundtrip_tuple_addresses(codec):
    """Pub/sub addresses are (topic, host) tuples."""
    msg = GossipMessage(
        sender=("news", 4),
        events=(EventSummary(EventId(("news", 4), 0), 1, None),),
    )
    assert codec.decode(codec.encode(msg)) == msg


# ----------------------------------------------------------------------
# columnar (EventColumns) messages — the hot-path wire shape
# ----------------------------------------------------------------------
def columnar_message(**overrides):
    columns = EventColumns(
        ids=(EventId(1, 0), EventId("node-x", 7), EventId(("t", 2), 9)),
        base_round=41,
        anchors=(39, 36, 41),
        payloads=(None, "payload", b"\x01\x02"),
    )
    fields = dict(
        sender=3,
        events=columns,
        adaptive=AdaptiveHeader(4, 45),
        membership=MembershipHeader(subs=(1, 2), unsubs=("dead",)),
    )
    fields.update(overrides)
    return GossipMessage(**fields)


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_columnar_roundtrip_preserves_semantics(codec):
    msg = columnar_message()
    decoded = codec.decode(codec.encode(msg))
    assert isinstance(decoded.events, EventColumns)
    assert decoded == msg  # semantic equality: ids, ages, payloads, headers
    assert decoded.events.ages == msg.events.ages


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_columnar_roundtrip_empty_events(codec):
    msg = columnar_message(
        events=EventColumns((), 12, (), ()), adaptive=None, membership=None
    )
    decoded = codec.decode(codec.encode(msg))
    assert isinstance(decoded.events, EventColumns)
    assert len(decoded.events) == 0
    assert decoded == msg


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_columnar_roundtrip_digest_without_payloads(codec):
    msg = columnar_message(events=columnar_message().events.without_payloads(),
                           kind="digest")
    decoded = codec.decode(codec.encode(msg))
    assert decoded.kind == "digest"
    assert decoded.events.payloads == (None, None, None)
    assert decoded == msg


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_row_form_decodes_to_columnar(codec):
    """Row-form events encode to the same wire shape and come back columnar."""
    msg = simple_message()
    decoded = codec.decode(codec.encode(msg))
    assert isinstance(decoded.events, EventColumns)
    assert decoded == msg
    assert tuple(decoded.events) == msg.events  # iterates as summaries


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_buffer_snapshot_roundtrips_through_wire(codec):
    """Simulator and threaded runtime share one message shape end to end."""
    buf = EventBuffer(16)
    for i in range(10):
        buf.add(EventId("src", i), age=i % 4, payload=i)
    for _ in range(3):
        buf.advance_round()
    columns = buf.snapshot_columns()
    msg = GossipMessage(sender="src", events=columns)
    decoded = codec.decode(codec.encode(msg))
    assert decoded.events.ages == columns.ages
    assert decoded.events.ids == columns.ids
    assert decoded == msg


def test_binary_rejects_bad_magic():
    with pytest.raises(CodecError):
        BinaryCodec().decode(b"\x00\x01")


def test_binary_rejects_bad_version():
    data = bytearray(BinaryCodec().encode(simple_message()))
    data[1] = 99
    with pytest.raises(CodecError):
        BinaryCodec().decode(bytes(data))


def test_binary_rejects_truncation():
    data = BinaryCodec().encode(simple_message())
    for cut in (2, len(data) // 2, len(data) - 1):
        with pytest.raises(CodecError):
            BinaryCodec().decode(data[:cut])


def test_binary_rejects_trailing_garbage():
    data = BinaryCodec().encode(simple_message())
    with pytest.raises(CodecError):
        BinaryCodec().decode(data + b"\x00")


def test_unencodable_value_rejected():
    msg = GossipMessage(sender=object(), events=())
    for codec in CODECS:
        with pytest.raises(CodecError):
            codec.encode(msg)


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_kind_carried_on_wire(codec):
    for kind in ("gossip", "multicast", "digest", "request", "reply"):
        msg = GossipMessage(sender=1, events=(), kind=kind)
        assert codec.decode(codec.encode(msg)).kind == kind


@pytest.mark.parametrize("codec", CODECS, ids=["binary"])
def test_unknown_kind_rejected(codec):
    msg = GossipMessage(sender=1, events=(), kind="smoke-signals")
    with pytest.raises(CodecError):
        codec.encode(msg)


def test_binary_rejects_unknown_kind_code():
    data = bytearray(BinaryCodec().encode(GossipMessage(sender=1, events=())))
    data[2] = 99  # the kind byte
    with pytest.raises(CodecError):
        BinaryCodec().decode(bytes(data))


def test_binary_is_compact():
    """A full buffer's worth of events must fit in a UDP datagram."""
    events = tuple(
        EventSummary(EventId(i % 60, i), i % 12, None) for i in range(180)
    )
    msg = GossipMessage(sender=7, events=events, adaptive=AdaptiveHeader(3, 90))
    data = BinaryCodec().encode(msg)
    assert len(data) < 3000  # far below the 65507-byte UDP cap


# ----------------------------------------------------------------------
# property-based round-trip
# ----------------------------------------------------------------------
node_ids = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=12),
    st.tuples(st.text(max_size=6), st.integers(0, 1000)),
)
payloads = st.one_of(
    st.none(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.binary(max_size=16),
    st.tuples(st.integers(0, 5), st.text(max_size=4)),
)
summaries = st.builds(
    EventSummary,
    id=st.builds(EventId, origin=node_ids, seq=st.integers(0, 2**30)),
    age=st.integers(0, 1000),
    payload=payloads,
)
adaptive_headers = st.one_of(
    st.none(),
    st.builds(
        AdaptiveHeader,
        period=st.integers(-5, 2**30),
        min_buff=st.one_of(
            st.integers(1, 10_000),
            st.tuples(st.tuples(st.integers(1, 500), node_ids)),
        ),
    ),
)
membership_headers = st.one_of(
    st.none(),
    st.builds(
        MembershipHeader,
        subs=st.tuples(node_ids),
        unsubs=st.tuples(node_ids),
    ),
)
messages = st.builds(
    GossipMessage,
    sender=node_ids,
    events=st.lists(summaries, max_size=8).map(tuple),
    adaptive=adaptive_headers,
    membership=membership_headers,
    kind=st.sampled_from(["gossip", "multicast", "digest", "request", "reply"]),
)


@settings(max_examples=300, deadline=None)
@given(msg=messages)
def test_binary_roundtrip_property(msg):
    codec = BinaryCodec()
    assert codec.decode(codec.encode(msg)) == msg

