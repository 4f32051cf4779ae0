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
# golden bytes: wire v2 pinned byte for byte
# ----------------------------------------------------------------------
# Between them the messages cover small, large, negative, str and tuple
# origins; seqs 0, 127, 128, 16383, 16384 and 2**40; ages 0, 127 and 128;
# all-None and mixed payload columns; int and tuple ``min_buff``; a
# membership header; every kind; 0 and 90 events. The hex was written by
# the codec before its fast paths existed and must never change.
def golden_messages():
    """Hand-built messages that together cover every wire v2 shape, by name."""
    live_seqs = (0, 127, 128, 16383, 16384)
    live = EventColumns(
        ids=tuple(EventId(i % 48, live_seqs[i % 5] + i // 5) for i in range(90)),
        base_round=200,
        anchors=tuple(200 - (i * 7) % 128 for i in range(90)),
        payloads=(None,) * 90,
    )
    mixed = (
        EventSummary(EventId(2**40, 2**40), 128, "payload"),
        EventSummary(EventId(-3, 0), 127, None),
        EventSummary(EventId("node-x", 16384), 0, b"\x00\x01"),
        EventSummary(EventId(("news", 4), 16383), 300, (1, "a", None)),
        EventSummary(EventId(63, 128), 5, 2.5),
        EventSummary(EventId(64, 127), 0, True),
        EventSummary(EventId(-(2**63), 1), 1, False),
        EventSummary(EventId(0, 3), 2, -(2**62)),
    )
    digest = EventColumns(
        ids=(EventId("a", 1), EventId("b", 2), EventId(7, 3)),
        base_round=129,
        anchors=(1, 129, 0),
        payloads=("x", None, 5),
    ).without_payloads()
    return {
        "empty-gossip": GossipMessage(sender=0, events=()),
        "live-90-events": GossipMessage(
            sender=5, events=live, adaptive=AdaptiveHeader(12, 45)
        ),
        "mixed-multicast": GossipMessage(
            sender=-(2**63),
            events=mixed,
            adaptive=AdaptiveHeader(-5, ((30, 5), (60, "h2"))),
            kind="multicast",
        ),
        "digest": GossipMessage(
            sender="host-a",
            events=digest,
            adaptive=AdaptiveHeader(2**40, 90),
            kind="digest",
        ),
        "request-membership": GossipMessage(
            sender=("news", 4),
            events=(),
            membership=MembershipHeader(subs=(1, ("t", 2), "x"), unsubs=("dead",)),
            kind="request",
        ),
        "reply": GossipMessage(
            sender=47,
            events=(EventSummary(EventId(1, 2**40), 0, "grüße"),),
            adaptive=AdaptiveHeader(0, 1),
            membership=MembershipHeader((), ()),
            kind="reply",
        ),
        "small-gossip": GossipMessage(
            sender=2,
            events=(
                EventSummary(EventId(1, 0), 2, None),
                EventSummary(EventId(1, 1), 1, "p"),
                EventSummary(EventId(2, 0), 0, None),
            ),
            adaptive=AdaptiveHeader(3, 60),
            membership=MembershipHeader(subs=(4,), unsubs=()),
        ),
        "wide-ages-multicast": GossipMessage(
            sender=9,
            events=tuple(
                EventSummary(EventId(3, seq), age, None)
                for seq, age in zip((0, 1, 2, 3, 4), (0, 127, 128, 129, 16384))
            ),
            kind="multicast",
        ),
    }


GOLDEN_HEX = {
    "empty-gossip": "ad02000100000000",
    "live-90-events": (
        "ad0200010a5a01000001027f010480010106ff7f0108808001010a01010c8001"
        "010e8101011080800101128180010114020116810101188201011a818001011c"
        "828001011e03012082010122830101248280010126838001012804012a830101"
        "2c8401012e838001013084800101320501348401013685010138848001013a85"
        "8001013c06013e8501014086010142858001014486800101460701488601014a"
        "8701014c868001014e8780010150080152870101548801015687800101588880"
        "01015a09015c8801015e89010100888001010289800101040a0106890101088a"
        "01010a898001010c8a8001010e0b01108a0101128b0101148a800101168b8001"
        "01180c011a8b01011c8c01011e8b800101208c800101220d01248c0101268d01"
        "01288c8001012a8d8001012c0e012e8d0101308e0101328d800101348e800101"
        "360f01388e01013a8f01013c8e8001013e8f800101401001428f010144900101"
        "468f80010148908001014a11014c9001014e9101015090800101529180010007"
        "0e151c232a31383f464d545b626970777e050c131a21282f363d444b52596067"
        "6e757c030a11181f262d343b424950575e656c737a01080f161d242b32394047"
        "4e555c636a71787f060d141b222930373e454c535a61686f0000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000118015a00"
    ),
    "mixed-multicast": (
        "ad020101ffffffffffffffffff01080180808080804080808080802001050002"
        "066e6f64652d78808001040202046e6577730108ff7f017e80010180017f01ff"
        "ffffffffffffffff010101000380017f00ac020500010202077061796c6f6164"
        "00050200010403010202016100034004000000000000060701ffffffffffffff"
        "ff7f010904020402013c010a040201780202683200"
    ),
    "digest": (
        "ad02020206686f73742d61030201610102016202010e03800100810100000001"
        "80808080804001b40100"
    ),
    "request-membership": (
        "ad0203040202046e657773010800000104030102040202017401040201780401"
        "020464656164"
    ),
    "reply": (
        "ad0204015e0101028080808080200002076772c3bcc39f650100010201040004"
        "00"
    ),
    "small-gossip": (
        "ad02000104030102000102010104000201000002017000010601780104010108"
        "0400"
    ),
    "wide-ages-multicast": (
        "ad0201011205010600010601010602010603010604007f800181018080010000"
        "0000000000"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
def test_wire_v2_golden_bytes(name):
    codec = BinaryCodec()
    msg = golden_messages()[name]
    data = bytes.fromhex(GOLDEN_HEX[name])
    assert codec.encode(msg) == data
    assert codec.decode(data) == msg


def test_golden_messages_cover_every_kind_and_both_event_extremes():
    messages = golden_messages().values()
    assert {m.kind for m in messages} == {"gossip", "multicast", "digest", "request", "reply"}
    assert {0, 90} <= {len(m.events) for m in messages}


# ----------------------------------------------------------------------
# every int the encoder accepts comes back; the rest it refuses
# ----------------------------------------------------------------------
def _int_carriers(value):
    """One message per field that carries a zigzag int on the wire."""
    return [
        GossipMessage(sender=value, events=()),
        GossipMessage(sender=0, events=(EventSummary(EventId(value, 0), 0, None),)),
        GossipMessage(sender=0, events=(EventSummary(EventId(0, 0), 0, value),)),
        GossipMessage(sender=0, events=(), adaptive=AdaptiveHeader(value, 1)),
    ]


@pytest.mark.parametrize("value", [-(2**63) - 1, -(2**64), -(2**70), -(2**76)])
def test_ints_below_minus_2_pow_63_roundtrip(value):
    codec = BinaryCodec()
    for msg in _int_carriers(value):
        assert codec.decode(codec.encode(msg)) == msg


@pytest.mark.parametrize("value", [2**76, 2**100, -(2**76) - 1, -(2**100)])
def test_encode_refuses_ints_the_decoder_cannot_read(value):
    codec = BinaryCodec()
    for msg in _int_carriers(value):
        with pytest.raises(CodecError):
            codec.encode(msg)
    with pytest.raises(CodecError):  # seqs are unsigned varints
        codec.encode(GossipMessage(sender=0, events=(EventSummary(EventId(0, 2**77), 0, None),)))


def test_largest_wire_ints_roundtrip():
    codec = BinaryCodec()
    for value in (2**76 - 1, -(2**76)):
        for msg in _int_carriers(value):
            assert codec.decode(codec.encode(msg)) == msg
    msg = GossipMessage(sender=0, events=(EventSummary(EventId(0, 2**77 - 1), 2**77 - 1, None),))
    assert codec.decode(codec.encode(msg)) == msg


# ----------------------------------------------------------------------
# malformed input raises CodecError and nothing else
# ----------------------------------------------------------------------
_HEAD = bytes((0xAD, 2, 0))  # magic, version, kind "gossip"
_NO_EVENTS_NO_HEADERS = b"\x00\x00\x00"


def test_decode_wraps_invalid_utf8_in_codec_error():
    data = _HEAD + b"\x02\x02\xff\xfe" + _NO_EVENTS_NO_HEADERS  # str sender
    with pytest.raises(CodecError):
        BinaryCodec().decode(data)


def test_decode_wraps_deep_tuple_nesting_in_codec_error():
    data = _HEAD + b"\x04\x01" * 5000 + b"\x00" + _NO_EVENTS_NO_HEADERS
    with pytest.raises(CodecError):
        BinaryCodec().decode(data)


def test_encode_refuses_nesting_the_decoder_refuses():
    codec = BinaryCodec()
    nested = 0
    for _ in range(32):
        nested = (nested,)
    msg = GossipMessage(sender=nested, events=())
    assert codec.decode(codec.encode(msg)) == msg
    with pytest.raises(CodecError):
        codec.encode(msg._replace(sender=(nested,)))


# ----------------------------------------------------------------------
# property-based round-trip
# ----------------------------------------------------------------------
def _examples(per_pr: int) -> int:
    """A property's example count under the loaded hypothesis profile.

    ``per_pr`` under the default profile; the nightly ``deep-parity``
    profile (``tests/conftest.py``) scales every property by its factor.
    """
    scale = settings().max_examples / settings.get_profile("default").max_examples
    return max(1, round(per_pr * scale))


node_ids = st.one_of(
    st.integers(-(2**76), 2**76 - 1),
    st.text(max_size=12),
    st.tuples(st.text(max_size=6), st.integers(0, 1000)),
)
# small non-negative ints are the live runtime's node ids and take the
# codec's fast path; mixing them with the rest within one message makes
# the fast and the generic path alternate inside one column
origins = st.one_of(st.integers(0, 63), node_ids)
payloads = st.one_of(
    st.none(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.binary(max_size=16),
    st.tuples(st.integers(0, 5), st.text(max_size=4)),
)
event_ids = st.builds(
    EventId,
    origin=origins,
    seq=st.one_of(st.integers(0, 2**14 - 1), st.integers(0, 2**40)),
)
ages = st.one_of(st.integers(0, 127), st.integers(0, 2**20))
summaries = st.builds(EventSummary, id=event_ids, age=ages, payload=payloads)
# the live shape: no payloads, so the payload column is a run of None tags
bare_summaries = st.builds(EventSummary, id=event_ids, age=ages, payload=st.none())
event_rows = st.one_of(
    st.lists(summaries, max_size=90), st.lists(bare_summaries, max_size=90)
).map(tuple)
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
    events=event_rows,
    adaptive=adaptive_headers,
    membership=membership_headers,
    kind=st.sampled_from(["gossip", "multicast", "digest", "request", "reply"]),
)


@settings(max_examples=_examples(300), deadline=None)
@given(msg=messages)
def test_binary_roundtrip_property(msg):
    codec = BinaryCodec()
    assert codec.decode(codec.encode(msg)) == msg


@settings(max_examples=_examples(100), deadline=None)
@given(msg=messages, mask=st.integers(1, 255))
def test_damaged_datagrams_raise_only_codec_error(msg, mask):
    """Every truncation is refused; flipping ``mask``'s bits in any one
    byte either decodes or raises :class:`CodecError`, nothing else."""
    codec = BinaryCodec()
    data = codec.encode(msg)
    for cut in range(len(data)):
        with pytest.raises(CodecError):
            codec.decode(data[:cut])
    for i in range(len(data)):
        mutated = bytearray(data)
        mutated[i] ^= mask
        try:
            codec.decode(bytes(mutated))
        except CodecError:
            pass
