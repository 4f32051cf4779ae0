"""The wire codec for gossip messages.

:class:`BinaryCodec` serialises :class:`~repro.gossip.protocol.GossipMessage`
in a compact, versioned, self-describing binary format (type-tagged
values, zigzag varints). Every live hop uses it; one gossip message
with a 90-event buffer fits well under a UDP datagram.

It round-trips every value type a protocol can legally put on the wire:
ints, strings, floats, bools, None, bytes, and (nested) tuples — which
covers event ids, κ-smallest aggregate states and pub/sub addresses.

Wire version 2 carries events *columnar* — all ids, then all ages, then
all payloads — and the decoder materialises them as
:class:`~repro.gossip.events.EventColumns` (anchored at base round 0),
so the live runtime and the simulator hand protocols one and the
same message shape. Row-form event tuples are accepted on encode and
written in the identical columnar layout; equality between the two
forms is semantic, so ``decode(encode(m)) == m`` holds for both.
"""

from __future__ import annotations

import struct
from typing import Any, Optional

from repro.gossip.events import EventColumns, EventId
from repro.gossip.protocol import AdaptiveHeader, GossipMessage, MembershipHeader

__all__ = ["CodecError", "BinaryCodec"]

_MAGIC = 0xAD
_VERSION = 2

# message kinds (1 byte on the wire)
_KINDS = ("gossip", "multicast", "digest", "request", "reply")
_KIND_CODE = {k: i for i, k in enumerate(_KINDS)}

# value type tags
_T_NONE = 0
_T_INT = 1
_T_STR = 2
_T_FLOAT = 3
_T_TUPLE = 4
_T_BYTES = 5
_T_TRUE = 6
_T_FALSE = 7


class CodecError(ValueError):
    """Raised for malformed wire data or unencodable values."""


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if n < 0 else n << 1


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def _write_uvarint(out: bytearray, n: int) -> None:
    if n < 0:
        raise CodecError("uvarint cannot encode negatives")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError("truncated message")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def uvarint(self) -> int:
        shift = 0
        result = 0
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")


# ----------------------------------------------------------------------
# tagged values
# ----------------------------------------------------------------------
def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _write_uvarint(out, _zigzag(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        _write_uvarint(out, len(value))
        out.extend(value)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item)
    else:
        raise CodecError(f"cannot encode {type(value).__name__} on the wire")


def _read_value(r: _Reader) -> Any:
    tag = r.byte()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _unzigzag(r.uvarint())
    if tag == _T_STR:
        return r.take(r.uvarint()).decode("utf-8")
    if tag == _T_FLOAT:
        return struct.unpack(">d", r.take(8))[0]
    if tag == _T_BYTES:
        return bytes(r.take(r.uvarint()))
    if tag == _T_TUPLE:
        return tuple(_read_value(r) for _ in range(r.uvarint()))
    raise CodecError(f"unknown value tag {tag}")


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------
def _as_columns(events) -> tuple[tuple, tuple, tuple]:
    """Extract (ids, ages, payloads) from either event form."""
    if type(events) is EventColumns:
        return events.ids, events.ages, events.payloads
    if not events:
        return (), (), ()
    ids, ages, payloads = zip(*events)
    return ids, ages, payloads


class BinaryCodec:
    """Compact binary encoding of gossip messages."""

    def encode(self, message: GossipMessage) -> bytes:
        """Serialise a message to the compact binary wire format."""
        kind = _KIND_CODE.get(message.kind)
        if kind is None:
            raise CodecError(f"unknown message kind {message.kind!r}")
        out = bytearray((_MAGIC, _VERSION, kind))
        _write_value(out, message.sender)
        ids, ages, payloads = _as_columns(message.events)
        _write_uvarint(out, len(ids))
        for event_id in ids:
            _write_value(out, event_id.origin)
            _write_uvarint(out, event_id.seq)
        for age in ages:
            _write_uvarint(out, age)
        for payload in payloads:
            _write_value(out, payload)
        if message.adaptive is None:
            out.append(0)
        else:
            out.append(1)
            _write_uvarint(out, _zigzag(message.adaptive.period))
            _write_value(out, message.adaptive.min_buff)
        if message.membership is None:
            out.append(0)
        else:
            out.append(1)
            _write_value(out, tuple(message.membership.subs))
            _write_value(out, tuple(message.membership.unsubs))
        return bytes(out)

    def decode(self, data: bytes) -> GossipMessage:
        """Parse wire bytes; raises :class:`CodecError` on malformed input."""
        r = _Reader(data)
        if r.byte() != _MAGIC:
            raise CodecError("bad magic")
        version = r.byte()
        if version != _VERSION:
            raise CodecError(f"unsupported version {version}")
        kind_code = r.byte()
        if kind_code >= len(_KINDS):
            raise CodecError(f"unknown message kind code {kind_code}")
        sender = _read_value(r)
        n_events = r.uvarint()
        ids = tuple(
            EventId(_read_value(r), r.uvarint()) for _ in range(n_events)
        )
        anchors = tuple(-r.uvarint() for _ in range(n_events))
        payloads = tuple(_read_value(r) for _ in range(n_events))
        events = EventColumns(ids, 0, anchors, payloads)
        adaptive: Optional[AdaptiveHeader] = None
        if r.byte():
            period = _unzigzag(r.uvarint())
            min_buff = _read_value(r)
            adaptive = AdaptiveHeader(period, min_buff)
        membership: Optional[MembershipHeader] = None
        if r.byte():
            subs = _read_value(r)
            unsubs = _read_value(r)
            membership = MembershipHeader(subs, unsubs)
        if r.pos != len(data):
            raise CodecError("trailing garbage")
        return GossipMessage(
            sender=sender,
            events=events,
            adaptive=adaptive,
            membership=membership,
            kind=_KINDS[kind_code],
        )
