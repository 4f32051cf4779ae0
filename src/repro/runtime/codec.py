"""The wire codec for gossip messages.

:class:`BinaryCodec` serialises :class:`~repro.gossip.protocol.GossipMessage`
in a compact, versioned, self-describing binary format (type-tagged
values, zigzag varints). Every live hop uses it; one gossip message
with a 90-event buffer fits well under a UDP datagram.

It round-trips every value type a protocol can legally put on the wire:
ints, strings, floats, bools, None, bytes, and (nested) tuples — which
covers event ids, κ-smallest aggregate states and pub/sub addresses.
Ints must fit a 77-bit varint (``-2**76 <= n < 2**76`` for signed
values) and tuples may nest 32 deep; ``encode`` refuses anything else
with :class:`CodecError`, so ``decode(encode(m)) == m`` for every
message it accepts, and ``decode`` raises nothing but
:class:`CodecError` on malformed input.

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
from functools import partial
from operator import is_
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

# A varint is at most 11 bytes of 7 bits; the encoder refuses any int
# whose varint would be longer, so every message it accepts decodes.
_VARINT_BITS = 77
_VARINT_LIMIT = 1 << _VARINT_BITS
# Tuple nesting bound, far above what protocols send (k-smallest
# aggregate states nest two deep); it keeps decoding off the recursion limit.
_MAX_DEPTH = 32

_new_tuple = tuple.__new__
_is_none = partial(is_, None)


class CodecError(ValueError):
    """Raised for malformed wire data or unencodable values."""


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def _zigzag(n: int) -> int:
    return ((-n) << 1) - 1 if n < 0 else n << 1


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


# the ints whose zigzag varint is one byte, by that byte
_SMALL_INTS = tuple(_unzigzag(z) for z in range(0x80))


def _write_uvarint(out: bytearray, n: int) -> None:
    if n < 0:
        raise CodecError("uvarint cannot encode negatives")
    if n >= _VARINT_LIMIT:
        raise CodecError(f"int too large for the wire ({_VARINT_BITS}-bit varints)")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """The varint at ``pos`` and the position after it."""
    result = 0
    shift = 0
    while True:
        b = data[pos]
        pos += 1
        if b < 0x80:
            return result | b << shift, pos
        result |= (b & 0x7F) << shift
        shift += 7
        if shift >= _VARINT_BITS:
            raise CodecError("varint too long")


# ----------------------------------------------------------------------
# tagged values
# ----------------------------------------------------------------------
def _write_value(out: bytearray, value: Any, depth: int = 0) -> None:
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
        if depth >= _MAX_DEPTH:
            raise CodecError(f"tuples nested deeper than {_MAX_DEPTH}")
        out.append(_T_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _write_value(out, item, depth + 1)
    else:
        raise CodecError(f"cannot encode {type(value).__name__} on the wire")


def _take(data: bytes, pos: int, n: int) -> bytes:
    end = pos + n
    if end > len(data):
        raise CodecError("truncated message")
    return data[pos:end]


def _read_value(data: bytes, pos: int, depth: int = 0) -> tuple[Any, int]:
    """The tagged value at ``pos`` and the position after it."""
    tag = data[pos]
    pos += 1
    if tag == _T_INT:
        z, pos = _read_uvarint(data, pos)
        return _unzigzag(z), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_STR:
        n, pos = _read_uvarint(data, pos)
        try:
            return _take(data, pos, n).decode("utf-8"), pos + n
        except UnicodeDecodeError as exc:
            raise CodecError(f"string is not UTF-8: {exc.reason}") from None
    if tag == _T_FLOAT:
        return struct.unpack(">d", _take(data, pos, 8))[0], pos + 8
    if tag == _T_BYTES:
        n, pos = _read_uvarint(data, pos)
        return bytes(_take(data, pos, n)), pos + n
    if tag == _T_TUPLE:
        if depth >= _MAX_DEPTH:
            raise CodecError(f"tuples nested deeper than {_MAX_DEPTH}")
        n, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(n):
            item, pos = _read_value(data, pos, depth + 1)
            items.append(item)
        return tuple(items), pos
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


def _decode(data: bytes) -> GossipMessage:
    """Parse one datagram; reading past its end raises ``IndexError``."""
    if data[0] != _MAGIC:
        raise CodecError("bad magic")
    if data[1] != _VERSION:
        raise CodecError(f"unsupported version {data[1]}")
    kind_code = data[2]
    if kind_code >= len(_KINDS):
        raise CodecError(f"unknown message kind code {kind_code}")
    sender, pos = _read_value(data, 3)
    n, pos = _read_uvarint(data, pos)
    ids = []
    append = ids.append
    for _ in range(n):
        if data[pos] == _T_INT and data[pos + 1] < 0x80:
            origin = _SMALL_INTS[data[pos + 1]]
            pos += 2
        else:
            origin, pos = _read_value(data, pos)
        seq = data[pos]
        if seq < 0x80:
            pos += 1
        elif data[pos + 1] < 0x80:
            seq = seq & 0x7F | data[pos + 1] << 7
            pos += 2
        else:
            seq, pos = _read_uvarint(data, pos)
        append(_new_tuple(EventId, (origin, seq)))
    column = data[pos : pos + n]
    if len(column) == n and column.isascii():  # one-byte ages
        anchors = tuple([-age for age in column])
        pos += n
    else:
        anchors = []
        for _ in range(n):
            age, pos = _read_uvarint(data, pos)
            anchors.append(-age)
        anchors = tuple(anchors)
    if data.count(0, pos, pos + n) == n:  # n None tags
        payloads = (None,) * n
        pos += n
    else:
        payloads = []
        for _ in range(n):
            payload, pos = _read_value(data, pos)
            payloads.append(payload)
        payloads = tuple(payloads)
    adaptive: Optional[AdaptiveHeader] = None
    if data[pos]:
        period, pos = _read_uvarint(data, pos + 1)
        min_buff, pos = _read_value(data, pos)
        adaptive = AdaptiveHeader(_unzigzag(period), min_buff)
    else:
        pos += 1
    membership: Optional[MembershipHeader] = None
    if data[pos]:
        subs, pos = _read_value(data, pos + 1)
        unsubs, pos = _read_value(data, pos)
        membership = MembershipHeader(subs, unsubs)
    else:
        pos += 1
    if pos != len(data):
        raise CodecError("trailing garbage")
    events = EventColumns(tuple(ids), 0, anchors, payloads)
    return GossipMessage(sender, events, adaptive, membership, _KINDS[kind_code])


class BinaryCodec:
    """Compact binary encoding of gossip messages.

    Both directions take a fast path for the event columns the live
    runtime sends (small non-negative int origins, seqs of one or two
    varint bytes, ages below 128, no payloads) and the generic
    tagged-value path for any other value; the bytes are the same
    either way.
    """

    def encode(self, message: GossipMessage) -> bytes:
        """Serialise a message to the compact binary wire format."""
        kind = _KIND_CODE.get(message.kind)
        if kind is None:
            raise CodecError(f"unknown message kind {message.kind!r}")
        out = bytearray((_MAGIC, _VERSION, kind))
        append = out.append
        _write_value(out, message.sender)
        ids, ages, payloads = _as_columns(message.events)
        _write_uvarint(out, len(ids))
        for origin, seq in ids:
            if type(origin) is int and 0 <= origin < 0x40:
                append(_T_INT)
                append(origin << 1)
            else:
                _write_value(out, origin)
            if type(seq) is int and 0 <= seq < 0x4000:
                if seq < 0x80:
                    append(seq)
                else:
                    append(seq & 0x7F | 0x80)
                    append(seq >> 7)
            else:
                _write_uvarint(out, seq)
        try:
            column = bytes(ages)
        except (TypeError, ValueError):  # an age outside 0..255
            column = None
        if column is not None and column.isascii():
            out += column  # every age is a one-byte varint
        else:
            for age in ages:
                _write_uvarint(out, age)
        if all(map(_is_none, payloads)):
            out += bytes(len(payloads))  # a run of None tags
        else:
            for payload in payloads:
                _write_value(out, payload)
        if message.adaptive is None:
            append(0)
        else:
            append(1)
            _write_uvarint(out, _zigzag(message.adaptive.period))
            _write_value(out, message.adaptive.min_buff)
        if message.membership is None:
            append(0)
        else:
            append(1)
            _write_value(out, tuple(message.membership.subs))
            _write_value(out, tuple(message.membership.unsubs))
        return bytes(out)

    def decode(self, data: bytes) -> GossipMessage:
        """Parse wire bytes; raises :class:`CodecError` on malformed input."""
        try:
            return _decode(data)
        except IndexError:  # read past the end
            raise CodecError("truncated message") from None

