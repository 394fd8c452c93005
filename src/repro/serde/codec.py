"""Primitive codecs: varints, fixed-width integers, length-prefixed bytes.

These are the building blocks of every on-disk format in the package
(SSTable blocks, FlowKV data/index logs, hybrid-log records).  They are
pure functions over ``bytes`` — cost accounting happens at the store layer
which knows how many bytes it is encoding and why.
"""

from __future__ import annotations

import struct

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")

# The 128 one-byte varints.  Nearly every key and value length the stores
# encode is below 0x80, so encoders return a shared constant and decoders
# take the single byte inline; the loops below handle everything else.
_ONE_BYTE_VARINTS = tuple(bytes((value,)) for value in range(0x80))


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if 0 <= value < 0x80:
        return _ONE_BYTE_VARINTS[value]
    if value < 0:
        raise ValueError(f"varint must be non-negative: {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 varint; returns ``(value, next_offset)``."""
    if offset < len(data) and (byte := data[offset]) < 0x80:
        return byte, offset + 1
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def encode_bytes(payload: bytes) -> bytes:
    """Length-prefixed byte string."""
    length = len(payload)
    if length < 0x80:
        return _ONE_BYTE_VARINTS[length] + payload
    return encode_varint(length) + payload


def decode_bytes(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode a length-prefixed byte string; returns ``(payload, next_offset)``."""
    if offset < len(data) and (length := data[offset]) < 0x80:
        pos = offset + 1
    else:
        length, pos = decode_varint(data, offset)
    end = pos + length
    if end > len(data):
        raise ValueError("truncated byte string")
    return bytes(data[pos:end]), end


def encode_u32(value: int) -> bytes:
    return _U32.pack(value)


def decode_u32(data: bytes, offset: int = 0) -> tuple[int, int]:
    return _U32.unpack_from(data, offset)[0], offset + 4


def encode_u64(value: int) -> bytes:
    return _U64.pack(value)


def decode_u64(data: bytes, offset: int = 0) -> tuple[int, int]:
    return _U64.unpack_from(data, offset)[0], offset + 8


def encode_i64(value: int) -> bytes:
    return _I64.pack(value)


def decode_i64(data: bytes, offset: int = 0) -> tuple[int, int]:
    return _I64.unpack_from(data, offset)[0], offset + 8
