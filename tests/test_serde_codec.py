"""Unit and property tests for the primitive codecs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serde.codec import (
    decode_bytes,
    decode_i64,
    decode_u32,
    decode_u64,
    decode_varint,
    encode_bytes,
    encode_i64,
    encode_u32,
    encode_u64,
    encode_varint,
)


class TestVarint:
    @pytest.mark.parametrize("value,expected", [
        (0, b"\x00"),
        (1, b"\x01"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (300, b"\xac\x02"),
        (16383, b"\xff\x7f"),
        (16384, b"\x80\x80\x01"),
    ])
    def test_known_encodings(self, value, expected):
        assert encode_varint(value) == expected
        assert decode_varint(expected) == (value, len(expected))
        assert decode_varint(b"\xaa" + expected, 1) == (value, 1 + len(expected))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    @pytest.mark.parametrize("data", [b"", b"\x05", b"\x05\x80\x01"])
    def test_offset_at_end_is_truncated_not_index_error(self, data):
        with pytest.raises(ValueError, match="truncated varint"):
            decode_varint(data, len(data))

    def test_overlong_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"\xff" * 11)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_round_trip(self, value):
        encoded = encode_varint(value)
        decoded, pos = decode_varint(encoded)
        assert decoded == value
        assert pos == len(encoded)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=50))
    def test_round_trip_with_offset(self, value, pad):
        data = b"\xaa" * pad + encode_varint(value)
        decoded, pos = decode_varint(data, pad)
        assert decoded == value
        assert pos == len(data)


class TestBytes:
    def test_empty(self):
        encoded = encode_bytes(b"")
        assert decode_bytes(encoded) == (b"", len(encoded))

    def test_truncated_raises(self):
        encoded = encode_bytes(b"hello")
        with pytest.raises(ValueError):
            decode_bytes(encoded[:-1])

    @pytest.mark.parametrize("size,prefix", [
        (127, b"\x7f"),
        (128, b"\x80\x01"),
    ])
    def test_known_encodings(self, size, prefix):
        payload = bytes(range(size))
        encoded = encode_bytes(payload)
        assert encoded == prefix + payload
        assert decode_bytes(b"\xaa" + encoded, 1) == (payload, 1 + len(encoded))

    @pytest.mark.parametrize("data,message", [
        (b"\xaa", "truncated varint"),  # offset at the end
        (b"\xaa\x80", "truncated varint"),  # multi-byte length cut short
        (b"\xaa\x80\x01" + b"x" * 127, "truncated byte string"),
        (b"\xaa\x7f" + b"x" * 126, "truncated byte string"),
    ])
    def test_truncated_at_offset_raises_value_error(self, data, message):
        with pytest.raises(ValueError, match=message):
            decode_bytes(data, 1)

    @given(st.binary(max_size=1000))
    def test_round_trip(self, payload):
        encoded = encode_bytes(payload)
        decoded, pos = decode_bytes(encoded)
        assert decoded == payload
        assert pos == len(encoded)

    @given(st.lists(st.binary(max_size=100), max_size=20))
    def test_concatenation_parses_in_order(self, payloads):
        data = b"".join(encode_bytes(p) for p in payloads)
        out = []
        pos = 0
        while pos < len(data):
            payload, pos = decode_bytes(data, pos)
            out.append(payload)
        assert out == payloads


class TestFixedWidth:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_u32_round_trip(self, value):
        assert decode_u32(encode_u32(value)) == (value, 4)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_u64_round_trip(self, value):
        assert decode_u64(encode_u64(value)) == (value, 8)

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_i64_round_trip(self, value):
        assert decode_i64(encode_i64(value)) == (value, 8)
