"""The one-pass block codec against the entry-by-entry decode it replaces.

``decode_block`` must return what a ``decode_entry`` loop returns on a
well-formed block and, on a damaged one, raise the same exception type
with the same message (or return the same entries, when the damage still
parses).  The lengths cover each varint width boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstores.lsm.format import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_PUT,
    Entry,
    decode_block,
    decode_entry,
    encode_entry,
    iter_block,
)
from repro.serde.codec import encode_varint

BOUNDARY_LENGTHS = (0, 127, 128, 16384)


def loop_decode(raw: bytes) -> list[Entry]:
    entries = []
    pos = 0
    while pos < len(raw):
        entry, pos = decode_entry(raw, pos)
        entries.append(entry)
    return entries


def outcome(decode, raw: bytes):
    try:
        return ("ok", decode(raw))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def lengths(boundaries: tuple[int, ...]):
    return st.one_of(st.sampled_from(boundaries), st.integers(0, 40))


def entries_strategy(boundaries: tuple[int, ...], max_entries: int):
    entry = st.builds(
        Entry,
        lengths(boundaries).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        st.integers(0, 2**40),
        st.sampled_from([KIND_PUT, KIND_MERGE, KIND_DELETE]),
        lengths(boundaries).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    )
    return st.lists(entry, min_size=1, max_size=max_entries)


def encode(entries: list[Entry]) -> bytes:
    return b"".join(encode_entry(e) for e in entries)


@settings(max_examples=60, deadline=None)
@given(entries_strategy(BOUNDARY_LENGTHS, 6))
def test_well_formed_block_matches_entry_loop(entries):
    raw = encode(entries)
    decoded = decode_block(raw)
    assert decoded == loop_decode(raw) == entries
    assert all(type(e) is Entry and type(e.key) is bytes and type(e.value) is bytes
               for e in decoded)
    assert list(iter_block(raw)) == decoded


@settings(max_examples=25, deadline=None)
@given(entries_strategy((0, 127, 128), 4))
def test_every_truncation_and_bit_flip_matches_entry_loop(entries):
    raw = encode(entries)
    for cut in range(len(raw)):
        damaged = raw[:cut]
        assert outcome(decode_block, damaged) == outcome(loop_decode, damaged)
    for at in range(len(raw)):
        for bit in range(8):
            damaged = bytearray(raw)
            damaged[at] ^= 1 << bit
            damaged = bytes(damaged)
            assert outcome(decode_block, damaged) == outcome(loop_decode, damaged)


def test_every_truncation_and_framing_bit_flip_of_long_entries():
    """The 16384-byte lengths take three-byte varints.

    Every truncation is checked, and every bit flip of the framing bytes
    (length prefixes, seq, kind) and of each payload's first and last
    byte.  A flip strictly inside a payload leaves the framing alone, so
    both decoders return the same entries with that byte changed.
    """
    entries = [
        Entry(b"k" * 128, 2**40, KIND_PUT, b"\x80" * 16384),
        Entry(b"", 127, KIND_MERGE, b"v" * 127),
        Entry(b"z" * 16384, 128, KIND_DELETE),
    ]
    raw = encode(entries)
    interior = set()  # offsets strictly inside a key or value payload
    pos = 0
    for key, seq, kind, value in entries:
        key_at = pos + len(encode_varint(len(key)))
        value_at = key_at + len(key) + len(encode_varint(seq)) + 1 + len(encode_varint(len(value)))
        interior.update(range(key_at + 1, key_at + len(key) - 1))
        interior.update(range(value_at + 1, value_at + len(value) - 1))
        pos = value_at + len(value)
    assert pos == len(raw)
    flips = [at for at in range(len(raw)) if at not in interior]
    for cut in range(len(raw)):
        damaged = raw[:cut]
        assert outcome(decode_block, damaged) == outcome(loop_decode, damaged)
    damaged = bytearray(raw)
    for at in flips:
        for bit in range(8):
            damaged[at] ^= 1 << bit
            frozen = bytes(damaged)
            assert outcome(decode_block, frozen) == outcome(loop_decode, frozen)
            damaged[at] ^= 1 << bit


def test_partial_block_streams_up_to_the_damage():
    good = [Entry(b"a", 1, KIND_PUT, b"x"), Entry(b"b", 2, KIND_PUT, b"y")]
    raw = encode(good) + b"\x05ab"  # third entry's key claims 5 bytes, has 2
    seen = []
    try:
        for entry in iter_block(raw):
            seen.append(entry)
    except ValueError as exc:
        assert str(exc) == "truncated byte string"
    else:  # pragma: no cover - the damage must raise
        raise AssertionError("damaged block decoded")
    assert seen == good


@dataclass(frozen=True)
class _FrozenEntry:
    """The previous ``Entry``: a frozen dataclass with the same fields."""

    key: bytes
    seq: int
    kind: int
    value: bytes = b""


@given(
    st.binary(max_size=20),
    st.integers(0, 2**40),
    st.sampled_from([KIND_PUT, KIND_MERGE, KIND_DELETE]),
    st.binary(max_size=20),
)
def test_entry_keeps_equality_hash_and_repr(key, seq, kind, value):
    entry = Entry(key, seq, kind, value)
    assert entry == Entry(key, seq, kind, value)
    assert entry != Entry(key, seq + 1, kind, value)
    assert hash(entry) == hash(_FrozenEntry(key, seq, kind, value))
    names = {KIND_PUT: "PUT", KIND_MERGE: "MERGE", KIND_DELETE: "DELETE"}
    assert repr(entry) == f"Entry({key!r}, seq={seq}, {names[kind]}, {len(value)}B)"
    assert Entry(key, seq, kind) == Entry(key, seq, kind, b"")
