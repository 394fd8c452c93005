"""On-disk entry and value-list encodings shared across the LSM store.

An *entry* is ``(key, seq, kind, value)``.  Kinds:

* ``PUT`` — a full value,
* ``MERGE`` — one merge operand (an appended list element),
* ``DELETE`` — a tombstone.

List values (the Append access pattern) are represented as a
concatenation of length-prefixed elements, so merging operands is pure
byte concatenation — exactly RocksDB's ``StringAppendOperator`` shape.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.serde.codec import decode_bytes, decode_varint, encode_bytes, encode_varint

KIND_PUT = 0
KIND_MERGE = 1
KIND_DELETE = 2

_KIND_NAMES = {KIND_PUT: "PUT", KIND_MERGE: "MERGE", KIND_DELETE: "DELETE"}


class Entry(NamedTuple):
    """One versioned KV record inside a memtable or SSTable.

    A tuple, so hot loops build it with ``tuple.__new__(Entry, (...))``
    and sort or search a block by ``itemgetter(0)`` (the key).
    """

    key: bytes
    seq: int
    kind: int
    value: bytes = b""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Entry({self.key!r}, seq={self.seq}, {_KIND_NAMES[self.kind]}, {len(self.value)}B)"


_new_entry = tuple.__new__


def encode_entry(entry: Entry) -> bytes:
    """Serialize one entry."""
    key, seq, kind, value = entry
    return encode_bytes(key) + encode_varint(seq) + bytes((kind,)) + encode_bytes(value)


def decode_entry(data: bytes, offset: int = 0) -> tuple[Entry, int]:
    """Deserialize one entry; returns ``(entry, next_offset)``."""
    key, pos = decode_bytes(data, offset)
    seq, pos = decode_varint(data, pos)
    kind = data[pos]
    pos += 1
    value, pos = decode_bytes(data, pos)
    return _new_entry(Entry, (key, seq, kind, value)), pos


def decode_block(raw: bytes) -> list[Entry]:
    """Deserialize a whole block of concatenated entries in one pass.

    Key and value lengths below 0x80 (nearly all of them) are read
    inline.  Any entry that leaves that shape, including a malformed one,
    is handed to :func:`decode_entry`, so a damaged block raises exactly
    what an entry-by-entry decode raises.
    """
    entries: list[Entry] = []
    append = entries.append
    end = len(raw)
    pos = 0
    while pos < end:
        key_len = raw[pos]
        key_end = pos + 1 + key_len
        if key_len < 0x80 and key_end < end:
            seq = raw[key_end]
            kind_at = key_end + 1
            if seq >= 0x80:
                seq, kind_at = decode_varint(raw, key_end)
            if kind_at + 1 < end:
                value_len = raw[kind_at + 1]
                value_end = kind_at + 2 + value_len
                if value_len < 0x80 and value_end <= end:
                    append(_new_entry(Entry, (
                        raw[pos + 1 : key_end], seq, raw[kind_at], raw[kind_at + 2 : value_end]
                    )))
                    pos = value_end
                    continue
        entry, pos = decode_entry(raw, pos)
        append(entry)
    return entries


def iter_block(raw: bytes) -> Iterator[Entry]:
    """Entry-by-entry decode of a block: yields each well-formed entry
    before raising on the first malformed one."""
    pos = 0
    while pos < len(raw):
        entry, pos = decode_entry(raw, pos)
        yield entry


def pack_list_value(elements: list[bytes]) -> bytes:
    """Concatenate length-prefixed list elements (merged Append value)."""
    out = bytearray()
    for element in elements:
        out += encode_bytes(element)
    return bytes(out)


def unpack_list_value(data: bytes) -> list[bytes]:
    """Split a merged Append value back into its elements."""
    elements: list[bytes] = []
    pos = 0
    while pos < len(data):
        element, pos = decode_bytes(data, pos)
        elements.append(element)
    return elements


def merge_entries(entries: list[Entry]) -> Entry | None:
    """Collapse all versions of one key into a single logical entry.

    ``entries`` must be newest-first.  Returns the surviving entry (a PUT
    with merged value, or a DELETE tombstone) or None if the key never
    existed.  Merge operands newer than a base PUT are appended after it;
    operands above a DELETE (or with no base) form a bare list.
    """
    if not entries:
        return None
    operands: list[bytes] = []  # newest-first merge operands
    for entry in entries:
        if entry.kind == KIND_MERGE:
            operands.append(entry.value)
            continue
        if entry.kind == KIND_DELETE:
            if not operands:
                return Entry(entries[0].key, entries[0].seq, KIND_DELETE)
            base = b""
        else:
            base = entry.value
        merged = base + b"".join(reversed(operands))
        return Entry(entries[0].key, entries[0].seq, KIND_PUT, merged)
    # Only merge operands, no base record.
    merged = b"".join(reversed(operands))
    return Entry(entries[0].key, entries[0].seq, KIND_PUT, merged)
