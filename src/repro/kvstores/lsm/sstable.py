"""SSTable writer and reader.

Layout (all little-endian):

```
[data block 0][data block 1]...[index block][bloom block][footer]
```

* data blocks: concatenated encoded entries, key-sorted, ~``block_bytes``
  each; a key's versions never straddle a block boundary,
* index block: per block ``(first_key, offset, length)``,
* bloom block: serialized :class:`BloomFilter` over all keys,
* footer: fixed-size offsets of the index and bloom blocks.

A reader keeps each data block's decoded entries once parsed: tables are
immutable, so a block is parsed at most once on the host however often
the simulated device reads it.  A reader returned by the writer starts
with every block decoded (the entries it just encoded), but only when
the bytes that reached the file are the bytes it encoded — a torn or
bit-flipped write is decoded from the damaged file like any other.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from operator import itemgetter

from repro.errors import StoreError
from repro.kvstores.lsm.blockcache import BlockCache
from repro.kvstores.lsm.bloom import BloomFilter, hash_pair
from repro.kvstores.lsm.format import Entry, decode_block, encode_entry, iter_block
from repro.serde.codec import decode_bytes, encode_bytes, encode_varint
from repro.simenv import CAT_STORE_READ, SimEnv
from repro.storage.filesystem import SimFileSystem

_FOOTER = struct.Struct("<QIQIQI")  # index_off, index_len, bloom_off, bloom_len, n_entries, magic
_MAGIC = 0x5354414C  # "STAL"
_KEY = itemgetter(0)  # Entry.key, for bisecting a decoded block


class SSTableWriter:
    """Builds one SSTable from a key-sorted entry stream and writes it."""

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        name: str,
        block_bytes: int = 4096,
        bloom_bits_per_key: int = 10,
        category: str = "store_write",
    ) -> None:
        self._env = env
        self._fs = fs
        self._name = name
        self._block_bytes = block_bytes
        self._bloom_bits = bloom_bits_per_key
        self._category = category

    def write(self, entries: Iterable[Entry]) -> "SSTableReader | None":
        """Write all entries; returns a reader, or None if empty."""
        blocks: list[bytes] = []
        decoded: list[list[Entry]] = []  # per block, the entries encoded into it
        index: list[tuple[bytes, int, int]] = []  # first_key, offset, length
        current = bytearray()
        current_entries: list[Entry] = []
        current_first: bytes | None = None
        last_key: bytes | None = None
        keys: list[bytes] = []
        offset = 0

        def close_block() -> None:
            nonlocal current, current_entries, current_first, offset
            if not current:
                return
            index.append((current_first or b"", offset, len(current)))
            offset += len(current)
            blocks.append(bytes(current))
            decoded.append(current_entries)
            current = bytearray()
            current_entries = []
            current_first = None

        block_bytes = self._block_bytes
        for entry in entries:
            key, seq, kind, value = entry
            if key != last_key:
                if last_key is not None and key < last_key:
                    raise StoreError(
                        f"entries out of order writing {self._name}: {key!r} < {last_key!r}"
                    )
                # Only split blocks at key boundaries so one key's versions
                # always live in a single block.
                if len(current) >= block_bytes:
                    close_block()
                keys.append(key)
                last_key = key
            if current_first is None:
                current_first = key
            key_len = len(key)
            value_len = len(value)
            if key_len < 0x80 and value_len < 0x80:
                current.append(key_len)
                current += key
                current += encode_varint(seq)
                current.append(kind)
                current.append(value_len)
                current += value
            else:
                current += encode_entry(entry)
            if type(key) is not bytes or type(value) is not bytes:
                # The reader hands these out as decoded values: never a
                # caller's mutable buffer.
                entry = Entry(bytes(key), seq, kind, bytes(value))
            current_entries.append(entry)
        close_block()

        n_entries = sum(map(len, decoded))
        if n_entries == 0:
            return None

        bloom = BloomFilter(len(keys), self._bloom_bits)
        for key in keys:
            bloom.add(key)
            self._env.charge_cpu(self._category, self._env.cpu.bloom_check)

        index_block = bytearray()
        for first_key, block_off, block_len in index:
            index_block += encode_bytes(first_key)
            index_block += struct.pack("<QI", block_off, block_len)
        bloom_block = bloom.to_bytes()

        data_len = offset
        payload = b"".join(blocks) + bytes(index_block) + bloom_block
        footer = _FOOTER.pack(
            data_len, len(index_block), data_len + len(index_block), len(bloom_block),
            n_entries, _MAGIC,
        )
        # One sequential device write for the whole table.
        data = payload + footer
        at = self._fs.append(self._name, data, category=self._category)
        return SSTableReader(
            self._env, self._fs, self._name, category=self._category,
            blocks=decoded if self._fs.holds(self._name, at, data) else None,
        )


class SSTableReader:
    """Opens an SSTable; index and bloom filter stay pinned in memory.

    ``blocks`` is the writer's per-block entry lists for a table whose
    file holds exactly what was encoded; a reader opened from disk passes
    none and decodes each block on its first read.
    """

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        name: str,
        category: str = "store_read",
        blocks: list[list[Entry]] | None = None,
    ) -> None:
        self._env = env
        self._fs = fs
        self.name = name
        file_size = fs.size(name)
        footer = fs.read(name, file_size - _FOOTER.size, _FOOTER.size, category=category)
        index_off, index_len, bloom_off, bloom_len, n_entries, magic = _FOOTER.unpack(footer)
        if magic != _MAGIC:
            raise StoreError(f"bad SSTable magic in {name}")
        self.entry_count = n_entries
        index_raw = fs.read(name, index_off, index_len, category=category)
        self._block_first_keys: list[bytes] = []
        self._block_offsets: list[tuple[int, int]] = []
        pos = 0
        while pos < len(index_raw):
            first_key, pos = decode_bytes(index_raw, pos)
            block_off, block_len = struct.unpack_from("<QI", index_raw, pos)
            pos += 12
            self._block_first_keys.append(first_key)
            self._block_offsets.append((block_off, block_len))
        bloom_raw = fs.read(name, bloom_off, bloom_len, category=category)
        self._bloom = BloomFilter.from_bytes(bloom_raw)
        self._data_len = index_off
        self._index_bytes = index_len + bloom_len
        # Decoded entries per data block (None until first decoded).  Host
        # memory only: every read still pays the device read and the
        # per-byte decode charge.
        self._blocks: list[list[Entry] | None] = (
            blocks if blocks is not None else [None] * len(self._block_offsets)
        )
        self.smallest_key = self._block_first_keys[0] if self._block_first_keys else b""
        self.largest_key = self._find_largest_key(category)

    def _find_largest_key(self, category: str) -> bytes:
        if not self._block_offsets:
            return b""
        entries = self._decode_block_raw(len(self._block_offsets) - 1, category)
        return entries[-1].key if entries else b""

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Pinned index + bloom memory."""
        return self._index_bytes + sum(len(k) for k in self._block_first_keys)

    @property
    def data_bytes(self) -> int:
        return self._data_len

    def file_size(self) -> int:
        return self._fs.size(self.name)

    def may_contain(self, key_hash: tuple[int, int]) -> bool:
        """Bloom probe for the key whose :func:`hash_pair` is ``key_hash``."""
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.bloom_check)
        self._env.bump("lsm_bloom_checks")
        hit = self._bloom.may_contain_hash(key_hash)
        if not hit:
            self._env.bump("lsm_bloom_negatives")
        return hit

    # ------------------------------------------------------------------
    def _decode_block_raw(self, block_idx: int, category: str = CAT_STORE_READ) -> list[Entry]:
        """Read and decode one block from the device (no cache)."""
        block_off, block_len = self._block_offsets[block_idx]
        raw = self._fs.read(self.name, block_off, block_len, category=category)
        self._env.charge_cpu(category, block_len * self._env.cpu.block_decode_per_byte)
        entries = self._blocks[block_idx]
        if entries is None:
            entries = self._blocks[block_idx] = decode_block(raw)
        return entries

    def _load_block(self, block_idx: int, cache: BlockCache | None) -> list[Entry]:
        block_off, block_len = self._block_offsets[block_idx]
        if cache is not None:
            cached = cache.get(self.name, block_off)
            if cached is not None:
                return cached
        entries = self._decode_block_raw(block_idx)
        if cache is not None:
            cache.insert(self.name, block_off, entries, block_len)
        return entries

    def locate_block(self, key: bytes, key_hash: tuple[int, int]) -> int | None:
        """Index of the data block a point read of ``key`` would load
        (``key_hash`` is its :func:`hash_pair`).

        Charges the same bloom check and index search as the lookup path
        of :meth:`get_versions`; the prefetcher calls this under capture
        so the cost books as background work.
        """
        if not self._block_offsets or not self.may_contain(key_hash):
            return None
        self._env.charge_cpu(
            CAT_STORE_READ, self._env.cpu.sorted_search(len(self._block_offsets))
        )
        block_idx = bisect_right(self._block_first_keys, key) - 1
        return block_idx if block_idx >= 0 else None

    def block_span(self, block_idx: int) -> tuple[int, int]:
        """``(offset, length)`` of a data block."""
        return self._block_offsets[block_idx]

    def get_versions(
        self,
        key: bytes,
        cache: BlockCache | None = None,
        key_hash: tuple[int, int] | None = None,
    ) -> list[Entry]:
        """All versions of ``key`` in this table, newest first."""
        if not self._block_offsets or not self.may_contain(key_hash or hash_pair(key)):
            return []
        self._env.charge_cpu(
            CAT_STORE_READ, self._env.cpu.sorted_search(len(self._block_offsets))
        )
        block_idx = bisect_right(self._block_first_keys, key) - 1
        if block_idx < 0:
            return []
        entries = self._load_block(block_idx, cache)
        # Binary search within the block, then collect the key's run.
        n_entries = len(entries)
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.sorted_search(n_entries))
        lo = hi = bisect_left(entries, key, key=_KEY)
        while hi < n_entries and entries[hi].key == key:
            hi += 1
        return entries[lo:hi]

    def plan_slabs(
        self,
        start_key: bytes | None = None,
        stop_prefix: bytes | None = None,
        readahead_bytes: int = 1 << 20,
    ) -> list[tuple[int, int]]:
        """The ``(offset, length)`` slab sequence :meth:`iter_entries`
        would read for a scan from ``start_key``.

        Pure index arithmetic — no device access, no charges — so a
        prefetcher can issue exactly the reads the demand scan will make.
        With ``stop_prefix`` the plan ends at the slab covering the first
        block whose keys left the prefix (where a prefix scan stops).
        """
        if not self._block_offsets:
            return []
        first = 0
        if start_key is not None:
            first = max(0, bisect_right(self._block_first_keys, start_key) - 1)
        slabs: list[tuple[int, int]] = []
        slab_start = 0
        slab_len = 0
        for block_idx in range(first, len(self._block_offsets)):
            block_off, block_len = self._block_offsets[block_idx]
            if block_off + block_len > slab_start + slab_len:
                slab_start = block_off
                slab_len = min(
                    max(readahead_bytes, block_len), self._data_len - slab_start
                )
                slabs.append((slab_start, slab_len))
            if stop_prefix is not None and block_idx > first:
                first_key = self._block_first_keys[block_idx]
                if not first_key.startswith(stop_prefix) and first_key > stop_prefix:
                    break
        return slabs

    def iter_entries(
        self,
        start_key: bytes | None = None,
        category: str = CAT_STORE_READ,
        readahead_bytes: int = 1 << 20,
        prefetcher=None,
    ) -> Iterator[Entry]:
        """Sequential scan of all entries with key >= ``start_key``.

        Bypasses the block cache and reads the data region in
        ``readahead_bytes`` slabs — compaction and range scans are
        sequential with readahead, as in RocksDB.  When a ``prefetcher``
        (an object with ``take_slab(name, offset, length)``) is supplied,
        slabs it has already read in the background are consumed instead
        of re-read, paying only the residual wait.
        """
        if not self._block_offsets:
            return
        first = 0
        if start_key is not None:
            first = max(0, bisect_right(self._block_first_keys, start_key) - 1)
        slab = b""
        slab_start = 0
        for block_idx in range(first, len(self._block_offsets)):
            block_off, block_len = self._block_offsets[block_idx]
            if block_off + block_len > slab_start + len(slab):
                slab_start = block_off
                length = min(
                    max(readahead_bytes, block_len), self._data_len - slab_start
                )
                slab = None
                if prefetcher is not None:
                    slab = prefetcher.take_slab(self.name, slab_start, length)
                if slab is None:
                    slab = self._fs.read(
                        self.name, slab_start, length, category=category
                    )
            self._env.charge_cpu(category, block_len * self._env.cpu.block_decode_per_byte)
            entries = self._blocks[block_idx]
            if entries is None:
                raw = slab[block_off - slab_start : block_off - slab_start + block_len]
                try:
                    entries = self._blocks[block_idx] = decode_block(raw)
                except (ValueError, IndexError):
                    # Damaged block: stream the entries before the damage,
                    # then raise there, as a lazy scan meets it.
                    entries = iter_block(raw)
            for entry in entries:
                if start_key is not None and entry.key < start_key:
                    continue
                self._env.charge_cpu(category, self._env.cpu.branch_step)
                yield entry

    def overlaps(self, smallest: bytes, largest: bytes) -> bool:
        """Whether this table's key range intersects ``[smallest, largest]``."""
        return not (self.largest_key < smallest or largest < self.smallest_key)
