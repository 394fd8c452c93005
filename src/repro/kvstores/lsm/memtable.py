"""Sorted memtable with merge-operand support.

Physically a dict of per-key entry lists plus a lazily sorted key view;
cost-wise each insert charges the O(log n) comparisons a skiplist would
perform, so the simulated CPU profile matches RocksDB's memtable while the
Python implementation stays O(1) per insert.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.kvstores.lsm.format import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_PUT,
    Entry,
    merge_entries,
)
from repro.simenv import CAT_STORE_READ, CAT_STORE_WRITE, SimEnv

_ENTRY_OVERHEAD = 32  # per-entry node/pointer overhead in the skiplist


class MemTable:
    """An in-memory, logically sorted write buffer of versioned entries."""

    def __init__(self, env: SimEnv) -> None:
        self._env = env
        self._entries: dict[bytes, list[Entry]] = {}  # newest last per key
        self._bytes = 0
        self._count = 0

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    @property
    def entry_count(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    def _charge_insert(self, entry: Entry) -> None:
        # A skiplist insert costs ~log2(n) comparisons plus node allocation.
        self._env.charge_cpu(
            CAT_STORE_WRITE,
            self._env.cpu.sorted_search(max(1, self._count)) + self._env.cpu.allocation,
        )
        self._bytes += len(entry.key) + len(entry.value) + _ENTRY_OVERHEAD

    def add(self, entry: Entry) -> None:
        self._charge_insert(entry)
        self._entries.setdefault(entry.key, []).append(entry)
        self._count += 1

    def put(self, key: bytes, seq: int, value: bytes) -> None:
        self.add(Entry(key, seq, KIND_PUT, value))

    def merge(self, key: bytes, seq: int, operand: bytes) -> None:
        self.add(Entry(key, seq, KIND_MERGE, operand))

    def delete(self, key: bytes, seq: int) -> None:
        self.add(Entry(key, seq, KIND_DELETE))

    def get_versions(self, key: bytes) -> list[Entry]:
        """All versions of ``key``, newest first (search cost charged)."""
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.sorted_search(max(1, self._count)))
        versions = self._entries.get(key)
        return versions[::-1] if versions else []

    def get_merged(self, key: bytes) -> Entry | None:
        """The collapsed view of ``key`` within this memtable only."""
        versions = self.get_versions(key)
        if not versions:
            return None
        self._env.charge_cpu(CAT_STORE_READ, len(versions) * self._env.cpu.merge_per_entry)
        return merge_entries(versions)

    def iter_sorted(self) -> Iterator[Entry]:
        """All entries in (key, seq-descending) order, for flush/scan.

        Sorting cost was already charged per insert (skiplist model), so
        iteration charges only the per-entry visit cost.
        """
        for key in sorted(self._entries):
            versions = self._entries[key]
            self._env.charge_cpu(CAT_STORE_READ, len(versions) * self._env.cpu.branch_step)
            yield from reversed(versions)

    def is_empty(self) -> bool:
        return self._count == 0
