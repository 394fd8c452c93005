"""Read-Modify-Write (RMW) store (§4.3).

Incremental aggregation reads state on *every* tuple arrival, so read-time
prediction is pointless; what matters is O(1) access without the
synchronization machinery a concurrent store would need.  The store keeps:

* an in-memory **hash write buffer** of hot aggregates (dirty entries),
* an in-memory **hash index** mapping spilled (key, window) pairs to their
  exact (segment, offset, length) in the value log,
* rolling **log segments** on disk, compacted when space amplification
  exceeds the MSA threshold — like hash KV stores, but single-threaded by
  design (no epoch charges).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import StoreClosedError
from repro.kvstores.api import KIND_AGG, ExportedEntry, KeyGroupFn, StateExport
from repro.model import Window
from repro.serde.codec import decode_bytes, encode_bytes
from repro.simenv import (
    CAT_COMPACTION,
    CAT_MIGRATION,
    CAT_RECOVERY,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    SimEnv,
)
from repro.storage.filesystem import SimFileSystem


@dataclass
class _DiskLocation:
    segment: int
    offset: int
    length: int


@dataclass
class _Segment:
    segment_id: int
    file_name: str
    size: int = 0


class RmwStore:
    """One RMW store instance (one of ``m`` per physical operator)."""

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        name: str = "rmw",
        write_buffer_bytes: int = 2 << 20,
        max_space_amplification: float = 1.5,
        data_segment_bytes: int = 4 << 20,
    ) -> None:
        self._env = env
        self._fs = fs
        self._name = name
        self._write_buffer_bytes = write_buffer_bytes
        self._msa = max_space_amplification
        self._segment_bytes = data_segment_bytes

        # Hot aggregates, LRU order (oldest first); values are bytes.
        self._buffer: OrderedDict[tuple[bytes, Window], bytes] = OrderedDict()
        self._buffer_bytes = 0
        # Spilled aggregates: exact on-disk location per (key, window).
        self._index: dict[tuple[bytes, Window], _DiskLocation] = {}
        self._generation = 0
        self._segment_counter = 0
        self._segments: list[_Segment] = []
        self._total_data_bytes = 0
        self._live_data_bytes = 0
        self._closed = False
        self.compaction_count = 0

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        index_bytes = sum(len(k) + 48 for (k, _w) in self._index)
        return self._buffer_bytes + index_bytes

    @property
    def disk_bytes(self) -> int:
        return self._fs.total_bytes(self._name + "/")

    @property
    def space_amplification(self) -> float:
        if self._live_data_bytes <= 0:
            return 1.0 if self._total_data_bytes == 0 else float("inf")
        return self._total_data_bytes / self._live_data_bytes

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"RMW store {self._name} is closed")

    def _new_segment(self) -> _Segment:
        self._segment_counter += 1
        segment = _Segment(
            self._segment_counter,
            f"{self._name}/data_{self._generation:04d}_{self._segment_counter:06d}.log",
        )
        self._segments.append(segment)
        return segment

    def _current_segment(self) -> _Segment:
        if not self._segments or self._segments[-1].size >= self._segment_bytes:
            return self._new_segment()
        return self._segments[-1]

    @staticmethod
    def _entry_bytes(key: bytes, window: Window, value: bytes) -> int:
        return len(key) + 16 + len(value) + 16

    # ------------------------------------------------------------------
    # Listing 1: A Get(K, W)  /  void Put(K, W, A)
    # ------------------------------------------------------------------
    def get(self, key: bytes, window: Window) -> bytes | None:
        """Read the current aggregate (hash probe; disk read if spilled)."""
        self._check_open()
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.hash_probe)
        state_key = (key, window)
        value = self._buffer.get(state_key)
        if value is not None:
            self._buffer.move_to_end(state_key)
            return value
        location = self._index.get(state_key)
        if location is None:
            return None
        value = self._read_location(location, CAT_STORE_READ)
        # Promote to the write buffer (working set).
        self._admit(state_key, value, dirty=False)
        return value

    def put(self, key: bytes, window: Window, aggregate: bytes) -> None:
        """Write back the updated aggregate (in-memory; spilled under pressure)."""
        self._check_open()
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.hash_probe)
        self._admit((key, window), aggregate, dirty=True)

    def remove(self, key: bytes, window: Window) -> bytes | None:
        """Fetch & remove the aggregate (window trigger)."""
        self._check_open()
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.hash_probe)
        state_key = (key, window)
        value = self._buffer.pop(state_key, None)
        if value is not None:
            self._buffer_bytes -= self._entry_bytes(key, window, value)
        location = self._index.pop(state_key, None)
        if location is not None:
            if value is None:
                value = self._read_location(location, CAT_STORE_READ)
            self._live_data_bytes -= location.length
            self._maybe_compact()
        return value

    # ------------------------------------------------------------------
    def _admit(self, state_key: tuple[bytes, Window], value: bytes, dirty: bool) -> None:
        old = self._buffer.pop(state_key, None)
        if old is not None:
            self._buffer_bytes -= self._entry_bytes(state_key[0], state_key[1], old)
        self._buffer[state_key] = value
        self._buffer_bytes += self._entry_bytes(state_key[0], state_key[1], value)
        if dirty and state_key in self._index:
            # The on-disk copy is now stale.
            location = self._index.pop(state_key)
            self._live_data_bytes -= location.length
        if self._buffer_bytes >= self._write_buffer_bytes:
            self._spill()

    def _spill(self, target: int | None = None) -> None:
        """Flush the write buffer down to ``target`` bytes (default: half)."""
        if target is None:
            target = self._write_buffer_bytes // 2
        segment = self._current_segment()
        payload = bytearray()
        spilled: list[tuple[tuple[bytes, Window], int, int]] = []
        while self._buffer and self._buffer_bytes > target:
            state_key, value = self._buffer.popitem(last=False)
            key, window = state_key
            self._buffer_bytes -= self._entry_bytes(key, window, value)
            record = encode_bytes(key) + window.key_bytes() + encode_bytes(value)
            if segment.size + len(payload) + len(record) > self._segment_bytes and payload:
                self._flush_payload(segment, payload, spilled)
                segment = self._new_segment()
                payload = bytearray()
                spilled = []
            spilled.append((state_key, segment.size + len(payload), len(record)))
            payload += record
        if payload:
            self._flush_payload(segment, payload, spilled)
        self._maybe_compact()

    def _flush_payload(
        self,
        segment: _Segment,
        payload: bytearray,
        spilled: list[tuple[tuple[bytes, Window], int, int]],
    ) -> None:
        self._fs.append(segment.file_name, bytes(payload), category=CAT_STORE_WRITE)
        segment.size += len(payload)
        self._total_data_bytes += len(payload)
        for state_key, offset, length in spilled:
            stale = self._index.get(state_key)
            if stale is not None:
                self._live_data_bytes -= stale.length
            self._index[state_key] = _DiskLocation(segment.segment_id, offset, length)
            self._live_data_bytes += length

    def _read_location(self, location: _DiskLocation, category: str) -> bytes:
        segment_files = {seg.segment_id: seg.file_name for seg in self._segments}
        raw = self._fs.read(
            segment_files[location.segment], location.offset, location.length,
            category=category,
        )
        _key, pos = decode_bytes(raw, 0)
        pos += 16  # window bytes
        value, _pos = decode_bytes(raw, pos)
        return value

    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if self._total_data_bytes <= self._segment_bytes:
            return
        if self.space_amplification > self._msa:
            self._compact()

    def _compact(self) -> None:
        """Rewrite live spilled aggregates into a new generation."""
        self.compaction_count += 1
        self._env.bump("rmw_compactions")
        old_segments = {seg.segment_id: seg for seg in self._segments}
        live = sorted(
            self._index.items(), key=lambda kv: (kv[1].segment, kv[1].offset)
        )
        self._generation += 1
        self._segments = []
        self._total_data_bytes = 0
        self._live_data_bytes = 0
        segment = self._new_segment()
        payload = bytearray()
        pending: list[tuple[tuple[bytes, Window], int, int]] = []
        # Read each old segment sequentially once; slice live records out.
        needed = {loc.segment for _k, loc in live}
        segment_data = {
            seg_id: self._fs.read(old_segments[seg_id].file_name, category=CAT_COMPACTION)
            for seg_id in sorted(needed)
        }
        for state_key, location in live:
            raw = segment_data[location.segment][
                location.offset : location.offset + location.length
            ]
            if segment.size + len(payload) + len(raw) > self._segment_bytes and payload:
                self._commit_compact_payload(segment, payload, pending)
                segment = self._new_segment()
                payload = bytearray()
                pending = []
            pending.append((state_key, segment.size + len(payload), len(raw)))
            payload += raw
        if payload:
            self._commit_compact_payload(segment, payload, pending)
        for seg in old_segments.values():
            if self._fs.exists(seg.file_name):
                self._fs.delete(seg.file_name)

    def _commit_compact_payload(
        self,
        segment: _Segment,
        payload: bytearray,
        pending: list[tuple[tuple[bytes, Window], int, int]],
    ) -> None:
        self._fs.append(segment.file_name, bytes(payload), category=CAT_COMPACTION)
        segment.size += len(payload)
        self._total_data_bytes += len(payload)
        for state_key, offset, length in pending:
            self._index[state_key] = _DiskLocation(segment.segment_id, offset, length)
            self._live_data_bytes += length

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist nothing eagerly — RMW state stays hot in the buffer."""
        self._check_open()

    # ------------------------------------------------------------------
    # elastic rescaling
    # ------------------------------------------------------------------
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        """Extract the moved key-groups' aggregates (hot + spilled).

        Hot buffer entries leave directly; spilled ones need one indexed
        read each.  Dead log space left behind is reclaimed by normal
        compaction.
        """
        self._check_open()
        export = StateExport()
        for state_key in [sk for sk in self._buffer if key_group_of(sk[0]) in key_groups]:
            key, window = state_key
            value = self._buffer.pop(state_key)
            self._buffer_bytes -= self._entry_bytes(key, window, value)
            location = self._index.pop(state_key, None)
            if location is not None:
                self._live_data_bytes -= location.length
            export.entries.append(ExportedEntry(key, window, KIND_AGG, [value]))
        for state_key in [sk for sk in self._index if key_group_of(sk[0]) in key_groups]:
            key, window = state_key
            location = self._index.pop(state_key)
            value = self._read_location(location, CAT_MIGRATION)
            self._live_data_bytes -= location.length
            export.entries.append(ExportedEntry(key, window, KIND_AGG, [value]))
        if export.entries:
            self._maybe_compact()
        return export

    def import_state(self, export: StateExport) -> None:
        """Admit migrated aggregates into the write buffer (hot on arrival)."""
        self._check_open()
        for entry in export.entries:
            self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.hash_probe)
            self._admit((entry.key, entry.window), entry.values[0], dirty=True)

    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Read — *without removing* — the selected key-groups' aggregates.

        The sharded checkpointer's path: hot buffer values are copied
        out directly; spilled-only aggregates take one indexed read each
        (charged as recovery).  Buffer, index, and log space all stay
        untouched.
        """
        self._check_open()
        export = StateExport()

        def wanted(key: bytes) -> bool:
            return key_groups is None or key_group_of(key) in key_groups

        for state_key, value in self._buffer.items():
            if not wanted(state_key[0]):
                continue
            self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.hash_probe)
            export.entries.append(
                ExportedEntry(state_key[0], state_key[1], KIND_AGG, [value])
            )
        for state_key, location in self._index.items():
            if state_key in self._buffer or not wanted(state_key[0]):
                continue
            value = self._read_location(location, CAT_RECOVERY)
            export.entries.append(
                ExportedEntry(state_key[0], state_key[1], KIND_AGG, [value])
            )
        return export

    # ------------------------------------------------------------------
    # checkpointing (§8)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Spill every hot aggregate, then capture logs + hash index.

        Spill-first matches the paper's prescription (and Flink's
        RocksDB strategy): on-disk data can then be transferred
        asynchronously while writes continue in memory.
        """
        from repro.snapshot import StoreSnapshot, copy_files_out, pack_meta, seal_snapshot

        self._check_open()
        self._spill(target=0)
        meta = pack_meta(
            self._env,
            {
                "index": {
                    key: (loc.segment, loc.offset, loc.length)
                    for key, loc in self._index.items()
                },
                "generation": self._generation,
                "segment_counter": self._segment_counter,
                "segments": [
                    (seg.segment_id, seg.file_name, seg.size) for seg in self._segments
                ],
                "total_data_bytes": self._total_data_bytes,
                "live_data_bytes": self._live_data_bytes,
            },
        )
        files = copy_files_out(self._fs, self._name + "/")
        return seal_snapshot(self._env, StoreSnapshot("rmw", meta, files))

    def restore(self, snapshot) -> None:
        from repro.errors import StoreRestoreError
        from repro.snapshot import copy_files_in, unpack_meta, verify_snapshot

        self._check_open()
        verify_snapshot(self._env, snapshot)
        if self._buffer or self._index or self._segments:
            raise StoreRestoreError(f"restore into non-empty rmw store {self._name}")
        copy_files_in(self._env, self._fs, snapshot.files)
        state = unpack_meta(self._env, snapshot.meta)
        self._index = {
            key: _DiskLocation(segment, offset, length)
            for key, (segment, offset, length) in state["index"].items()
        }
        self._generation = state["generation"]
        self._segment_counter = state["segment_counter"]
        self._segments = [
            _Segment(seg_id, file_name, size)
            for seg_id, file_name, size in state["segments"]
        ]
        self._total_data_bytes = state["total_data_bytes"]
        self._live_data_bytes = state["live_data_bytes"]
        self._buffer.clear()
        self._buffer_bytes = 0

    def close(self) -> None:
        self._closed = True
        self._buffer.clear()
        self._index.clear()
