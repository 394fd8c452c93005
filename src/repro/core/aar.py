"""Append and Aligned Read (AAR) store (§4.1).

Exploits the fact that windows of all keys share identical trigger times:

* **coarse-grained data organization** — the in-memory write buffer hashes
  tuples by *window boundary* (not by key), and each window boundary gets
  its own on-disk log file; a trigger reads exactly one file,
* **gradual state loading** — ``get_window`` yields the window's state in
  bounded partitions so only one non-aggregated slab is in memory,
* **no compaction** — a window's log file is simply deleted once read.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import StoreClosedError
from repro.kvstores.api import KIND_LIST, ExportedEntry, KeyGroupFn, StateExport
from repro.model import Window
from repro.serde.codec import decode_bytes, encode_bytes
from repro.simenv import (
    CAT_MIGRATION,
    CAT_RECOVERY,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    SimEnv,
)
from repro.storage.filesystem import SimFileSystem


class AarStore:
    """One AAR store instance (one of ``m`` per physical operator)."""

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        name: str = "aar",
        write_buffer_bytes: int = 2 << 20,
        read_chunk_bytes: int = 2 << 20,
        coarse_grained: bool = True,
    ) -> None:
        self._env = env
        self._fs = fs
        self._name = name
        self._write_buffer_bytes = write_buffer_bytes
        self._read_chunk_bytes = read_chunk_bytes
        # Ablation knob: when False, flushes write one I/O request per
        # (key, window) group instead of one per window bucket — the
        # fine-grained organization of naive KV stores (§4.1).
        self._coarse_grained = coarse_grained
        # Window boundary -> list of encoded (key, value) pairs.
        self._buffer: dict[Window, list[tuple[bytes, bytes]]] = {}
        self._buffer_bytes = 0
        self._flushed_windows: set[Window] = set()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self._buffer_bytes

    @property
    def disk_bytes(self) -> int:
        return self._fs.total_bytes(self._name + "/")

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"AAR store {self._name} is closed")

    def _file_for(self, window: Window) -> str:
        return f"{self._name}/w_{window.key_bytes().hex()}.log"

    # ------------------------------------------------------------------
    # Listing 1: void Append(K, V, W)
    # ------------------------------------------------------------------
    def append(self, key: bytes, value: bytes, window: Window) -> None:
        """Append a KV tuple to its window's hash bucket.

        The bucket is labelled by the window boundary — tuples of *all*
        keys in one window share one bucket (coarse-grained organization).
        """
        self._check_open()
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.hash_probe)
        bucket = self._buffer.get(window)
        if bucket is None:
            bucket = []
            self._buffer[window] = bucket
            self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.allocation)
        bucket.append((key, value))
        self._buffer_bytes += len(key) + len(value) + 16
        if self._buffer_bytes >= self._write_buffer_bytes:
            self.flush()

    def flush(self) -> None:
        """Append each bucket to its per-window log file (one I/O each)."""
        self._check_open()
        for window, bucket in self._buffer.items():
            if self._coarse_grained:
                payload = bytearray()
                for key, value in bucket:
                    payload += encode_bytes(key)
                    payload += encode_bytes(value)
                self._fs.append(
                    self._file_for(window), bytes(payload), category=CAT_STORE_WRITE
                )
            else:
                # Fine-grained ablation: group by key, one request each.
                per_key: dict[bytes, bytearray] = {}
                for key, value in bucket:
                    group = per_key.setdefault(key, bytearray())
                    group += encode_bytes(key)
                    group += encode_bytes(value)
                for group in per_key.values():
                    self._fs.append(
                        self._file_for(window), bytes(group), category=CAT_STORE_WRITE
                    )
            self._flushed_windows.add(window)
        self._buffer.clear()
        self._buffer_bytes = 0

    # ------------------------------------------------------------------
    # Listing 1: Iterable<(K, List<V>)> GetWindow(W)
    # ------------------------------------------------------------------
    def get_window(self, window: Window) -> Iterator[tuple[bytes, list[bytes]]]:
        """Fetch & remove the window's state, loaded gradually.

        Reads the window's log file in ``read_chunk_bytes`` partitions;
        within each partition, values are grouped by key.  A key whose
        tuples span partitions is yielded once per partition — the SPE
        aggregates partitions sequentially (gradual state loading).  The
        log file is deleted after the last partition.
        """
        self._check_open()
        file_name = self._file_for(window)
        on_disk = window in self._flushed_windows and self._fs.exists(file_name)
        if on_disk:
            size = self._fs.size(file_name)
            offset = 0
            carry = b""
            while offset < size:
                chunk = self._fs.read(
                    file_name,
                    offset,
                    self._read_chunk_bytes,
                    category=CAT_STORE_READ,
                )
                offset += len(chunk)
                data = carry + chunk
                consumed, grouped = self._parse_records(data, complete=offset >= size)
                carry = data[consumed:]
                if grouped:
                    yield from grouped.items()
            self._fs.delete(file_name)
            self._flushed_windows.discard(window)
        # In-memory buffered tuples of this window form the final partition.
        bucket = self._buffer.pop(window, None)
        if bucket:
            self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.hash_probe)
            grouped: dict[bytes, list[bytes]] = {}
            for key, value in bucket:
                self._buffer_bytes -= len(key) + len(value) + 16
                grouped.setdefault(key, []).append(value)
            yield from grouped.items()

    def _parse_records(
        self, data: bytes, complete: bool, category: str = CAT_STORE_READ
    ) -> tuple[int, dict[bytes, list[bytes]]]:
        """Parse whole (key, value) records from ``data``.

        Returns ``(bytes_consumed, {key: [values]})``; a trailing partial
        record is left for the next chunk unless ``complete``.
        """
        grouped: dict[bytes, list[bytes]] = {}
        pos = 0
        n_records = 0
        while pos < len(data):
            try:
                key, next_pos = decode_bytes(data, pos)
                value, next_pos = decode_bytes(data, next_pos)
            except ValueError:
                if complete:
                    raise
                break
            grouped.setdefault(key, []).append(value)
            pos = next_pos
            n_records += 1
        self._env.charge_cpu(
            category,
            n_records * self._env.cpu.hash_probe + pos * self._env.cpu.block_decode_per_byte,
        )
        return pos, grouped

    # ------------------------------------------------------------------
    # elastic rescaling
    # ------------------------------------------------------------------
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        """Extract the moved key-groups from every live window.

        AAR files are bucketed by *window*, not by key, so each per-window
        log must be read back in full, split by key-group, and the kept
        remainder rewritten — the price of coarse-grained organization,
        paid only at rescale time.
        """
        self._check_open()
        self.flush()
        export = StateExport()
        for window in sorted(self._flushed_windows, key=lambda w: w.key_bytes()):
            file_name = self._file_for(window)
            if not self._fs.exists(file_name):
                continue
            data = self._fs.read(
                file_name, 0, self._fs.size(file_name), category=CAT_MIGRATION
            )
            _consumed, grouped = self._parse_records(
                data, complete=True, category=CAT_MIGRATION
            )
            kept = bytearray()
            for key, values in grouped.items():
                if key_group_of(key) in key_groups:
                    export.entries.append(ExportedEntry(key, window, KIND_LIST, values))
                else:
                    for value in values:
                        kept += encode_bytes(key)
                        kept += encode_bytes(value)
            self._fs.delete(file_name)
            if kept:
                self._fs.append(file_name, bytes(kept), category=CAT_MIGRATION)
            else:
                self._flushed_windows.discard(window)
        return export

    def import_state(self, export: StateExport) -> None:
        """Append migrated entries straight into the per-window logs."""
        self._check_open()
        for entry in export.entries:
            payload = bytearray()
            for value in entry.values:
                payload += encode_bytes(entry.key)
                payload += encode_bytes(value)
            self._fs.append(
                self._file_for(entry.window), bytes(payload), category=CAT_MIGRATION
            )
            self._flushed_windows.add(entry.window)

    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Read — *without removing* — the selected key-groups' state.

        The sharded checkpointer's path: per-window logs are read back
        in full (charged as recovery) and split by key-group, but the
        files, the flushed-window set, and the write buffer all stay
        untouched.  Values keep ``get_window`` order: disk records first,
        then buffered tuples.
        """
        self._check_open()
        grouped_all: dict[Window, dict[bytes, list[bytes]]] = {}
        for window in sorted(self._flushed_windows, key=lambda w: w.key_bytes()):
            file_name = self._file_for(window)
            if not self._fs.exists(file_name):
                continue
            data = self._fs.read(
                file_name, 0, self._fs.size(file_name), category=CAT_RECOVERY
            )
            _consumed, grouped = self._parse_records(
                data, complete=True, category=CAT_RECOVERY
            )
            grouped_all[window] = grouped
        for window, bucket in self._buffer.items():
            grouped = grouped_all.setdefault(window, {})
            for key, value in bucket:
                grouped.setdefault(key, []).append(value)
        export = StateExport()
        for window in sorted(grouped_all, key=lambda w: w.key_bytes()):
            for key, values in grouped_all[window].items():
                if key_groups is not None and key_group_of(key) not in key_groups:
                    continue
                export.entries.append(ExportedEntry(key, window, KIND_LIST, values))
        return export

    # ------------------------------------------------------------------
    def drop_window(self, window: Window) -> None:
        """Discard a window without reading it (late-data cleanup)."""
        self._check_open()
        bucket = self._buffer.pop(window, None)
        if bucket:
            self._buffer_bytes -= sum(len(k) + len(v) + 16 for k, v in bucket)
        file_name = self._file_for(window)
        if window in self._flushed_windows and self._fs.exists(file_name):
            self._fs.delete(file_name)
        self._flushed_windows.discard(window)

    # ------------------------------------------------------------------
    # checkpointing (§8)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Flush, then capture per-window log files + window metadata."""
        from repro.snapshot import StoreSnapshot, copy_files_out, pack_meta, seal_snapshot

        self._check_open()
        self.flush()
        meta = pack_meta(self._env, {"flushed_windows": set(self._flushed_windows)})
        files = copy_files_out(self._fs, self._name + "/")
        return seal_snapshot(self._env, StoreSnapshot("aar", meta, files))

    def restore(self, snapshot) -> None:
        """Load a verified snapshot into this fresh (empty) instance."""
        from repro.errors import StoreRestoreError
        from repro.snapshot import copy_files_in, unpack_meta, verify_snapshot

        self._check_open()
        verify_snapshot(self._env, snapshot)
        if self._buffer or self._flushed_windows or self._fs.list_files(self._name + "/"):
            raise StoreRestoreError(f"restore into non-empty aar store {self._name}")
        copy_files_in(self._env, self._fs, snapshot.files)
        state = unpack_meta(self._env, snapshot.meta)
        self._flushed_windows = set(state["flushed_windows"])
        self._buffer.clear()
        self._buffer_bytes = 0

    def close(self) -> None:
        self._closed = True
        self._buffer.clear()
        self._buffer_bytes = 0
