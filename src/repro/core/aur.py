"""Append and Unaligned Read (AUR) store (§4.2).

Windows of different keys trigger at different times (session windows), so
the AUR store:

* buffers tuples by ``(key, initial window boundary)`` in memory,
* flushes to a **global data log** (rolling segment files) plus an
  **append-only index log** holding ``(key, window, segment, offset,
  length)`` entries — indexes live on disk, not in memory,
* maintains an in-memory **Stat table** of estimated trigger times (ETTs),
  updated on every tuple arrival by the window function's predictor,
* serves reads through **predictive batch read**: a miss scans the index
  log once, then loads the requested window *and* the N windows closest to
  their ETTs into the prefetch buffer with coalesced reads,
* **evicts** prefetched state when a prediction turns out wrong (a new
  tuple extends the session), re-reading it later — Equation 1's
  read amplification ``1/r``,
* runs **compaction integrated with the index scan**: the same pass that
  locates prefetch candidates detects dead bytes, and when space
  amplification exceeds MSA the live ranges are moved to a new generation
  with zero-copy transfers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import StoreClosedError
from repro.core.ett import EttPredictor
from repro.kvstores.api import KIND_LIST, ExportedEntry, KeyGroupFn, StateExport
from repro.model import Window
from repro.serde.codec import (
    decode_bytes,
    decode_varint,
    encode_bytes,
    encode_varint,
)
from repro.simenv import (
    CAT_COMPACTION,
    CAT_MIGRATION,
    CAT_RECOVERY,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    SimEnv,
)
from repro.storage.filesystem import SimFileSystem

_COALESCE_GAP_BYTES = 64 << 10  # merge reads separated by less than this
_REWRITE_THRESHOLD = 0.25  # segments below this live fraction are rewritten


@dataclass
class _WindowStat:
    """Per-(key, window) in-memory statistics (the Stat table row).

    ``epoch`` counts how many times this (key, window) identity has been
    consumed before: index entries written at an older epoch are dead
    even though the identity is live again (late data re-using a window).
    """

    ett: float | None = None
    disk_bytes: int = 0
    disk_entries: int = 0
    epoch: int = 0


@dataclass
class _IndexEntry:
    key: bytes
    window: Window
    segment: int
    offset: int
    length: int
    n_values: int = 0
    epoch: int = 0
    seq: int = 0  # logical write order: survives segment relocation

    def encode(self) -> bytes:
        return (
            encode_bytes(self.key)
            + self.window.key_bytes()
            + encode_varint(self.segment)
            + encode_varint(self.offset)
            + encode_varint(self.length)
            + encode_varint(self.n_values)
            + encode_varint(self.epoch)
            + encode_varint(self.seq)
        )

    @staticmethod
    def decode(data: bytes, pos: int) -> tuple["_IndexEntry", int]:
        key, pos = decode_bytes(data, pos)
        window = Window.from_key_bytes(data, pos)
        pos += 16
        segment, pos = decode_varint(data, pos)
        offset, pos = decode_varint(data, pos)
        length, pos = decode_varint(data, pos)
        n_values, pos = decode_varint(data, pos)
        epoch, pos = decode_varint(data, pos)
        seq, pos = decode_varint(data, pos)
        return _IndexEntry(
            key, window, segment, offset, length, n_values, epoch, seq
        ), pos


@dataclass
class _Segment:
    segment_id: int
    file_name: str
    size: int = 0


@dataclass
class PrefetchStats:
    """Counters behind Figure 11(b)'s hit ratio."""

    loads: int = 0  # (key, window) states loaded by batch reads
    hits: int = 0  # loaded states that were read before eviction
    evictions: int = 0  # loaded states evicted on misprediction
    direct_reads: int = 0  # misses served without prefetch (ratio 0 / no ETT)
    index_scans: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.loads if self.loads else 0.0


class AurStore:
    """One AUR store instance (one of ``m`` per physical operator)."""

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        predictor: EttPredictor,
        name: str = "aur",
        write_buffer_bytes: int = 2 << 20,
        read_batch_ratio: float = 0.02,
        max_space_amplification: float = 1.5,
        data_segment_bytes: int = 4 << 20,
        prefetch_buffer_bytes: int = 16 << 20,
        integrated_compaction: bool = True,
    ) -> None:
        self._env = env
        self._fs = fs
        self._predictor = predictor
        self._name = name
        self._write_buffer_bytes = write_buffer_bytes
        self._read_batch_ratio = read_batch_ratio
        self._msa = max_space_amplification
        self._segment_bytes = data_segment_bytes
        self._prefetch_capacity = prefetch_buffer_bytes
        # Ablation knob: when False, compaction re-scans the index log
        # instead of reusing the batch read's scan (§4.2 argues the
        # integrated design saves exactly this second scan).
        self._integrated_compaction = integrated_compaction

        self._buffer: dict[tuple[bytes, Window], list[bytes]] = {}
        self._buffer_bytes = 0
        self._stat: dict[tuple[bytes, Window], _WindowStat] = {}
        self._prefetch: dict[tuple[bytes, Window], list[bytes]] = {}
        self._prefetch_bytes = 0
        # (key, window bytes) -> first live epoch: entries written at an
        # earlier epoch were already fetched & removed.
        self._consumed: dict[tuple[bytes, bytes], int] = {}

        self._generation = 0
        self._segment_counter = 0
        self._entry_seq = 0
        self._segments: list[_Segment] = []
        self._total_data_bytes = 0
        self._live_data_bytes = 0
        self._event_time = float("-inf")
        self._closed = False

        self.prefetch_stats = PrefetchStats()
        self.compaction_count = 0

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        stat_bytes = len(self._stat) * 64
        return self._buffer_bytes + self._prefetch_bytes + stat_bytes

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
            raise StoreClosedError(f"AUR store {self._name} is closed")

    def _index_file(self) -> str:
        return f"{self._name}/index_{self._generation:04d}.log"

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

    # ------------------------------------------------------------------
    # Listing 1: void Append(K, V, W, T)
    # ------------------------------------------------------------------
    def append(self, key: bytes, value: bytes, window: Window, timestamp: float) -> None:
        """Append a tuple and update the window's ETT.

        ``window`` must be the *initial* window boundary, fixed when the
        window was first created (§4.2) — session merging at the engine
        level keeps writing under the initial boundary.
        """
        self._check_open()
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.hash_probe)
        state_key = (key, window)
        self._buffer.setdefault(state_key, []).append(value)
        self._buffer_bytes += len(key) + len(value) + 16
        if timestamp > self._event_time:
            self._event_time = timestamp
        # Update the Stat table's ETT.
        stat = self._stat.get(state_key)
        if stat is None:
            stat = _WindowStat(
                epoch=self._consumed.get((key, window.key_bytes()), 0)
            )
            self._stat[state_key] = stat
            self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.allocation)
        stat.ett = self._predictor.update(window, timestamp, stat.ett)
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.hash_probe)
        # Misprediction: state was prefetched but the window just grew.
        if state_key in self._prefetch:
            evicted = self._prefetch.pop(state_key)
            self._prefetch_bytes -= sum(len(v) for v in evicted)
            self.prefetch_stats.evictions += 1
        if self._buffer_bytes >= self._write_buffer_bytes:
            self.flush()

    def flush(self) -> None:
        """Flush the write buffer: data records + index entries (§4.2 ③)."""
        self._check_open()
        if not self._buffer:
            return
        index_payload = bytearray()
        segment = self._current_segment()
        segment_payload = bytearray()
        for (key, window), values in self._buffer.items():
            # A prefetched window gaining new on-disk entries would leave
            # the prefetch buffer stale: evict it (re-read on trigger).
            prefetched = self._prefetch.pop((key, window), None)
            if prefetched is not None:
                self._prefetch_bytes -= sum(len(v) for v in prefetched)
                self.prefetch_stats.evictions += 1
            record = bytearray()
            for value in values:
                record += encode_bytes(value)
            if segment.size + len(segment_payload) + len(record) > self._segment_bytes and segment_payload:
                self._write_segment_payload(segment, segment_payload)
                segment = self._new_segment()
                segment_payload = bytearray()
            stat = self._stat.get((key, window))
            self._entry_seq += 1
            entry = _IndexEntry(
                key, window, segment.segment_id,
                segment.size + len(segment_payload), len(record), len(values),
                epoch=stat.epoch if stat is not None else 0,
                seq=self._entry_seq,
            )
            segment_payload += record
            index_payload += entry.encode()
            if stat is not None:
                stat.disk_bytes += len(record)
                stat.disk_entries += 1
            self._live_data_bytes += len(record)
        if segment_payload:
            self._write_segment_payload(segment, segment_payload)
        self._fs.append(self._index_file(), bytes(index_payload), category=CAT_STORE_WRITE)
        self._buffer.clear()
        self._buffer_bytes = 0

    def _write_segment_payload(
        self, segment: _Segment, payload: bytearray, category: str = CAT_STORE_WRITE
    ) -> None:
        self._fs.append(segment.file_name, bytes(payload), category=category)
        segment.size += len(payload)
        self._total_data_bytes += len(payload)

    # ------------------------------------------------------------------
    # Listing 1: List<V> Get(K, W)
    # ------------------------------------------------------------------
    def get(self, key: bytes, window: Window) -> list[bytes]:
        """Fetch & remove all values of ``(key, window)``.

        Checks the prefetch buffer first; on a miss, runs a predictive
        batch read (or a direct indexed read when prefetching is disabled
        or the window has no ETT).
        """
        self._check_open()
        state_key = (key, window)
        self._env.charge_cpu(CAT_STORE_READ, 2 * self._env.cpu.hash_probe)
        stat = self._stat.pop(state_key, None)
        disk_values: list[bytes] = []
        if state_key in self._prefetch:
            disk_values = self._prefetch.pop(state_key)
            self._prefetch_bytes -= sum(len(v) for v in disk_values)
            self.prefetch_stats.hits += 1
        elif stat is not None and stat.disk_entries > 0:
            disk_values = self._read_from_disk(state_key, stat)
        # Mark on-disk state dead and account space amplification.
        if stat is not None and stat.disk_entries > 0:
            self._consumed[(key, window.key_bytes())] = stat.epoch + 1
            self._live_data_bytes -= stat.disk_bytes
        buffered = self._buffer.pop(state_key, None)
        if buffered:
            self._buffer_bytes -= sum(len(key) + len(v) + 16 for v in buffered)
            disk_values.extend(buffered)
        return disk_values

    def _read_from_disk(
        self, state_key: tuple[bytes, Window], stat: _WindowStat
    ) -> list[bytes]:
        """Index-scan then batch-read path (predictive batch read, §4.2 ④-⑦)."""
        live_entries = self._scan_index()
        live_entries = self._maybe_compact(live_entries)
        targets = self._select_prefetch_targets(state_key, live_entries)
        loaded = self._batch_read(targets, live_entries)
        values = loaded.pop(state_key, [])
        # Everything else goes to the prefetch buffer.
        for other_key, other_values in loaded.items():
            size = sum(len(v) for v in other_values)
            if self._prefetch_bytes + size > self._prefetch_capacity:
                continue
            self._prefetch[other_key] = other_values
            self._prefetch_bytes += size
            self.prefetch_stats.loads += 1
        return values

    def _scan_index(
        self, category: str = CAT_STORE_READ
    ) -> dict[tuple[bytes, Window], list[_IndexEntry]]:
        """One sequential pass over the on-disk index log (§4.2 ⑤).

        Returns live entries grouped by (key, window); consumed entries
        are recognized and skipped — the same pass feeds compaction.
        """
        self.prefetch_stats.index_scans += 1
        self._env.bump("aur_index_scans")
        index_file = self._index_file()
        if not self._fs.exists(index_file):
            return {}
        raw = self._fs.read(index_file, category=category)
        self._env.charge_cpu(
            category, len(raw) * self._env.cpu.block_decode_per_byte
        )
        live: dict[tuple[bytes, Window], list[_IndexEntry]] = {}
        pos = 0
        while pos < len(raw):
            entry, pos = _IndexEntry.decode(raw, pos)
            self._env.charge_cpu(category, self._env.cpu.branch_step)
            if entry.epoch < self._consumed.get(
                (entry.key, entry.window.key_bytes()), 0
            ):
                continue  # dead: already fetched & removed at this epoch
            live.setdefault((entry.key, entry.window), []).append(entry)
        return live

    def _select_prefetch_targets(
        self,
        requested: tuple[bytes, Window],
        live_entries: dict[tuple[bytes, Window], list[_IndexEntry]],
    ) -> set[tuple[bytes, Window]]:
        """The requested window plus the N ETT-smallest windows (§4.2)."""
        targets = {requested}
        if self._read_batch_ratio <= 0.0:
            self.prefetch_stats.direct_reads += 1
            return targets
        n_known = len(self._stat)
        batch_n = int(self._read_batch_ratio * n_known)
        if batch_n <= 0:
            self.prefetch_stats.direct_reads += 1
            return targets
        candidates = [
            (stat.ett, state_key)
            for state_key, stat in self._stat.items()
            if stat.ett is not None
            and state_key in live_entries
            and state_key not in self._prefetch
        ]
        self._env.charge_cpu(
            CAT_STORE_READ,
            len(candidates) * self._env.cpu.key_compare * max(1, batch_n).bit_length(),
        )
        soonest = heapq.nsmallest(batch_n, candidates)
        targets.update(state_key for _ett, state_key in soonest)
        return targets

    def _batch_read(
        self,
        targets: set[tuple[bytes, Window]],
        live_entries: dict[tuple[bytes, Window], list[_IndexEntry]],
        category: str = CAT_STORE_READ,
    ) -> dict[tuple[bytes, Window], list[bytes]]:
        """Coalesced device reads of all targets' data ranges (§4.2 ⑥)."""
        wanted: list[tuple[int, int, int, tuple[bytes, Window], int]] = []
        for state_key in targets:
            for entry in live_entries.get(state_key, []):
                wanted.append(
                    (entry.segment, entry.offset, entry.length, state_key, entry.seq)
                )
        wanted.sort()  # device order for coalesced sequential reads
        sequenced: dict[tuple[bytes, Window], list[tuple[int, list[bytes]]]] = {}
        segment_files = {seg.segment_id: seg.file_name for seg in self._segments}
        run: list[tuple[int, int, int, tuple[bytes, Window], int]] = []

        def flush_run() -> None:
            if not run:
                return
            seg_id = run[0][0]
            start = run[0][1]
            end = run[-1][1] + run[-1][2]
            data = self._fs.read(
                segment_files[seg_id], start, end - start, category=category
            )
            self._env.charge_cpu(
                category, len(data) * self._env.cpu.block_decode_per_byte
            )
            for _seg, offset, length, state_key, seq in run:
                record = data[offset - start : offset - start + length]
                values: list[bytes] = []
                pos = 0
                while pos < len(record):
                    value, pos = decode_bytes(record, pos)
                    values.append(value)
                sequenced.setdefault(state_key, []).append((seq, values))
            run.clear()

        for item in wanted:
            if run and (
                item[0] != run[-1][0]
                or item[1] - (run[-1][1] + run[-1][2]) > _COALESCE_GAP_BYTES
            ):
                flush_run()
            run.append(item)
        flush_run()
        # Reassemble each window's values in logical write order (entry
        # sequence), which segment relocation during compaction may have
        # decoupled from device order.
        results: dict[tuple[bytes, Window], list[bytes]] = {}
        for state_key, chunks in sequenced.items():
            chunks.sort(key=lambda pair: pair[0])
            flat: list[bytes] = []
            for _seq, values in chunks:
                flat.extend(values)
            results[state_key] = flat
        return results

    # ------------------------------------------------------------------
    # integrated compaction (§4.2 ⑦)
    # ------------------------------------------------------------------
    def _maybe_compact(
        self, live_entries: dict[tuple[bytes, Window], list[_IndexEntry]]
    ) -> dict[tuple[bytes, Window], list[_IndexEntry]]:
        if self._total_data_bytes <= 0 or self.space_amplification <= self._msa:
            return live_entries
        if not self._integrated_compaction:
            # Ablation: a separate compaction pass pays its own index scan.
            live_entries = self._scan_index()
        return self._compact(live_entries)

    def _compact(
        self, live_entries: dict[tuple[bytes, Window], list[_IndexEntry]]
    ) -> dict[tuple[bytes, Window], list[_IndexEntry]]:
        """Garbage-collect dead log space, segment by segment.

        Reuses the index scan that predictive batch read already performed
        — no extra scan is made (the paper's integrated design, §4.2 ⑦).
        Per-segment liveness is computed from the scanned entries; then:

        * fully dead segments are deleted outright (no data movement),
        * sparse segments (live fraction < ``_REWRITE_THRESHOLD``) have
          their live ranges moved to fresh segments with zero-copy
          transfers,
        * healthy segments are kept untouched,
        * a fresh index log holding only live entries replaces the old
          one, which also empties the consumed-entry set.
        """
        self.compaction_count += 1
        self._env.bump("aur_compactions")
        old_index = self._index_file()
        per_segment_live: dict[int, int] = {}
        for entries in live_entries.values():
            for entry in entries:
                per_segment_live[entry.segment] = (
                    per_segment_live.get(entry.segment, 0) + entry.length
                )
        active_tail = self._segments[-1] if self._segments else None
        keep: list[_Segment] = []
        rewrite: dict[int, _Segment] = {}
        for seg in self._segments:
            live = per_segment_live.get(seg.segment_id, 0)
            if seg is active_tail or live >= seg.size * _REWRITE_THRESHOLD:
                keep.append(seg)
            elif live == 0:
                self._total_data_bytes -= seg.size
                self._fs.delete(seg.file_name)
            else:
                rewrite[seg.segment_id] = seg

        self._generation += 1
        self._segments = keep

        # Move live ranges of sparse segments, coalescing adjacent ones.
        flat: list[tuple[int, int, int, tuple[bytes, Window], int]] = []
        for state_key, entries in live_entries.items():
            for idx, entry in enumerate(entries):
                if entry.segment in rewrite:
                    flat.append((entry.segment, entry.offset, entry.length, state_key, idx))
        flat.sort()
        segment = self._new_segment() if flat else None
        run: list[tuple[int, int, int, tuple[bytes, Window], int]] = []

        def flush_run() -> None:
            nonlocal segment
            if not run:
                return
            seg_id = run[0][0]
            start = run[0][1]
            end = run[-1][1] + run[-1][2]
            length = end - start
            if segment.size + length > self._segment_bytes and segment.size > 0:
                segment = self._new_segment()
            dst_offset = self._fs.zero_copy_transfer(
                rewrite[seg_id].file_name, start, length, segment.file_name,
                category=CAT_COMPACTION,
            )
            segment.size += length
            self._total_data_bytes += length
            for _seg, offset, rec_len, state_key, idx in run:
                old_entry = live_entries[state_key][idx]
                live_entries[state_key][idx] = _IndexEntry(
                    state_key[0], state_key[1], segment.segment_id,
                    dst_offset + (offset - start), rec_len,
                    epoch=old_entry.epoch,
                    seq=old_entry.seq,
                )
            run.clear()

        for item in flat:
            if run and (
                item[0] != run[-1][0]
                or item[1] - (run[-1][1] + run[-1][2]) > _COALESCE_GAP_BYTES
            ):
                flush_run()
            run.append(item)
        flush_run()
        for seg in rewrite.values():
            self._total_data_bytes -= seg.size
            self._fs.delete(seg.file_name)

        # Fresh index log with only the (relocated) live entries.
        index_payload = bytearray()
        for entries in live_entries.values():
            for entry in entries:
                index_payload.extend(entry.encode())
        self._fs.append(self._index_file(), bytes(index_payload), category=CAT_COMPACTION)
        if self._fs.exists(old_index):
            self._fs.delete(old_index)
        self._consumed.clear()
        self._live_data_bytes = sum(
            entry.length for entries in live_entries.values() for entry in entries
        )
        return live_entries

    # ------------------------------------------------------------------
    # elastic rescaling
    # ------------------------------------------------------------------
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        """Extract the moved key-groups: one index scan + coalesced batch
        reads of exactly the moved windows' data ranges.

        The Stat-table rows (including ETTs) travel with the data so the
        new owner keeps predictive batch-read eligibility.  The moved
        on-disk ranges are marked consumed — normal compaction reclaims
        them later.
        """
        self._check_open()
        self.flush()
        moved = [sk for sk in self._stat if key_group_of(sk[0]) in key_groups]
        export = StateExport()
        if not moved:
            return export
        live_entries = self._scan_index(category=CAT_MIGRATION)
        targets = {
            sk for sk in moved if sk in live_entries and sk not in self._prefetch
        }
        loaded = (
            self._batch_read(targets, live_entries, category=CAT_MIGRATION)
            if targets
            else {}
        )
        for state_key in moved:
            key, window = state_key
            stat = self._stat.pop(state_key)
            values = loaded.pop(state_key, [])
            prefetched = self._prefetch.pop(state_key, None)
            if prefetched is not None:
                self._prefetch_bytes -= sum(len(v) for v in prefetched)
                if not values:
                    values = prefetched
            if stat.disk_entries > 0:
                self._consumed[(key, window.key_bytes())] = stat.epoch + 1
                self._live_data_bytes -= stat.disk_bytes
            export.entries.append(
                ExportedEntry(key, window, KIND_LIST, values, ett=stat.ett)
            )
        return export

    def import_state(self, export: StateExport) -> None:
        """Load migrated windows: data records + index entries + Stat rows.

        Import happens before processing resumes, so the fresh sequence
        numbers keep every migrated record ordered before any post-rescale
        append of the same window.
        """
        self._check_open()
        if not export.entries:
            return
        index_payload = bytearray()
        segment = self._current_segment()
        segment_payload = bytearray()
        for entry in export.entries:
            state_key = (entry.key, entry.window)
            stat = self._stat.get(state_key)
            if stat is None:
                stat = _WindowStat(
                    epoch=self._consumed.get((entry.key, entry.window.key_bytes()), 0)
                )
                self._stat[state_key] = stat
                self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.allocation)
            if entry.ett is not None and (stat.ett is None or entry.ett > stat.ett):
                stat.ett = entry.ett
            if not entry.values:
                continue
            record = bytearray()
            for value in entry.values:
                record += encode_bytes(value)
            if (
                segment.size + len(segment_payload) + len(record) > self._segment_bytes
                and segment_payload
            ):
                self._write_segment_payload(segment, segment_payload, category=CAT_MIGRATION)
                segment = self._new_segment()
                segment_payload = bytearray()
            self._entry_seq += 1
            index_entry = _IndexEntry(
                entry.key, entry.window, segment.segment_id,
                segment.size + len(segment_payload), len(record), len(entry.values),
                epoch=stat.epoch,
                seq=self._entry_seq,
            )
            segment_payload += record
            index_payload += index_entry.encode()
            stat.disk_bytes += len(record)
            stat.disk_entries += 1
            self._live_data_bytes += len(record)
        if segment_payload:
            self._write_segment_payload(segment, segment_payload, category=CAT_MIGRATION)
        if index_payload:
            self._fs.append(self._index_file(), bytes(index_payload), category=CAT_MIGRATION)

    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Read — *without removing* — the selected key-groups' windows.

        The sharded checkpointer's path: one index scan plus coalesced
        batch reads (both charged as recovery) reconstruct the on-disk
        values; buffered tuples follow in ``get`` order, and the prefetch
        buffer (a mirror of on-disk state) is preferred when it already
        holds a window.  Stat rows (ETT) travel with the entries, as in
        :meth:`export_state`, so a restore keeps batch-read eligibility.
        No state, index, or compaction bookkeeping changes.
        """
        self._check_open()
        wanted = [
            sk for sk in self._stat
            if key_groups is None or key_group_of(sk[0]) in key_groups
        ]
        export = StateExport()
        if not wanted:
            return export
        need_read = [
            sk for sk in wanted
            if sk not in self._prefetch and self._stat[sk].disk_entries > 0
        ]
        live_entries = self._scan_index(category=CAT_RECOVERY) if need_read else {}
        targets = {sk for sk in need_read if sk in live_entries}
        loaded = (
            self._batch_read(targets, live_entries, category=CAT_RECOVERY)
            if targets
            else {}
        )
        for state_key in wanted:
            key, window = state_key
            stat = self._stat[state_key]
            prefetched = self._prefetch.get(state_key)
            values = list(prefetched) if prefetched else list(loaded.get(state_key, []))
            values.extend(self._buffer.get(state_key, []))
            export.entries.append(
                ExportedEntry(key, window, KIND_LIST, values, ett=stat.ett)
            )
        return export

    # ------------------------------------------------------------------
    def on_watermark(self, timestamp: float) -> None:
        if timestamp > self._event_time:
            self._event_time = timestamp

    def drop_window(self, key: bytes, window: Window) -> None:
        """Discard a (key, window) without reading it."""
        self._check_open()
        state_key = (key, window)
        stat = self._stat.pop(state_key, None)
        if stat is not None and stat.disk_entries > 0:
            self._consumed[(key, window.key_bytes())] = stat.epoch + 1
            self._live_data_bytes -= stat.disk_bytes
        buffered = self._buffer.pop(state_key, None)
        if buffered:
            self._buffer_bytes -= sum(len(key) + len(v) + 16 for v in buffered)
        prefetched = self._prefetch.pop(state_key, None)
        if prefetched:
            self._prefetch_bytes -= sum(len(v) for v in prefetched)

    # ------------------------------------------------------------------
    # checkpointing (§8)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Flush, then capture logs + Stat/segment metadata.

        The prefetch buffer is deliberately dropped — it is a cache and
        will repopulate through predictive batch reads after recovery.
        """
        from repro.snapshot import StoreSnapshot, copy_files_out, pack_meta, seal_snapshot

        self._check_open()
        self.flush()
        meta = pack_meta(
            self._env,
            {
                "stat": {
                    key: (stat.ett, stat.disk_bytes, stat.disk_entries, stat.epoch)
                    for key, stat in self._stat.items()
                },
                "consumed": dict(self._consumed),
                "generation": self._generation,
                "segment_counter": self._segment_counter,
                "segments": [
                    (seg.segment_id, seg.file_name, seg.size) for seg in self._segments
                ],
                "total_data_bytes": self._total_data_bytes,
                "live_data_bytes": self._live_data_bytes,
                "event_time": self._event_time,
                "entry_seq": self._entry_seq,
            },
        )
        files = copy_files_out(self._fs, self._name + "/")
        return seal_snapshot(self._env, StoreSnapshot("aur", meta, files))

    def restore(self, snapshot) -> None:
        from repro.errors import StoreRestoreError
        from repro.snapshot import copy_files_in, unpack_meta, verify_snapshot

        self._check_open()
        verify_snapshot(self._env, snapshot)
        if self._buffer or self._stat or self._segments or self._consumed:
            raise StoreRestoreError(f"restore into non-empty aur store {self._name}")
        copy_files_in(self._env, self._fs, snapshot.files)
        state = unpack_meta(self._env, snapshot.meta)
        self._stat = {
            key: _WindowStat(ett=ett, disk_bytes=disk_bytes,
                             disk_entries=entries, epoch=epoch)
            for key, (ett, disk_bytes, entries, epoch) in state["stat"].items()
        }
        self._consumed = dict(state["consumed"])
        self._generation = state["generation"]
        self._segment_counter = state["segment_counter"]
        self._segments = [
            _Segment(seg_id, file_name, size)
            for seg_id, file_name, size in state["segments"]
        ]
        self._total_data_bytes = state["total_data_bytes"]
        self._live_data_bytes = state["live_data_bytes"]
        self._event_time = state["event_time"]
        self._entry_seq = state.get("entry_seq", 0)
        self._buffer.clear()
        self._buffer_bytes = 0
        self._prefetch.clear()
        self._prefetch_bytes = 0

    def close(self) -> None:
        self._closed = True
        self._buffer.clear()
        self._prefetch.clear()
        self._stat.clear()
