"""The leveled LSM store (RocksDB-style baseline)."""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter

from repro.errors import StoreClosedError, UnknownBatchOpError
from repro.kvstores.api import KVStore
from repro.kvstores.lsm.blockcache import BlockCache
from repro.kvstores.lsm.bloom import hash_pair
from repro.kvstores.lsm.compaction import collapse_versions, merge_sorted_entries
from repro.kvstores.lsm.format import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_PUT,
    Entry,
    merge_entries,
)
from repro.kvstores.lsm.memtable import MemTable
from repro.kvstores.lsm.sstable import SSTableReader, SSTableWriter
from repro.serde.codec import encode_bytes
from repro.simenv import (
    CAT_COMPACTION,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    SimEnv,
)
from repro.storage.filesystem import SimFileSystem

_SMALLEST_KEY = attrgetter("smallest_key")  # bisects a level's key-ordered tables


@dataclass(frozen=True)
class LsmConfig:
    """Tuning knobs, mirroring the RocksDB options the paper configures.

    Attributes:
        write_buffer_bytes: memtable flush threshold (paper: 2048 MB at
            400 GB scale; default here is proportionally scaled down).
        block_bytes: data block size.
        block_cache_bytes: LRU cache capacity.
        l0_compaction_trigger: number of L0 files that triggers L0->L1.
        level1_bytes: target size of L1; deeper levels multiply.
        level_multiplier: growth factor between levels.
        max_file_bytes: compaction output file size.
        bloom_bits_per_key: bloom filter density.
        max_levels: number of levels below L0.
    """

    write_buffer_bytes: int = 4 << 20
    block_bytes: int = 4096
    block_cache_bytes: int = 16 << 20
    l0_compaction_trigger: int = 4
    level1_bytes: int = 32 << 20
    level_multiplier: int = 10
    max_file_bytes: int = 8 << 20
    bloom_bits_per_key: int = 10
    max_levels: int = 5


class LsmStore(KVStore):
    """A leveled LSM tree over the simulated filesystem.

    Supports RocksDB-style merge operands for the Append pattern, prefix
    scans with full multi-level merge, and leveled compaction; reads go
    memtable -> L0 (newest first) -> L1..Ln with bloom filters and a block
    cache on the way.
    """

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        name: str = "lsm",
        config: LsmConfig | None = None,
    ) -> None:
        self._env = env
        self._fs = fs
        self._name = name
        self._config = config or LsmConfig()
        self._memtable = MemTable(env)
        self._cache = BlockCache(env, self._config.block_cache_bytes)
        # levels[0] is newest-first and may overlap; deeper levels are
        # key-ordered and disjoint.
        self._levels: list[list[SSTableReader]] = [[] for _ in range(self._config.max_levels + 1)]
        self._seq = 0
        self._file_counter = 0
        self._closed = False
        self.compaction_count = 0
        # Semantic prefetching (attached via enable_prefetch): background
        # readahead slabs for scans, keyed (file, slab_offset) ->
        # (raw_bytes, completion_time); point-read blocks go straight
        # into the block cache as prefetched inserts.
        self._prefetcher = None
        self._slabs: dict[tuple[str, int], tuple[bytes, float]] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"LSM store {self._name} is closed")

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _next_file_name(self) -> str:
        self._file_counter += 1
        return f"{self._name}/sst_{self._file_counter:08d}.sst"

    def _maybe_flush(self) -> None:
        if self._memtable.approximate_bytes >= self._config.write_buffer_bytes:
            self.flush()

    # ------------------------------------------------------------------
    # KVStore API
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self._memtable.put(key, self._next_seq(), value)
        self._maybe_flush()

    def delete(self, key: bytes) -> None:
        self._check_open()
        self._memtable.delete(key, self._next_seq())
        self._maybe_flush()

    def multi_append(self, entries: Iterable[tuple[bytes, bytes]]) -> None:
        """Lazy merge: record one operand per entry without reading the
        old value.

        Each operand is framed so that merged values remain parseable with
        :func:`repro.kvstores.lsm.format.unpack_list_value` after pure
        byte concatenation (RocksDB string-append semantics).  The
        memtable flush check runs per entry — SSTable boundaries and
        compaction charges must not depend on batch size.
        """
        self._check_open()
        for key, value in entries:
            self._memtable.merge(key, self._next_seq(), encode_bytes(value))
            self._maybe_flush()

    def apply_write_batch(self, ops: list[tuple[str, bytes, bytes | None]]) -> None:
        """Atomic staged commit: every op lands in the memtable before the
        single flush-threshold check at the end.

        This is what makes a :class:`~repro.kvstores.api.WriteBatch`
        tear-safe on this store: the batch reaches the device only as part
        of one whole-memtable flush, never as a partial-prefix write — a
        torn write can only hit a flush that carries the entire batch (and
        a failed flush leaves all ops readable from the memtable).  The
        price is slightly later flush timing than the per-op path, which
        is the documented write_batch contract.
        """
        self._check_open()
        for op, key, value in ops:
            if op == "put":
                self._memtable.put(key, self._next_seq(), value)
            elif op == "append":
                self._memtable.merge(key, self._next_seq(), encode_bytes(value))
            elif op == "delete":
                self._memtable.delete(key, self._next_seq())
            else:
                raise UnknownBatchOpError(op)
        self._maybe_flush()

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        versions: list[Entry] = []
        for entry in self._memtable.get_versions(key):
            versions.append(entry)
            if entry.kind != KIND_MERGE:
                return self._finish_get(versions)
        key_hash = hash_pair(key)  # one hash serves every table's bloom probe
        for table in self._levels[0]:
            for entry in table.get_versions(key, self._cache, key_hash):
                versions.append(entry)
                if entry.kind != KIND_MERGE:
                    return self._finish_get(versions)
        for level in self._levels[1:]:
            table = self._find_level_file(level, key)
            if table is None:
                continue
            for entry in table.get_versions(key, self._cache, key_hash):
                versions.append(entry)
                if entry.kind != KIND_MERGE:
                    return self._finish_get(versions)
        return self._finish_get(versions)

    def _finish_get(self, versions: list[Entry]) -> bytes | None:
        if not versions:
            return None
        self._env.charge_cpu(CAT_STORE_READ, len(versions) * self._env.cpu.merge_per_entry)
        merged = merge_entries(versions)
        if merged is None or merged.kind == KIND_DELETE:
            return None
        return merged.value

    def _find_level_file(self, level: list[SSTableReader], key: bytes) -> SSTableReader | None:
        if not level:
            return None
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.sorted_search(len(level)))
        idx = bisect_right(level, key, key=_SMALLEST_KEY) - 1
        if idx < 0:
            return None
        table = level[idx]
        return table if key <= table.largest_key else None

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Merged, key-ordered iteration over all live keys with ``prefix``."""
        self._check_open()
        pf = self if self._prefetcher is not None else None
        sources: list = [
            [e for e in self._memtable.iter_sorted() if e.key.startswith(prefix) or e.key > prefix]
        ]
        for table in self._levels[0]:
            sources.append(table.iter_entries(start_key=prefix, prefetcher=pf))
        for level in self._levels[1:]:
            if not level:
                continue

            def level_iter(tables: list[SSTableReader] = level) -> Iterator[Entry]:
                start = max(0, bisect_right(tables, prefix, key=_SMALLEST_KEY) - 1)
                for table in tables[start:]:
                    if table.largest_key < prefix:
                        continue
                    yield from table.iter_entries(start_key=prefix, prefetcher=pf)

            sources.append(level_iter())
        merged = merge_sorted_entries(self._env, sources, CAT_STORE_READ)
        run: list[Entry] = []
        current: bytes | None = None
        for entry in merged:
            if not entry.key.startswith(prefix):
                if entry.key > prefix:
                    break
                continue
            if entry.key != current:
                yield from self._emit_scan_run(run)
                run = []
                current = entry.key
            run.append(entry)
        yield from self._emit_scan_run(run)

    def _emit_scan_run(self, run: list[Entry]) -> Iterator[tuple[bytes, bytes]]:
        if not run:
            return
        self._env.charge_cpu(CAT_STORE_READ, len(run) * self._env.cpu.merge_per_entry)
        merged = merge_entries(run)
        if merged is not None and merged.kind == KIND_PUT:
            yield merged.key, merged.value

    # ------------------------------------------------------------------
    # flush & compaction
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush the memtable to a new L0 SSTable and maybe compact."""
        self._check_open()
        if self._memtable.is_empty():
            return
        writer = SSTableWriter(
            self._env,
            self._fs,
            self._next_file_name(),
            block_bytes=self._config.block_bytes,
            bloom_bits_per_key=self._config.bloom_bits_per_key,
            category=CAT_STORE_WRITE,
        )
        reader = writer.write(self._memtable.iter_sorted())
        if reader is not None:
            self._levels[0].insert(0, reader)
        self._memtable = MemTable(self._env)
        self._maybe_compact()

    def _level_target_bytes(self, level_idx: int) -> int:
        return self._config.level1_bytes * (self._config.level_multiplier ** (level_idx - 1))

    def _maybe_compact(self) -> None:
        if len(self._levels[0]) >= self._config.l0_compaction_trigger:
            self._compact_level0()
        for level_idx in range(1, len(self._levels) - 1):
            level_bytes = sum(t.file_size() for t in self._levels[level_idx])
            if level_bytes > self._level_target_bytes(level_idx):
                self._compact_level(level_idx)

    def _compact_level0(self) -> None:
        inputs = list(self._levels[0])
        if not inputs:
            return
        smallest = min(t.smallest_key for t in inputs)
        largest = max(t.largest_key for t in inputs)
        overlapping = [t for t in self._levels[1] if t.overlaps(smallest, largest)]
        self._run_compaction(inputs, overlapping, output_level=1)
        self._levels[0] = []
        self._levels[1] = sorted(
            [t for t in self._levels[1] if t not in overlapping] + self._new_outputs,
            key=lambda t: t.smallest_key,
        )
        self._drop_tables(inputs + overlapping)

    def _compact_level(self, level_idx: int) -> None:
        level = self._levels[level_idx]
        if not level:
            return
        # Pick the oldest (first) file; merge into the next level.
        victim = level[0]
        overlapping = [
            t for t in self._levels[level_idx + 1]
            if t.overlaps(victim.smallest_key, victim.largest_key)
        ]
        self._run_compaction([victim], overlapping, output_level=level_idx + 1)
        self._levels[level_idx] = level[1:]
        self._levels[level_idx + 1] = sorted(
            [t for t in self._levels[level_idx + 1] if t not in overlapping] + self._new_outputs,
            key=lambda t: t.smallest_key,
        )
        self._drop_tables([victim] + overlapping)

    def _run_compaction(
        self,
        upper: list[SSTableReader],
        lower: list[SSTableReader],
        output_level: int,
    ) -> None:
        """Merge ``upper`` (newer) and ``lower`` tables into ``output_level``."""
        self.compaction_count += 1
        self._env.bump("lsm_compactions")
        bottom = output_level >= len(self._levels) - 1 or all(
            not self._levels[deeper] for deeper in range(output_level + 1, len(self._levels))
        )
        sources = [t.iter_entries(category=CAT_COMPACTION) for t in upper]
        sources += [t.iter_entries(category=CAT_COMPACTION) for t in lower]
        merged = merge_sorted_entries(self._env, sources, CAT_COMPACTION)
        collapsed = collapse_versions(self._env, merged, CAT_COMPACTION, bottom_level=bottom)

        self._new_outputs: list[SSTableReader] = []
        batch: list[Entry] = []
        output_bytes = 0
        last_key: bytes | None = None

        def flush_batch() -> None:
            nonlocal batch, output_bytes
            if not batch:
                return
            writer = SSTableWriter(
                self._env,
                self._fs,
                self._next_file_name(),
                block_bytes=self._config.block_bytes,
                bloom_bits_per_key=self._config.bloom_bits_per_key,
                category=CAT_COMPACTION,
            )
            reader = writer.write(batch)
            if reader is not None:
                self._new_outputs.append(reader)
            batch = []
            output_bytes = 0

        for entry in collapsed:
            if output_bytes >= self._config.max_file_bytes and entry.key != last_key:
                flush_batch()
            batch.append(entry)
            output_bytes += len(entry.key) + len(entry.value) + 16
            last_key = entry.key
        flush_batch()

    def _drop_tables(self, tables: list[SSTableReader]) -> None:
        for table in tables:
            self._cache.drop_file(table.name)
            if self._slabs:
                stale = [k for k in self._slabs if k[0] == table.name]
                for k in stale:
                    del self._slabs[k]
                if stale and self._prefetcher is not None:
                    self._prefetcher.waste(len(stale))
            if self._fs.exists(table.name):
                self._fs.delete(table.name)

    # ------------------------------------------------------------------
    # semantic prefetching
    # ------------------------------------------------------------------
    def enable_prefetch(self, executor) -> None:
        """Attach a :class:`repro.prefetch.PrefetchExecutor`."""
        self._prefetcher = executor
        self._cache.prefetcher = executor

    @property
    def prefetch_active(self) -> bool:
        return self._prefetcher is not None

    def prefetch_scan(self, prefix: bytes) -> None:
        """Pre-read the readahead slabs a prefix scan will stream through.

        Issues exactly the ``(offset, length)`` reads
        :meth:`~repro.kvstores.lsm.sstable.SSTableReader.iter_entries`
        would make (via ``plan_slabs``) for every table the scan touches;
        the demand scan later consumes them through :meth:`take_slab`,
        paying only residual wait.  Tables compacted away before the scan
        invalidate their slabs (counted wasted in ``_drop_tables``).
        """
        ex = self._prefetcher
        if ex is None or self._closed:
            return
        for table in self._scan_tables(prefix):
            for slab_start, length in table.plan_slabs(
                start_key=prefix, stop_prefix=prefix
            ):
                if (table.name, slab_start) in self._slabs:
                    continue
                if not ex.has_budget():
                    return
                issued = ex.capture(
                    lambda t=table, s=slab_start, n=length: self._fs.read(
                        t.name, s, n, category=CAT_STORE_READ
                    )
                )
                if issued is None:
                    continue
                ex.register()
                self._slabs[(table.name, slab_start)] = issued

    def _scan_tables(self, prefix: bytes) -> Iterator[SSTableReader]:
        """The tables :meth:`scan_prefix` would open for ``prefix``."""
        yield from self._levels[0]
        for level in self._levels[1:]:
            if not level:
                continue
            start = max(0, bisect_right(level, prefix, key=_SMALLEST_KEY) - 1)
            for table in level[start:]:
                if table.largest_key < prefix:
                    continue
                yield table

    def take_slab(self, name: str, slab_start: int, length: int) -> bytes | None:
        """Hand a prefetched slab to the demand scan, settling accounting."""
        entry = self._slabs.pop((name, slab_start), None)
        if entry is None:
            return None
        data, completion = entry
        ex = self._prefetcher
        if len(data) != length:
            if ex is not None:
                ex.waste()
            return None
        if ex is not None:
            ex.consume(completion)
        return data

    def prefetch_get(self, keys: list[bytes]) -> None:
        """Pre-load the data blocks point reads of ``keys`` would touch.

        Blocks land in the block cache as prefetched inserts; candidate
        blocks already cached are pinned instead, so prefetch inserts
        cannot evict a block the imminent demand read needs.
        """
        ex = self._prefetcher
        if ex is None or self._closed:
            return
        for key in keys:
            if not ex.has_budget():
                return
            issued = ex.capture(lambda k=key: self._prefetch_point(k))
            if issued is None:
                continue
            blocks, completion = issued
            for table_name, block_off, entries, block_len in blocks:
                if not ex.has_budget():
                    break
                ex.register()
                self._cache.insert(
                    table_name, block_off, entries, block_len,
                    prefetched=True, completion=completion,
                )

    def _prefetch_point(self, key: bytes) -> list[tuple[str, int, list[Entry], int]]:
        """Locate and read the blocks a point :meth:`get` of ``key`` would
        load.  Runs under prefetch capture; mirrors the demand walk —
        memtable, L0 newest-first, then one candidate file per level —
        and stops where the demand read would (first non-merge version).
        """
        for entry in self._memtable.get_versions(key):
            if entry.kind != KIND_MERGE:
                return []  # resolves in memory; no disk read coming
        blocks: list[tuple[str, int, list[Entry], int]] = []
        key_hash = hash_pair(key)

        def visit(table: SSTableReader) -> bool:
            """Load/pin the candidate block; True if the walk stops here."""
            idx = table.locate_block(key, key_hash)
            if idx is None:
                return False
            block_off, block_len = table.block_span(idx)
            if self._cache.peek(table.name, block_off):
                self._cache.pin(table.name, block_off)
                return False  # contents unknown without a demand get
            entries = table._decode_block_raw(idx)
            blocks.append((table.name, block_off, entries, block_len))
            return any(
                e.key == key and e.kind != KIND_MERGE for e in entries
            )

        for table in self._levels[0]:
            if visit(table):
                return blocks
        for level in self._levels[1:]:
            table = self._find_level_file(level, key)
            if table is not None and visit(table):
                return blocks
        return blocks

    # ------------------------------------------------------------------
    # checkpointing (§8): Flink forces the memtable to disk before the
    # snapshot so that SSTables can be uploaded asynchronously.
    # ------------------------------------------------------------------
    def snapshot(self):
        """Checkpoint the store: flush, then copy every SSTable out."""
        from repro.snapshot import StoreSnapshot, copy_files_out, pack_meta, seal_snapshot

        self._check_open()
        self.flush()
        live_names = [[t.name for t in level] for level in self._levels]
        files = copy_files_out(self._fs, self._name + "/")
        meta = pack_meta(
            self._env,
            {
                "seq": self._seq,
                "file_counter": self._file_counter,
                "levels": live_names,
                # Retired incremental-snapshot field, always empty.  It stays
                # so the meta blob, and with it every serde/CRC charge and
                # checkpoint byte count, is unchanged; restore ignores it.
                "reused": [],
            },
        )
        return seal_snapshot(self._env, StoreSnapshot("lsm", meta, files))

    def restore(self, snapshot) -> None:
        """Load a snapshot into this fresh store."""
        from repro.errors import StoreRestoreError
        from repro.snapshot import copy_files_in, unpack_meta, verify_snapshot

        self._check_open()
        verify_snapshot(self._env, snapshot)
        if self._memtable.entry_count or any(self._levels):
            raise StoreRestoreError(f"restore into non-empty lsm store {self._name}")
        state = unpack_meta(self._env, snapshot.meta)
        copy_files_in(self._env, self._fs, snapshot.files)
        self._seq = state["seq"]
        self._file_counter = state["file_counter"]
        # Re-open every SSTable: recovery pays the footer/index/bloom reads.
        self._levels = [
            [SSTableReader(self._env, self._fs, name) for name in level]
            for level in state["levels"]
        ]
        self._memtable = MemTable(self._env)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._slabs.clear()
        for level in self._levels:
            level.clear()

    @property
    def memory_bytes(self) -> int:
        pinned = sum(t.memory_bytes for level in self._levels for t in level)
        return self._memtable.approximate_bytes + self._cache.used_bytes + pinned

    @property
    def disk_bytes(self) -> int:
        return self._fs.total_bytes(self._name + "/")

    @property
    def level_file_counts(self) -> list[int]:
        return [len(level) for level in self._levels]
