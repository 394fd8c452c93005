"""Faster-style hash KV store over a hybrid log."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import StoreClosedError, UnknownBatchOpError
from repro.kvstores.api import KVStore
from repro.serde.codec import decode_bytes, encode_bytes
from repro.simenv import (
    CAT_COMPACTION,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    CAT_SYNC,
    SimEnv,
)
from repro.storage.filesystem import SimFileSystem


@dataclass(frozen=True)
class FasterConfig:
    """Tuning knobs, mirroring the Faster options the paper configures.

    Attributes:
        memory_log_bytes: size of the in-memory portion of the hybrid log
            (paper: 1 GB per instance; scale down proportionally).
        mutable_fraction: fraction of the in-memory region that allows
            in-place updates.
        spill_chunk_bytes: how much of the log head is spilled to disk at
            once when memory fills.
        max_space_amplification: log-size/live-size ratio that triggers a
            log compaction.
    """

    memory_log_bytes: int = 4 << 20
    mutable_fraction: float = 0.9
    spill_chunk_bytes: int = 1 << 20
    max_space_amplification: float = 3.0


@dataclass
class _Record:
    key: bytes
    value: bytes
    address: int
    length: int  # serialized length in the log


class FasterStore(KVStore):
    """Hash index + hybrid log (mutable / read-only / on-disk regions).

    Addresses are byte offsets in one logical append-only log.  Records at
    ``address >= head`` live in the in-memory region; older records have
    been spilled to the on-disk log file at the same offsets (the disk file
    holds the exact serialized bytes).  Record objects retain their value
    as a decode cache — every logical disk access is still charged a random
    read of the record's bytes.

    Every public operation pays one epoch-protection synchronization
    charge, as Faster's thread-safe design requires even under a
    single-threaded SPE worker (§6.3).
    """

    # Appends are read-copy-update: they read the old value list first,
    # so write-key hints let the prefetcher hide that read's I/O.
    append_reads = True

    def __init__(
        self,
        env: SimEnv,
        fs: SimFileSystem,
        name: str = "faster",
        config: FasterConfig | None = None,
    ) -> None:
        self._env = env
        self._fs = fs
        self._name = name
        self._config = config or FasterConfig()
        self._index: dict[bytes, _Record] = {}
        self._resident: deque[_Record] = deque()  # in-memory records, oldest first
        self._tail = 0  # next log address
        self._head = 0  # lowest in-memory address
        self._memory_bytes_used = 0
        self._live_bytes = 0
        self._dead_resident: set[int] = set()  # deleted addresses awaiting spill skip
        self._disk_generation = 0
        self._closed = False
        self.compaction_count = 0
        # Semantic prefetching: raw spilled-record bytes keyed by
        # (disk_generation, address) -> (raw, completion_time).  The
        # generation key makes compaction invalidation trivial — a new
        # generation renumbers every address.
        self._prefetcher = None
        self._prefetched: dict[tuple[int, int], tuple[bytes, float]] = {}

    # ------------------------------------------------------------------
    @property
    def _log_file(self) -> str:
        return f"{self._name}/hlog_{self._disk_generation:04d}.log"

    @property
    def _readonly_boundary(self) -> int:
        mutable = int(self._config.memory_log_bytes * self._config.mutable_fraction)
        return max(self._head, self._tail - mutable)

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"Faster store {self._name} is closed")

    def _charge_sync(self) -> None:
        self._env.charge_cpu(CAT_SYNC, self._env.cpu.sync_op)

    @staticmethod
    def _record_length(key: bytes, value: bytes) -> int:
        """Serialized length of a record: both length prefixes plus payloads."""
        key_len = len(key)
        value_len = len(value)
        if key_len < 0x80 and value_len < 0x80:
            return key_len + value_len + 2
        return (
            key_len + value_len
            + ((key_len.bit_length() + 6) // 7 or 1)
            + ((value_len.bit_length() + 6) // 7 or 1)
        )

    # ------------------------------------------------------------------
    # hybrid log management
    # ------------------------------------------------------------------
    def _append_record(self, key: bytes, value: bytes, category: str) -> _Record:
        length = self._record_length(key, value)
        record = _Record(key, value, self._tail, length)
        self._resident.append(record)
        self._tail += length
        self._memory_bytes_used += length
        self._env.charge_cpu(
            category, self._env.cpu.allocation + length * self._env.cpu.copy_per_byte
        )
        if self._memory_bytes_used > self._config.memory_log_bytes:
            self._spill_head(category)
        return record

    def _spill_head(self, category: str) -> None:
        """Flush the oldest in-memory records to the on-disk log."""
        payload = bytearray()
        spilled_through = self._head
        while self._resident and len(payload) < self._config.spill_chunk_bytes:
            record = self._resident[0]
            if record.address + record.length > self._readonly_boundary:
                break  # never spill the mutable region
            self._resident.popleft()
            # Deleted records still occupy their log range; their bytes are
            # written so that on-disk offsets stay equal to addresses.
            payload += encode_bytes(record.key)
            payload += encode_bytes(record.value)
            spilled_through = record.address + record.length
            self._memory_bytes_used -= record.length
            self._dead_resident.discard(record.address)
        if not payload:
            return
        self._fs.append(self._log_file, bytes(payload), category=category)
        self._head = spilled_through

    def _read_record_value(self, record: _Record, category: str) -> bytes:
        """Fetch a record's value; charges a random disk read if spilled."""
        if record.address >= self._head:
            self._env.charge_cpu(category, len(record.value) * self._env.cpu.copy_per_byte)
            return record.value
        if self._prefetched:
            hit = self._prefetched.pop(
                (self._disk_generation, record.address), None
            )
            if hit is not None:
                raw, completion = hit
                if self._prefetcher is not None:
                    self._prefetcher.consume(completion)
                _key, pos = decode_bytes(raw, 0)
                value, _pos = decode_bytes(raw, pos)
                return value
        raw = self._fs.read(self._log_file, record.address, record.length, category=category)
        key, pos = decode_bytes(raw, 0)
        value, _pos = decode_bytes(raw, pos)
        return value

    # ------------------------------------------------------------------
    # semantic prefetching
    # ------------------------------------------------------------------
    def enable_prefetch(self, executor) -> None:
        """Attach a :class:`repro.prefetch.PrefetchExecutor`."""
        self._prefetcher = executor

    @property
    def prefetch_active(self) -> bool:
        return self._prefetcher is not None

    def prefetch_get(self, keys: list[bytes]) -> None:
        """Pre-read the spilled log records point accesses will fetch.

        Only records below ``head`` (the on-disk read region) are worth
        prefetching; resident records are free.  Applies equally to
        imminent gets and to RCU appends, which read the old value.
        """
        ex = self._prefetcher
        if ex is None or self._closed:
            return
        for key in keys:
            record = self._index.get(key)
            if record is None or record.address >= self._head:
                continue
            pkey = (self._disk_generation, record.address)
            if pkey in self._prefetched:
                continue
            if not ex.has_budget():
                return
            issued = ex.capture(
                lambda r=record: self._fs.read(
                    self._log_file, r.address, r.length, category=CAT_STORE_READ
                )
            )
            if issued is None:
                continue
            ex.register()
            self._prefetched[pkey] = issued

    def prefetch_scan(self, prefix: bytes) -> None:
        """A prefix scan probes every matching key; pre-read the spilled ones."""
        if self._prefetcher is None or self._closed:
            return
        spilled = [
            key
            for key, record in self._index.items()
            if record.address < self._head and key.startswith(prefix)
        ]
        spilled.sort()
        self.prefetch_get(spilled)

    def _drop_prefetched(self, record: _Record) -> None:
        """A record was superseded/deleted before its prefetch was used."""
        if not self._prefetched:
            return
        entry = self._prefetched.pop(
            (self._disk_generation, record.address), None
        )
        if entry is not None and self._prefetcher is not None:
            self._prefetcher.waste()

    # ------------------------------------------------------------------
    # KVStore API
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        self._charge_sync()
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.hash_probe)
        record = self._index.get(key)
        if record is None:
            return None
        return self._read_record_value(record, CAT_STORE_READ)

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self._charge_sync()
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.hash_probe)
        record = self._index.get(key)
        if (
            record is not None
            and record.address >= self._readonly_boundary
            and len(value) == len(record.value)
        ):
            # Equal length keeps spilled file offsets aligned to addresses.
            # In-place update in the mutable region (Faster's RMW strength).
            self._env.charge_cpu(CAT_STORE_WRITE, len(value) * self._env.cpu.copy_per_byte)
            record.value = value
            return
        new_length = self._record_length(key, value)
        self._live_bytes += new_length - (record.length if record is not None else 0)
        if record is not None:
            self._drop_prefetched(record)
        self._index[key] = self._append_record(key, value, CAT_STORE_WRITE)
        self._maybe_compact()

    def multi_append(self, entries: Iterable[tuple[bytes, bytes]]) -> None:
        """Read-copy-update of the whole value list (Faster's weakness).

        Faster has no merge operator: appending to a list means reading
        every previously appended element and writing the grown list back
        — the I/O amplification of §2.2 that makes append workloads time
        out in Figures 4, 8 and 9.  Every entry pays its own
        epoch-protection sync and its own read-copy-update: the per-record
        amplification is the modelled behaviour and must not shrink with
        batch size.
        """
        self._check_open()
        append_one = self._append_one
        for key, value in entries:
            append_one(key, value)

    def _append_one(self, key: bytes, value: bytes) -> None:
        self._charge_sync()
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.hash_probe)
        record = self._index.get(key)
        old = b"" if record is None else self._read_record_value(record, CAT_STORE_WRITE)
        new_value = old + encode_bytes(value)
        new_length = self._record_length(key, new_value)
        self._live_bytes += new_length - (record.length if record is not None else 0)
        self._index[key] = self._append_record(key, new_value, CAT_STORE_WRITE)
        self._maybe_compact()

    def apply_write_batch(self, ops: list[tuple[str, bytes, bytes | None]]) -> None:
        """Staged commit over the hybrid log.

        New records always land in the mutable tail region, which is never
        spilled — a mid-commit head spill only evicts *older* records, so
        the batch itself cannot reach the device as a partial prefix.
        """
        self._check_open()
        for op, key, value in ops:
            if op == "put":
                self.put(key, value)
            elif op == "append":
                self._append_one(key, value)
            elif op == "delete":
                self.delete(key)
            else:
                raise UnknownBatchOpError(op)

    def delete(self, key: bytes) -> None:
        self._check_open()
        self._charge_sync()
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.hash_probe)
        record = self._index.pop(key, None)
        if record is not None:
            self._live_bytes -= record.length
            self._drop_prefetched(record)
            if record.address >= self._head:
                self._dead_resident.add(record.address)

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Unsorted store: scanning means probing every live key."""
        self._check_open()
        self._charge_sync()
        matches = []
        for key in self._index:
            self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.key_compare)
            if key.startswith(prefix):
                matches.append(key)
        matches.sort()  # deterministic order for callers
        self._env.charge_cpu(
            CAT_STORE_READ,
            len(matches) * self._env.cpu.key_compare * max(1, len(matches)).bit_length(),
        )
        for key in matches:
            record = self._index.get(key)
            if record is None:
                continue
            yield key, self._read_record_value(record, CAT_STORE_READ)

    # ------------------------------------------------------------------
    # log compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        if self._live_bytes <= 0 or self._tail <= self._config.memory_log_bytes:
            return
        if self._tail / max(1, self._live_bytes) > self._config.max_space_amplification:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the log with only live records into a new generation."""
        self.compaction_count += 1
        self._env.bump("faster_compactions")
        if self._prefetched:
            # The generation bump renumbers every address: all in-flight
            # prefetches are stale.
            if self._prefetcher is not None:
                self._prefetcher.waste(len(self._prefetched))
            self._prefetched.clear()
        live = sorted(self._index.items(), key=lambda kv: kv[1].address)
        old_file = self._log_file
        old_head = self._head
        # Charge reads for spilled live records (sequential-ish batch read).
        spilled_bytes = sum(r.length for _k, r in live if r.address < old_head)
        if spilled_bytes and self._fs.exists(old_file):
            self._env.charge_cpu(CAT_COMPACTION, self._env.cpu.syscall)
            self._env.charge_read(spilled_bytes)
        self._disk_generation += 1
        self._resident = deque()
        self._dead_resident = set()
        self._tail = 0
        self._head = 0
        self._memory_bytes_used = 0
        self._live_bytes = 0
        for key, record in live:
            self._live_bytes += record.length
            self._index[key] = self._append_record(key, record.value, CAT_COMPACTION)
        if self._fs.exists(old_file):
            self._fs.delete(old_file)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self._check_open()

    # ------------------------------------------------------------------
    # checkpointing (§8): index + resident tail captured in meta, the
    # spilled log file copied byte-exact.
    # ------------------------------------------------------------------
    def snapshot(self):
        from repro.snapshot import StoreSnapshot, copy_files_out, pack_meta, seal_snapshot

        self._check_open()
        # Pickling index and resident records together preserves the
        # object identity between the two structures.
        meta = pack_meta(
            self._env,
            {
                "index": self._index,
                "resident": list(self._resident),
                "tail": self._tail,
                "head": self._head,
                "memory_bytes_used": self._memory_bytes_used,
                "live_bytes": self._live_bytes,
                "dead_resident": set(self._dead_resident),
                "disk_generation": self._disk_generation,
            },
        )
        files = copy_files_out(self._fs, self._name + "/")
        return seal_snapshot(self._env, StoreSnapshot("faster", meta, files))

    def restore(self, snapshot) -> None:
        from repro.errors import StoreRestoreError
        from repro.snapshot import copy_files_in, unpack_meta, verify_snapshot

        self._check_open()
        verify_snapshot(self._env, snapshot)
        if self._index or self._resident:
            raise StoreRestoreError(f"restore into non-empty faster store {self._name}")
        copy_files_in(self._env, self._fs, snapshot.files)
        state = unpack_meta(self._env, snapshot.meta)
        self._index = state["index"]
        self._resident = deque(state["resident"])
        self._tail = state["tail"]
        self._head = state["head"]
        self._memory_bytes_used = state["memory_bytes_used"]
        self._live_bytes = state["live_bytes"]
        self._dead_resident = state["dead_resident"]
        self._disk_generation = state["disk_generation"]

    def close(self) -> None:
        self._closed = True
        self._index.clear()
        self._resident.clear()
        self._prefetched.clear()

    @property
    def memory_bytes(self) -> int:
        index_bytes = sum(len(k) + 48 for k in self._index)
        return self._memory_bytes_used + index_bytes

    @property
    def disk_bytes(self) -> int:
        return self._fs.total_bytes(self._name + "/")
