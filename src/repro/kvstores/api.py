"""Store interfaces.

Two layers:

* :class:`KVStore` — the generic byte-oriented KV API that existing
  persistent stores expose (Get/Put/Append-merge/Scan/Delete).  The LSM and
  hash-KV baselines implement it; Flink-style glue maps window state onto
  it with composite ``window || key`` keys, exactly as §2.2 describes.
* :class:`WindowStateBackend` — what a window operator actually needs from
  state: append a tuple to a window, read a whole window (aligned trigger),
  read one key's window (unaligned trigger), and read-modify-write an
  aggregate.  FlowKV implements this natively with its semantic API;
  baselines are adapted through :class:`repro.engine.state.GenericKVBackend`.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ExportExhaustedError, UnknownBatchOpError
from repro.model import Window

# Entry kinds crossing the migration boundary (elastic rescaling).
KIND_LIST = "list"  # append-pattern list state (AAR / AUR / ListState)
KIND_AGG = "agg"  # read-modify-write aggregate state (RMW / ValueState)
KIND_JOIN_LEFT = "joinL"  # interval-join left side buffer (MapState analogue)
KIND_JOIN_RIGHT = "joinR"  # interval-join right side buffer

# Default per-chunk byte budget of a live state transfer.
DEFAULT_CHUNK_BYTES = 64 << 10

# Number of key-groups keyed state hashes into, absent a plan override.
# Canonical here (the lowest layer that needs it); ``repro.rescale.
# keygroups`` re-exports it together with the ownership-range helpers.
DEFAULT_MAX_KEY_GROUPS = 128


def key_group_of(key: bytes, max_key_groups: int = DEFAULT_MAX_KEY_GROUPS) -> int:
    """The key-group a key hashes to (fixed for the lifetime of the job)."""
    return zlib.crc32(key) % max_key_groups


@dataclass
class ExportedEntry:
    """One (key, window) state cell extracted from a backend for migration.

    Values cross the migration boundary *serialized* (``bytes``), so the
    transfer volume is measurable and chargeable; the importing backend
    keeps or decodes them as its representation requires.  ``ett`` carries
    the AUR Stat-table estimate so a migrated window keeps its predictive
    batch-read eligibility on the new owner.
    """

    key: bytes
    window: Window
    kind: str  # KIND_LIST or KIND_AGG
    values: list[bytes]
    ett: float | None = None

    @property
    def payload_bytes(self) -> int:
        return len(self.key) + 16 + sum(len(v) for v in self.values)


@dataclass
class StateExport:
    """All state of a set of key-groups, extracted from one backend."""

    entries: list[ExportedEntry] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(entry.payload_bytes for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# Maps a key to its key-group (bound to the job's max_key_groups).
KeyGroupFn = Callable[[bytes], int]


# Changelog operation tags.  Defined here (not in repro.changelog) so the
# dirty tracker can emit records without importing the changelog package.
LOG_APPEND = "append"  # extend the cell's value list
LOG_PUT = "put"  # replace the cell's value list (aggregate upsert)
LOG_REMOVE = "remove"  # drop the cell (fetch-and-remove read, export)
LOG_TRIM = "trim"  # join expiry: drop the key's pairs below a cut timestamp
LOG_MERGE = "merge"  # import merge: extend list/join cells, replace agg cells


class KeyGroupDirtyTracker:
    """Per-key-group dirty bookkeeping shared by the state backends.

    Every window-state backend (and the join-state backend) owns one of
    these and marks the key-group of every *semantic* mutation (appends,
    aggregate writes, fetch-and-remove reads, imports).  Cost-only
    internal movement — compaction, prefetch promotion, spills — does
    not change what a checkpoint would capture and must not mark.

    The same semantic-vs-internal rule feeds changelog replication:
    when a :class:`repro.changelog.ChangelogWriter` is attached
    (``changelog`` attribute), the ``log_*`` variants additionally
    append an op record for the standby to tail.  With no writer
    attached they degrade to exactly the matching ``mark_*`` call, so
    single-node runs with replication off are charge-identical.
    """

    __slots__ = ("max_key_groups", "_dirty", "changelog")

    def __init__(self, max_key_groups: int = DEFAULT_MAX_KEY_GROUPS) -> None:
        self.max_key_groups = max_key_groups
        self._dirty: set[int] = set()
        self.changelog = None  # optional repro.changelog.ChangelogWriter

    @property
    def logging(self) -> bool:
        """True when a changelog writer is attached (payloads needed)."""
        return self.changelog is not None

    def mark_key(self, key: bytes) -> None:
        self._dirty.add(key_group_of(key, self.max_key_groups))

    def mark_group(self, group: int) -> None:
        self._dirty.add(group)

    def log_append(self, key: bytes, window, kind: str, values) -> None:
        """A value was appended to (key, window); ``values`` are the
        serialized payload(s) appended."""
        group = key_group_of(key, self.max_key_groups)
        self._dirty.add(group)
        if self.changelog is not None:
            self.changelog.record(group, LOG_APPEND, key, window, kind, values)

    def log_put(self, key: bytes, window, kind: str, values) -> None:
        """The cell at (key, window) was replaced wholesale."""
        group = key_group_of(key, self.max_key_groups)
        self._dirty.add(group)
        if self.changelog is not None:
            self.changelog.record(group, LOG_PUT, key, window, kind, values)

    def log_remove(self, key: bytes, window, kind: str) -> None:
        """The cell at (key, window) was consumed (fetch-and-remove,
        rmw_remove hit, or a destructive export vacated it)."""
        group = key_group_of(key, self.max_key_groups)
        self._dirty.add(group)
        if self.changelog is not None:
            self.changelog.record(group, LOG_REMOVE, key, window, kind, ())

    def log_trim(self, key: bytes, kind: str, cut: float) -> None:
        """Join expiry dropped (key, side) pairs with timestamp < cut."""
        group = key_group_of(key, self.max_key_groups)
        self._dirty.add(group)
        if self.changelog is not None:
            self.changelog.record(group, LOG_TRIM, key, None, kind, (cut,))

    def log_merge(self, key: bytes, window, kind: str, values) -> None:
        """An import landed at (key, window): merge into any existing
        cell (extend for list/join kinds, replace for aggregates)."""
        group = key_group_of(key, self.max_key_groups)
        self._dirty.add(group)
        if self.changelog is not None:
            self.changelog.record(group, LOG_MERGE, key, window, kind, values)

    def groups(self) -> frozenset[int]:
        return frozenset(self._dirty)

    def clear(self) -> None:
        self._dirty.clear()


@dataclass
class StateChunk:
    """One bounded slice of a single key-group's migrating state.

    A live rescale moves state as a sequence of chunks so the transfer
    can interleave with record processing; ``last`` marks the chunk that
    completes its key-group (the new owner imports the group — and cuts
    it over — only once its last chunk has landed).
    """

    key_group: int
    seq: int  # chunk ordinal within the key-group, from 0
    entries: list[ExportedEntry]
    last: bool

    @property
    def total_bytes(self) -> int:
        return sum(entry.payload_bytes for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class StateExportStream:
    """Chunked, resumable, per-key-group export of one backend.

    Construction is the *drain*: one bulk :meth:`WindowStateBackend.
    export_state` call extracts every moved key-group from the backend
    (state leaves the store immediately, exactly as in the stop-the-world
    path, so no split-brain window exists where old and new owner both
    hold a group).  The staged entries are then served as per-key-group
    :class:`StateChunk`\\ s under a byte budget — the transfer itself is
    charged to the ``migration`` ledger as chunks move on the simulated
    clock, by whoever moves them.

    The stream retains a full copy of every group's entries until the
    group is :meth:`commit`\\ ted (its cutover completed), so a
    mid-transfer fault can :meth:`rollback_entries` — re-import the
    group at its old owner — without touching groups that already cut
    over.
    """

    def __init__(
        self,
        backend: "WindowStateBackend",
        key_groups: set[int],
        key_group_of: KeyGroupFn,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        self._chunk_bytes = max(1, chunk_bytes)
        self._staged: dict[int, list[ExportedEntry]] = {
            group: [] for group in sorted(key_groups)
        }
        for entry in backend.export_state(set(key_groups), key_group_of).entries:
            self._staged[key_group_of(entry.key)].append(entry)
        self._cursor: dict[int, int] = dict.fromkeys(self._staged, 0)
        self._seq: dict[int, int] = dict.fromkeys(self._staged, 0)
        self._done: set[int] = set()

    def groups(self) -> list[int]:
        """The key-groups this stream is transferring, ascending."""
        return list(self._staged)

    def entries_of(self, group: int) -> list[ExportedEntry]:
        return self._staged[group]

    def has_more(self, group: int) -> bool:
        """Whether ``group`` still has chunks to send (every group sends
        at least one — possibly empty — final chunk)."""
        return group in self._staged and group not in self._done

    def next_chunk(self, group: int) -> StateChunk:
        """The next chunk of ``group`` under the byte budget."""
        if not self.has_more(group):
            raise ExportExhaustedError(
                f"key-group {group} has no chunks left to send"
            )
        entries = self._staged[group]
        start = self._cursor[group]
        end = start
        size = 0
        while end < len(entries) and (size == 0 or size < self._chunk_bytes):
            size += entries[end].payload_bytes
            end += 1
        self._cursor[group] = end
        seq = self._seq[group]
        self._seq[group] = seq + 1
        last = end >= len(entries)
        if last:
            self._done.add(group)
        return StateChunk(group, seq, entries[start:end], last)

    def skip_transfer(self, group: int) -> None:
        """Mark ``group`` transferred without sending any chunks.

        Used by the checkpoint-seeded rescale path: the destination is
        seeded from the latest checkpoint's shard, so no live bytes move
        — but the rollback copy is kept until :meth:`commit` exactly as
        for a chunked transfer, so an abort can still re-import the
        group at its old owner.
        """
        if group in self._staged:
            self._cursor[group] = len(self._staged[group])
            self._done.add(group)

    def commit(self, group: int) -> None:
        """Drop the rollback copy of a cut-over group."""
        self._staged.pop(group, None)

    def rollback_entries(self, group: int) -> list[ExportedEntry]:
        """All entries of a not-yet-committed group, for re-import at the
        old owner (sent-but-not-cut-over chunks included)."""
        entries = self._staged.pop(group, [])
        self._done.add(group)
        return entries


class WriteBatch:
    """Accumulate-then-commit mutation batch for a :class:`KVStore`.

    The plyvel/RocksDB ``WriteBatch`` idiom: ops are buffered in this
    object and *nothing* reaches the store until :meth:`commit` hands the
    whole ordered op list to the store's ``apply_write_batch`` in one
    call.  That gives the batch its atomicity story: no device write can
    land mid-batch (a torn write cannot leave a prefix of the batch on
    disk), and a batch abandoned before commit — including via an
    exception inside the ``with`` block — applies nothing at all.

    Usable as a context manager; a clean exit commits, an exception
    discards the buffered ops and re-raises.
    """

    __slots__ = ("_target", "_ops", "_committed")

    def __init__(self, target: Any) -> None:
        self._target = target
        self._ops: list[tuple[str, bytes, bytes | None]] = []
        self._committed = False

    def __len__(self) -> int:
        return len(self._ops)

    def put(self, key: bytes, value: bytes) -> None:
        self._ops.append(("put", key, value))

    def append(self, key: bytes, value: bytes) -> None:
        self._ops.append(("append", key, value))

    def delete(self, key: bytes) -> None:
        self._ops.append(("delete", key, None))

    def commit(self) -> None:
        """Apply every buffered op, in order, in one store call."""
        if self._committed:
            return
        self._committed = True
        ops, self._ops = self._ops, []
        if ops:
            self._target.apply_write_batch(ops)

    def discard(self) -> None:
        """Drop the buffered ops without applying them."""
        self._committed = True
        self._ops = []

    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


class KVStore(ABC):
    """Generic persistent KV store interface (byte keys, byte values)."""

    @abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Return the (fully merged) value for ``key``, or None."""

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    @abstractmethod
    def multi_append(self, entries: Iterable[tuple[bytes, bytes]]) -> None:
        """Append each ``(key, value)`` entry, in order, to the list of
        values stored under its key — the store's one append body.

        For the LSM store an entry is a RocksDB-style merge operand (lazy
        merging); for the hash store it is a read-modify-write of the whole
        list (the paper's Faster I/O-amplification failure mode).  Every
        simulated charge and flush check stays per entry, so how callers
        group entries into calls never shows on the simulated clock.
        """

    def append(self, key: bytes, value: bytes) -> None:
        """Append one ``value`` under ``key`` (:meth:`multi_append` of one)."""
        self.multi_append(((key, value),))

    @abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove ``key`` (tombstone for log-structured stores)."""

    @abstractmethod
    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all live ``(key, merged_value)`` pairs with ``prefix``,
        in key order for sorted stores."""

    @abstractmethod
    def flush(self) -> None:
        """Persist buffered writes."""

    @abstractmethod
    def close(self) -> None:
        """Release resources; the store must not be used afterwards."""

    @property
    @abstractmethod
    def memory_bytes(self) -> int:
        """Approximate bytes of live in-memory structures."""

    @property
    def disk_bytes(self) -> int:
        """Approximate bytes of on-disk structures (0 for pure-memory)."""
        return 0

    # --- checkpointing (§8, Fault Tolerance) ----------------------------
    @abstractmethod
    def snapshot(self):
        """Capture a sealed :class:`repro.snapshot.StoreSnapshot` (buffered
        writes flushed first)."""

    @abstractmethod
    def restore(self, snapshot) -> None:
        """Load a snapshot into this freshly constructed (empty) store."""

    # --- semantic prefetching (optional) --------------------------------
    # True when appends internally *read* existing state (the hash store's
    # RCU read of the old value list); such stores benefit from prefetching
    # the keys a batch is about to append to.  LSM appends are blind merge
    # operands, so the default is False.
    append_reads = False

    @property
    def prefetch_active(self) -> bool:
        """True when a prefetch executor is attached to this store."""
        return False

    def prefetch_scan(self, prefix: bytes) -> None:
        """Hint: a prefix scan over ``prefix`` is imminent (AAR trigger).

        Disk stores with an attached :class:`repro.prefetch.
        PrefetchExecutor` override this to pre-read the blocks the scan
        will touch; the default is a no-op.  Hints are advisory — they
        may not change store contents or job output in any way.
        """

    def prefetch_get(self, keys: list[bytes]) -> None:
        """Hint: point reads of ``keys`` are imminent (RMW/AUR trigger)."""

    # --- staged commit ---------------------------------------------------
    def write_batch(self) -> WriteBatch:
        """An accumulate-then-commit :class:`WriteBatch` bound to this
        store.  No device write happens until the batch commits."""
        return WriteBatch(self)

    def apply_write_batch(self, ops: list[tuple[str, bytes, bytes | None]]) -> None:
        """Apply a committed :class:`WriteBatch`'s ordered op list.

        The default dispatches per op; the LSM and hash stores override
        to stage every op in memory before any flush-threshold check runs,
        so the batch reaches the device as a unit (never a torn prefix).
        """
        for op, key, value in ops:
            if op == "put":
                self.put(key, value)
            elif op == "append":
                self.append(key, value)
            elif op == "delete":
                self.delete(key)
            else:
                raise UnknownBatchOpError(op)


class WindowStateBackend(ABC):
    """Window-operator-facing state interface.

    Values and aggregates cross this boundary as Python objects; backends
    that persist to the simulated device serialize them (and charge serde
    time), the heap backend stores them directly (as Flink's heap state
    does).  ``read_window`` / ``read_key_window`` / ``rmw_remove`` are
    *fetch-and-remove*, matching Listing 1 in the paper.
    """

    # --- append-pattern (list state) -----------------------------------
    @abstractmethod
    def multi_append(
        self, entries: Iterable[tuple[bytes, Window, Any, float]]
    ) -> None:
        """Add each ``(key, window, value, timestamp)`` entry, in order, to
        the list state of its ``(key, window)`` — the backend's one append
        body, called by the window operator with a whole record batch.

        Charges stay per entry in per-category order, so batch size is a
        host-time knob only and never shows on the simulated clock.
        """

    def append(self, key: bytes, window: Window, value: Any, timestamp: float) -> None:
        """Add one ``value`` to ``(key, window)`` (:meth:`multi_append` of one)."""
        self.multi_append(((key, window, value, timestamp),))

    @abstractmethod
    def read_window(self, window: Window) -> Iterator[tuple[bytes, list[Any]]]:
        """Fetch & remove all keys of ``window`` (aligned trigger).

        Yields ``(key, values)`` pairs; backends may load gradually so
        only a partition of the window is resident at once (FlowKV §4.1).
        """

    @abstractmethod
    def read_key_window(self, key: bytes, window: Window) -> list[Any]:
        """Fetch & remove the values of one ``(key, window)`` (unaligned)."""

    # --- read-modify-write pattern (aggregate state) --------------------
    @abstractmethod
    def rmw_get(self, key: bytes, window: Window) -> Any | None:
        """Read the current aggregate of ``(key, window)`` (no removal)."""

    @abstractmethod
    def rmw_put(self, key: bytes, window: Window, aggregate: Any) -> None:
        """Write back the updated aggregate of ``(key, window)``."""

    @abstractmethod
    def rmw_remove(self, key: bytes, window: Window) -> Any | None:
        """Fetch & remove the aggregate of ``(key, window)`` (trigger)."""

    # --- lifecycle ------------------------------------------------------
    @abstractmethod
    def flush(self) -> None: ...

    @abstractmethod
    def close(self) -> None: ...

    @property
    @abstractmethod
    def memory_bytes(self) -> int: ...

    def on_watermark(self, timestamp: float) -> None:
        """Advance the backend's notion of time (enables prefetching)."""

    # --- semantic prefetching (optional) --------------------------------
    # Operators emit advisory hints about imminent state accesses; a
    # backend whose store has a prefetch executor attached translates
    # them into background block reads.  Defaults: disabled, no-ops.
    @property
    def prefetch_enabled(self) -> bool:
        """True when hints reach an attached prefetch executor."""
        return False

    def prefetch_window(self, window: Window) -> None:
        """Hint: an aligned trigger will scan all keys of ``window``."""

    def prefetch_keys(self, window: Window, keys: list[bytes]) -> None:
        """Hint: per-key reads of ``(key, window)`` cells are imminent."""

    def prefetch_write_keys(
        self, entries: list[tuple[bytes, Window]]
    ) -> None:
        """Hint: appends to these ``(key, window)`` cells are imminent
        (useful only for stores whose appends read old state)."""

    # --- state movement (§8: checkpoint, restore, failover, rescale) ----
    # Required of every backend: the checkpointer, the recovery manager,
    # both rescale paths and changelog replication call these directly.
    @abstractmethod
    def snapshot(self):
        """Capture a :class:`repro.snapshot.StoreSnapshot` of this backend.

        Implementations flush in-memory buffers first so the bulk of the
        snapshot is on-disk files that an SPE can upload asynchronously.
        Used for whole-store checkpoint epochs (``incremental=False``).
        """

    @abstractmethod
    def restore(self, snapshot) -> None:
        """Load a snapshot into this (freshly constructed) backend."""

    @abstractmethod
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        """Extract *and remove* all state of ``key_groups``.

        Implementations flush buffered writes first, read the moved state
        back (charging the reads to the ``migration`` ledger category
        where the backend controls the charge), and leave the remaining
        key-groups untouched.  The returned export is what a rescale
        transfers to the new owner.
        """

    @abstractmethod
    def import_state(self, export: StateExport) -> None:
        """Load a :class:`StateExport` produced by a peer instance, a
        checkpoint shard chain or a standby replica."""

    @abstractmethod
    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Extract — *without removing* — all state of ``key_groups``.

        The non-destructive sibling of :meth:`export_state`: the sharded
        checkpointer reads state out through this to write per-group
        shard files while the backend keeps serving.  ``key_groups`` of
        ``None`` means every group (a full snapshot epoch).  Reads are
        charged to the ``recovery`` ledger category.
        """

    @abstractmethod
    def dirty_groups(self) -> frozenset[int]:
        """Key-groups semantically mutated since the last :meth:`clear_dirty`.

        The incremental checkpointer writes only these groups' shards per
        epoch and references the previous epoch's shards for the rest;
        the seeded rescale path trusts a clean group's checkpoint shard
        to equal its live state.
        """

    @abstractmethod
    def clear_dirty(self) -> None:
        """Reset dirty tracking (called once a checkpoint epoch commits)."""

    @property
    @abstractmethod
    def checkpoint_key_groups(self) -> int:
        """Group-space resolution of dirty tracking and checkpoint shards."""

    @abstractmethod
    def attach_changelog(self, writer) -> None:
        """Route semantic mutations into a :class:`repro.changelog.
        ChangelogWriter` as well (changelog replication)."""


def composite_key(window: Window, key: bytes) -> bytes:
    """``window || key`` composite encoding used by generic-KV glue.

    The window comes first so that a sorted store clusters all keys of one
    window together and an aligned trigger becomes a prefix scan — this is
    how Flink lays out window state in RocksDB.
    """
    return window.key_bytes() + key


def split_composite_key(data: bytes) -> tuple[Window, bytes]:
    """Inverse of :func:`composite_key`."""
    return Window.from_key_bytes(data), bytes(data[16:])
