"""Interval joins (§8, Join Operations).

The paper's windowed joins (Q8) fall out of window state naturally; it
names *interval joins* — ``right.ts in [left.ts + lower, left.ts + upper]``
per key — as the interesting extension.  Flink implements them with
per-key MapState buffers on both sides, cleaned up by watermark; this
operator does the same, holding the buffers in a
:class:`JoinStateBackend` (the horizon-bounded working set Flink would
keep hot) and charging engine CPU for probes and scans.

The backend side makes join state a first-class citizen of the
key-group machinery: the per-key side buffers export/import along
key-group boundaries exactly like window state (``crc32 %
max_key_groups``), serialize one blob per (key, side) for measurable
transfer volume charged to the ``migration`` ledger, snapshot/restore
whole for legacy
checkpoints, and shard incrementally with
:class:`~repro.kvstores.api.KeyGroupDirtyTracker` dirty marking.
Dirty-tracking rule: *semantic* mutations mark — inserts, imports, and
watermark expiry (an expired group's checkpoint shard must be rewritten
or dropped, or a restore would resurrect dead entries) — while probes
(reads) do not.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import StoreClosedError
from repro.kvstores.api import (
    DEFAULT_MAX_KEY_GROUPS,
    KIND_JOIN_LEFT,
    KIND_JOIN_RIGHT,
    ExportedEntry,
    KeyGroupDirtyTracker,
    KeyGroupFn,
    StateExport,
)
from repro.model import PickleSerde, StreamRecord, Window
from repro.simenv import (
    CAT_CHANGELOG,
    CAT_ENGINE,
    CAT_MIGRATION,
    CAT_QUERY,
    CAT_RECOVERY,
    SimEnv,
)

Collector = Callable[[StreamRecord], None]

LEFT = "L"
RIGHT = "R"

# Join buffers have no window namespace; exported entries carry this
# sentinel so they pack into the same per-group shard rows as window
# state (the side lives in the entry kind, the timestamps in the values).
_JOIN_WINDOW = Window(0.0, 1.0)

_SIDE_KIND = {LEFT: KIND_JOIN_LEFT, RIGHT: KIND_JOIN_RIGHT}
_KIND_SIDE = {KIND_JOIN_LEFT: LEFT, KIND_JOIN_RIGHT: RIGHT}
_NEG_INF = float("-inf")


class _SideBuffer:
    """Timestamp-sorted records of one side of one key, held as parallel
    ``stamps`` / ``values`` columns so searches are plain ``bisect``
    over floats (no key function per comparison)."""

    __slots__ = ("stamps", "values", "seq")

    def __init__(self, entries: Iterable[tuple[float, Any]] = (), seq: int = 0) -> None:
        self.stamps: list[float] = []
        self.values: list[Any] = []
        # Creation ticket from the owning backend: ascending ``seq`` is
        # the buffer's position in its side's dict order.
        self.seq = seq
        for timestamp, value in entries:
            self.stamps.append(timestamp)
            self.values.append(value)

    @property
    def entries(self) -> list[tuple[float, Any]]:
        """The ``(ts, value)`` pairs, in timestamp order (a fresh list)."""
        return list(zip(self.stamps, self.values))

    def add(self, timestamp: float, value: Any) -> int:
        """Insert after any equal timestamps; returns the new row's index
        (in-order arrivals append without a search)."""
        stamps = self.stamps
        if not stamps or timestamp >= stamps[-1]:
            stamps.append(timestamp)
            self.values.append(value)
            return len(stamps) - 1
        index = bisect_right(stamps, timestamp)
        stamps.insert(index, timestamp)
        self.values.insert(index, value)
        return index

    def range(self, low: float, high: float) -> list[tuple[float, Any]]:
        """Entries with ``low <= ts <= high``."""
        lo = bisect_left(self.stamps, low)
        hi = bisect_right(self.stamps, high)
        return list(zip(self.stamps[lo:hi], self.values[lo:hi]))

    def expire_before(self, timestamp: float) -> int:
        """Drop entries with ``ts < timestamp``; returns how many."""
        cut = bisect_left(self.stamps, timestamp)
        if cut:
            del self.stamps[:cut]
            del self.values[:cut]
        return cut


def _estimate_bytes(value: Any) -> int:
    """Cheap payload-size estimate (mirrors the heap backend's sizer)."""
    if hasattr(value, "payload_bytes"):
        return int(value.payload_bytes)
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, tuple):
        return 8 + sum(_estimate_bytes(v) for v in value)
    return 64


class JoinStateBackend:
    """Keyed interval-join buffer state with the backend protocol surface.

    Holds both sides' per-key :class:`_SideBuffer`\\ s and implements every
    state-movement member of :class:`~repro.kvstores.api.WindowStateBackend`,
    so the rescale executors (stop-the-world and live), the sharded
    checkpointer and the recovery restore path move join state through
    the exact code paths window state takes:

    * ``export_state`` / ``import_state`` — destructive key-group
      migration, per-entry serialization charged to ``migration``;
    * ``export_group_state`` — non-destructive sharded checkpoint reads,
      charged to ``recovery``;
    * ``snapshot`` / ``restore`` — sealed whole-store capture for
      non-incremental epochs;
    * ``dirty_groups`` / ``clear_dirty`` — inserts, imports *and
      watermark expiry* mark a key-group dirty (probes do not), so a
      delta epoch re-shards exactly the groups whose buffers changed and
      an expired-empty group's stale shard ref is dropped.
    """

    def __init__(self, env: SimEnv, max_key_groups: int = DEFAULT_MAX_KEY_GROUPS) -> None:
        self._env = env
        self._sides: dict[str, dict[bytes, _SideBuffer]] = {LEFT: {}, RIGHT: {}}
        # Expiry index, per side: a min-heap of ``(head, ticket, key,
        # buffer)`` with at least one entry per live buffer whose head is
        # <= the buffer's oldest timestamp (-inf while it is empty).
        # Entries of buffers that left the dict are skipped when popped.
        self._heads: dict[str, list[tuple[float, int, bytes, _SideBuffer]]] = {
            LEFT: [], RIGHT: [],
        }
        self._tickets = itertools.count()
        self._dirty = KeyGroupDirtyTracker(max_key_groups)
        self._closed = False
        self._log_serde = PickleSerde()

    def attach_changelog(self, writer) -> None:
        """Route semantic mutations into a changelog writer (replication)."""
        self._dirty.changelog = writer

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("join state backend is closed")

    # --- operator-facing buffer access ---------------------------------
    def buffer(self, side: str, key: bytes) -> _SideBuffer | None:
        """The side buffer of ``key`` (a probe — does not dirty)."""
        return self._sides[side].get(key)

    # --- semantic prefetching ------------------------------------------
    @property
    def prefetch_enabled(self) -> bool:
        """Join buffers are memory-resident: nothing to prefetch (yet).

        The hint surface exists so a spilling join backend can overlap
        buffer loads with probe compute the way window state does.
        """
        return False

    def prefetch_probe_keys(self, side: str, keys: list[bytes]) -> None:
        """Advisory hint: ``keys`` on ``side`` are about to be probed."""

    def _new_buffer(
        self, side: str, key: bytes, entries: Iterable[tuple[float, Any]] = ()
    ) -> _SideBuffer:
        """Append a buffer for ``key`` to the side's dict and index it."""
        buffer = _SideBuffer(entries, next(self._tickets))
        self._sides[side][key] = buffer
        self._index(side, key, buffer)
        return buffer

    def _index(self, side: str, key: bytes, buffer: _SideBuffer) -> None:
        """(Re-)enter ``buffer`` in the expiry index at its current head."""
        head = buffer.stamps[0] if buffer.stamps else _NEG_INF
        heapq.heappush(self._heads[side], (head, next(self._tickets), key, buffer))

    def insert(self, side: str, key: bytes, timestamp: float, value: Any) -> None:
        self._check_open()
        buffer = self._sides[side].get(key)
        if buffer is None:
            self._new_buffer(side, key, ((timestamp, value),))
        elif buffer.add(timestamp, value) == 0:
            self._index(side, key, buffer)  # a new, older head
        if self._dirty.logging:
            # Buffers live as raw objects; the (ts, value) pair is only
            # serialized for the changelog while replication is on.
            data = self._log_serde.serialize((timestamp, value))
            self._env.charge_cpu(CAT_CHANGELOG, self._env.cpu.serde(len(data)))
            self._dirty.log_append(key, _JOIN_WINDOW, _SIDE_KIND[side], (data,))
        else:
            self._dirty.mark_key(key)

    def expire(self, left_cut: float, right_cut: float) -> int:
        """Drop entries no watermark-respecting record can join anymore.

        Expiry is a semantic mutation: every key-group that lost entries
        is marked dirty so the next delta epoch rewrites (or, once empty,
        drops) its shard — otherwise a restore or checkpoint-seeded
        rescale would resurrect the expired entries.

        Only the buffers the expiry index holds below the cut (plus any
        empty ones) are visited, in the side dict's order — the order a
        full scan would trim them in, so the ``log_trim`` sequence and
        the dirty marks are those of a scan over every buffer.
        """
        self._check_open()
        total = 0
        for side, cut in ((LEFT, left_cut), (RIGHT, right_cut)):
            heap = self._heads[side]
            buffers = self._sides[side]
            due: dict[int, tuple[bytes, _SideBuffer]] = {}
            while heap and (heap[0][0] < cut or heap[0][0] == _NEG_INF):
                _head, _ticket, key, buffer = heapq.heappop(heap)
                if buffers.get(key) is buffer:
                    due[buffer.seq] = (key, buffer)
            kind = _SIDE_KIND[side]
            for seq in sorted(due):
                key, buffer = due[seq]
                expired = buffer.expire_before(cut)
                if expired:
                    total += expired
                    self._dirty.log_trim(key, kind, cut)
                if buffer.stamps:
                    self._index(side, key, buffer)
                else:
                    del buffers[key]
        return total

    def drop_all(self) -> None:
        """Discard every buffer (end-of-input teardown, no dirty marks)."""
        for side in (LEFT, RIGHT):
            self._sides[side].clear()
            self._heads[side].clear()

    # --- accounting -----------------------------------------------------
    @property
    def memory_entries(self) -> int:
        return sum(
            len(buffer.stamps)
            for buffers in self._sides.values()
            for buffer in buffers.values()
        )

    @property
    def memory_bytes(self) -> int:
        return sum(
            len(key) + sum(16 + _estimate_bytes(value) for value in buffer.values)
            for buffers in self._sides.values()
            for key, buffer in buffers.items()
        )

    # --- incremental checkpointing --------------------------------------
    @property
    def checkpoint_key_groups(self) -> int:
        """Group-space resolution of dirty tracking and checkpoint shards."""
        return self._dirty.max_key_groups

    def dirty_groups(self) -> frozenset[int]:
        return self._dirty.groups()

    def clear_dirty(self) -> None:
        self._dirty.clear()

    # --- checkpointing (whole-store) -------------------------------------
    def snapshot(self):
        """Sealed capture of both sides' buffers (non-incremental epochs)."""
        from repro.snapshot import StoreSnapshot, pack_meta, seal_snapshot

        self._check_open()
        meta = pack_meta(
            self._env,
            {
                side: {key: buffer.entries for key, buffer in buffers.items()}
                for side, buffers in self._sides.items()
            },
        )
        return seal_snapshot(self._env, StoreSnapshot("join", meta))

    def restore(self, snapshot) -> None:
        from repro.errors import StoreRestoreError
        from repro.snapshot import unpack_meta, verify_snapshot

        self._check_open()
        verify_snapshot(self._env, snapshot)
        if self._sides[LEFT] or self._sides[RIGHT]:
            raise StoreRestoreError("restore into non-empty join state backend")
        state = unpack_meta(self._env, snapshot.meta)
        for side in (LEFT, RIGHT):
            for key, entries in state[side].items():
                self._new_buffer(side, key, entries)

    # --- elastic rescaling (key-group migration) -------------------------
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        """Serialize & evict the moved key-groups' buffers (both sides).

        One :class:`ExportedEntry` per (key, side): the entry kind
        carries the side and the single value blob is the buffer's
        ``(ts, value)`` list serialized whole (timestamp order
        preserved, pickle memoization shared across entries), so
        transfer volume is measurable and charged to ``migration``.
        Vacated keys are marked dirty — the old owner's next delta epoch
        must drop their stale shards.
        """
        self._check_open()
        serde = PickleSerde()
        export = StateExport()
        for side in (LEFT, RIGHT):
            buffers = self._sides[side]
            for key in [k for k in buffers if key_group_of(k) in key_groups]:
                buffer = buffers.pop(key)
                data = serde.serialize(buffer.entries)
                self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.serde(len(data)))
                self._dirty.log_remove(key, _JOIN_WINDOW, _SIDE_KIND[side])
                export.entries.append(
                    ExportedEntry(key, _JOIN_WINDOW, _SIDE_KIND[side], [data])
                )
        return export

    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Serialize the selected key-groups *without evicting them* —
        the sharded checkpointer's read path (charged as recovery).
        ``None`` means every group (a full snapshot epoch)."""
        self._check_open()
        serde = PickleSerde()
        export = StateExport()
        for side in (LEFT, RIGHT):
            for key, buffer in self._sides[side].items():
                if key_groups is not None and key_group_of(key) not in key_groups:
                    continue
                self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.hash_probe)
                data = serde.serialize(buffer.entries)
                self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.serde(len(data)))
                export.entries.append(
                    ExportedEntry(key, _JOIN_WINDOW, _SIDE_KIND[side], [data])
                )
        return export

    def import_state(self, export: StateExport) -> None:
        self._check_open()
        serde = PickleSerde()
        for entry in export.entries:
            side = _KIND_SIDE.get(entry.kind)
            if side is None:
                raise ValueError(f"not a join state entry kind: {entry.kind!r}")
            self._dirty.log_merge(entry.key, entry.window, entry.kind, entry.values)
            buffers = self._sides[side]
            buffer = buffers.get(entry.key)
            decoded: list[tuple[float, Any]] = []
            for data in entry.values:
                self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.serde(len(data)))
                decoded.extend(serde.deserialize(data))
            if buffer is None:
                # Exported in timestamp order; lands sorted as-is.
                self._new_buffer(side, entry.key, decoded)
            else:
                rows = [buffer.add(timestamp, value) for timestamp, value in decoded]
                if 0 in rows:
                    self._index(side, entry.key, buffer)  # a new, older head

    # --- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        self._check_open()

    def close(self) -> None:
        self._closed = True
        self.drop_all()


@dataclass
class IntervalJoinOperator:
    """One physical instance of a keyed interval join.

    Inputs arrive tagged ``(side, value)`` where side is ``"L"``/``"R"``.
    For every new record the opposite buffer is probed for partners whose
    timestamps satisfy the interval; matches emit ``join_fn(left, right)``
    with the later timestamp.  Watermarks expire buffer entries that can
    no longer join anything.

    State lives in a :class:`JoinStateBackend` (self-created on ``open``
    when none is supplied), which carries the export/import, snapshot and
    dirty-tracking surface the rescale and recovery subsystems drive.
    """

    lower: float
    upper: float
    join_fn: Callable[[Any, Any], Any]
    name: str = "interval_join"

    env: SimEnv = field(init=False, default=None)
    backend: JoinStateBackend = field(init=False, default=None)
    collector: Collector = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"interval lower {self.lower} > upper {self.upper}")
        self.results_emitted = 0

    def open(self, env: SimEnv, backend: JoinStateBackend | None, collector: Collector) -> None:
        self.env = env
        self.backend = backend if backend is not None else JoinStateBackend(env)
        self.collector = collector

    @property
    def memory_entries(self) -> int:
        return self.backend.memory_entries if self.backend is not None else 0

    # ------------------------------------------------------------------
    def process(self, record: StreamRecord) -> None:
        env = self.env
        cpu = env.cpu
        charge = env.charge_cpu
        charge(CAT_ENGINE, cpu.function_call)
        side, value = record.value
        key = record.key
        timestamp = record.timestamp
        if side == LEFT:
            other = RIGHT
            low = timestamp + self.lower
            high = timestamp + self.upper
        elif side == RIGHT:
            other = LEFT
            # right.ts in [left.ts + lower, left.ts + upper]  <=>
            # left.ts in [right.ts - upper, right.ts - lower]
            low = timestamp - self.upper
            high = timestamp - self.lower
        else:
            raise ValueError(f"interval join record without side tag: {record.value!r}")
        charge(CAT_ENGINE, 2 * cpu.hash_probe)
        partners = self.backend.buffer(other, key)
        if partners is not None:
            stamps = partners.stamps
            lo = bisect_left(stamps, low)
            hi = bisect_right(stamps, high)
            charge(
                CAT_ENGINE,
                cpu.sorted_search(max(1, len(stamps))) + (hi - lo) * cpu.branch_step,
            )
            for partner_ts, partner_value in zip(stamps[lo:hi], partners.values[lo:hi]):
                charge(CAT_QUERY, cpu.function_call)
                if side == LEFT:
                    output = self.join_fn(value, partner_value)
                else:
                    output = self.join_fn(partner_value, value)
                self.results_emitted += 1
                self.collector(StreamRecord(key, output, max(timestamp, partner_ts)))
        self.backend.insert(side, key, timestamp, value)

    def process_batch(self, records: list[StreamRecord]) -> None:
        """Batch entry point — a strict per-record loop.

        Probe-then-insert ordering *is* the join semantics (a record must
        not see same-batch partners before they are inserted in arrival
        order), so the interval join takes no intra-batch shortcuts; the
        batch path only saves the engine's per-record dispatch above.

        With a prefetch-capable backend the batch's probe keys are
        hinted up front (each record probes the *opposite* side buffer of
        its key), overlapping buffer loads with the per-record compute.
        """
        if getattr(self.backend, "prefetch_enabled", False):
            probes: dict[str, list[bytes]] = {LEFT: [], RIGHT: []}
            seen: set[tuple[str, bytes]] = set()
            for record in records:
                side = record.value[0]
                other = RIGHT if side == LEFT else LEFT
                if (other, record.key) not in seen:
                    seen.add((other, record.key))
                    probes[other].append(record.key)
            for side, keys in probes.items():
                if keys:
                    self.backend.prefetch_probe_keys(side, keys)
        process = self.process
        for record in records:
            process(record)

    def on_watermark(self, watermark: float) -> None:
        """Expire entries that can no longer find a partner.

        A left record at ``ts`` can still match right records up to
        ``ts + upper``; once the watermark passes that, it is dead.
        Symmetrically for the right side.
        """
        expired = self.backend.expire(watermark - self.upper, watermark + self.lower)
        if expired:
            self.env.charge_cpu(CAT_ENGINE, expired * self.env.cpu.branch_step)

    # ------------------------------------------------------------------
    # rescale / checkpoint protocol (the keyed state is all in the
    # backend; the operator itself carries no per-key metadata)
    # ------------------------------------------------------------------
    def export_keyed_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> dict:
        """Keyed operator metadata of the moved groups — none for joins;
        the canonical empty shape keeps the migration splitters generic."""
        return {
            "sessions": {},
            "window_keys": [],
            "count_state": {},
            "pending_aligned": set(),
            "max_timestamp": float("-inf"),
        }

    def import_keyed_state(self, state: dict) -> None:
        """Nothing to merge: join state moves entirely via the backend."""

    def checkpoint_state(self) -> dict:
        return {"results_emitted": self.results_emitted}

    def restore_checkpoint_state(self, state: dict) -> None:
        self.results_emitted = state["results_emitted"]

    def finish(self) -> None:
        self.backend.drop_all()
