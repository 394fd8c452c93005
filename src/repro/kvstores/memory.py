"""Flink-style heap state backend with a JVM garbage-collection cost model.

The paper's in-memory baseline stores all window state as objects on the
JVM heap.  Two behaviours matter for the evaluation and are modelled here:

* **GC pressure** — collection work grows super-linearly as heap occupancy
  approaches capacity (§6.1: "the in-memory store suffers from the JVM
  garbage collection, which becomes severe as the state size increases"),
  which is why FlowKV sometimes beats the in-memory store.
* **OOM failure** — state that outgrows the heap kills the job (the
  crossed bars of Figure 8 and early failures of Figure 9), surfaced as
  :class:`~repro.errors.StoreOOMError`.

Objects are stored directly (no serde), as Flink's heap backend does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.errors import StoreClosedError, StoreOOMError
from repro.kvstores.api import (
    KIND_AGG,
    KIND_LIST,
    ExportedEntry,
    KeyGroupDirtyTracker,
    KeyGroupFn,
    StateExport,
    WindowStateBackend,
)
from repro.model import PickleSerde, Window
from repro.simenv import (
    CAT_CHANGELOG,
    CAT_GC,
    CAT_MIGRATION,
    CAT_RECOVERY,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    SimEnv,
)

# Per-object JVM overhead: header + reference + list-node bookkeeping.
OBJECT_OVERHEAD_BYTES = 48


@dataclass(frozen=True)
class GcModel:
    """Amortized garbage-collection cost charged per allocated byte.

    The charge per allocated byte is proportional to
    ``1 / (1 - occupancy)`` (clamped), so a nearly-full heap spends most
    of its time collecting — a standard copying-collector survival-cost
    approximation: each minor collection copies live bytes, and
    collections happen once per young generation's worth of allocation,
    so cost per allocated byte scales with live/free.

    GC is CPU work, so the per-byte cost is expressed as a multiple of
    the environment's ``copy_per_byte`` — it scales with the cost menu
    (important for the uniformly-slowed latency runs).
    """

    copy_cost_multiple: float = 1.4
    max_pressure: float = 50.0

    def cost(self, allocated_bytes: int, occupancy: float, copy_per_byte: float) -> float:
        pressure = min(self.max_pressure, 1.0 / max(1e-9, 1.0 - occupancy))
        return allocated_bytes * copy_per_byte * self.copy_cost_multiple * pressure


class HeapWindowBackend(WindowStateBackend):
    """Dict-of-dicts window state held as live Python objects.

    Layout mirrors Flink's heap keyed state: an outer map per window
    namespace, an inner map per key.  List state and aggregate state are
    kept in separate namespaces like Flink's ListState/ValueState.
    """

    def __init__(
        self,
        env: SimEnv,
        capacity_bytes: int = 512 << 20,
        gc_model: GcModel | None = None,
        sizer: Callable[[Any], int] | None = None,
    ) -> None:
        self._env = env
        self._capacity = capacity_bytes
        self._gc = gc_model or GcModel()
        self._sizer = sizer or _default_sizer
        # window -> key -> list of values (append pattern)
        self._lists: dict[Window, dict[bytes, list[Any]]] = {}
        # window -> key -> aggregate (RMW pattern)
        self._aggs: dict[Window, dict[bytes, Any]] = {}
        self._live_bytes = 0
        self._closed = False
        self._dirty = KeyGroupDirtyTracker()
        self._log_serde = PickleSerde()

    def attach_changelog(self, writer) -> None:
        """Route semantic mutations into a changelog writer (replication)."""
        self._dirty.changelog = writer

    def _log_payload(self, value: Any) -> bytes:
        """Serialize a heap object for the changelog — an extra cost the
        heap backend pays only while replication is on (objects live raw)."""
        data = self._log_serde.serialize(value)
        self._env.charge_cpu(CAT_CHANGELOG, self._env.cpu.serde(len(data)))
        return data

    @property
    def checkpoint_key_groups(self) -> int:
        """Group-space resolution of dirty tracking and checkpoint shards."""
        return self._dirty.max_key_groups

    def dirty_groups(self) -> frozenset[int]:
        return self._dirty.groups()

    def clear_dirty(self) -> None:
        self._dirty.clear()

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self._live_bytes

    @property
    def occupancy(self) -> float:
        return self._live_bytes / self._capacity if self._capacity else 1.0

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("heap backend is closed")

    def _allocate(self, payload_bytes: int) -> None:
        """Account an allocation: GC charge, then OOM check."""
        allocated = payload_bytes + OBJECT_OVERHEAD_BYTES
        self._env.charge_cpu(
            CAT_GC, self._gc.cost(allocated, self.occupancy, self._env.cpu.copy_per_byte)
        )
        self._env.charge_cpu(CAT_STORE_WRITE, self._env.cpu.allocation)
        self._live_bytes += allocated
        if self._live_bytes > self._capacity:
            raise StoreOOMError(
                f"heap state {self._live_bytes}B exceeds capacity {self._capacity}B"
            )

    def _release(self, payload_bytes: int, count: int = 1) -> None:
        self._live_bytes -= payload_bytes + count * OBJECT_OVERHEAD_BYTES
        if self._live_bytes < 0:
            self._live_bytes = 0

    # ------------------------------------------------------------------
    # append pattern
    # ------------------------------------------------------------------
    def multi_append(
        self, entries: Iterable[tuple[bytes, Window, Any, float]]
    ) -> None:
        """One open check and hoisted lookups per call; every charge per
        entry — GC pressure and the OOM check evolve with heap occupancy
        entry by entry, whatever the batch size."""
        self._check_open()
        charge = self._env.charge_cpu
        probe2 = 2 * self._env.cpu.hash_probe
        lists = self._lists
        dirty = self._dirty
        logging = dirty.logging
        mark_key = dirty.mark_key
        sizer = self._sizer
        allocate = self._allocate
        for key, window, value, _timestamp in entries:
            charge(CAT_STORE_WRITE, probe2)
            per_key = lists.get(window)
            if per_key is None:
                per_key = lists[window] = {}
            size = sizer(value)
            bucket = per_key.get(key)
            if bucket is None:
                per_key[key] = [(value, size)]
            else:
                bucket.append((value, size))
            if logging:
                dirty.log_append(key, window, KIND_LIST, (self._log_payload(value),))
            else:
                mark_key(key)
            allocate(size)

    def read_window(self, window: Window) -> Iterator[tuple[bytes, list[Any]]]:
        self._check_open()
        per_key = self._lists.pop(window, None)
        if per_key is None:
            return
        self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.hash_probe)
        for key, sized_values in per_key.items():
            self._env.charge_cpu(CAT_STORE_READ, self._env.cpu.hash_probe)
            values = [v for v, _size in sized_values]
            self._dirty.log_remove(key, window, KIND_LIST)
            self._release(sum(size for _v, size in sized_values), count=len(sized_values))
            yield key, values

    def read_key_window(self, key: bytes, window: Window) -> list[Any]:
        self._check_open()
        self._env.charge_cpu(CAT_STORE_READ, 2 * self._env.cpu.hash_probe)
        per_key = self._lists.get(window)
        if not per_key:
            return []
        sized_values = per_key.pop(key, [])
        if not per_key:
            self._lists.pop(window, None)
        if sized_values:
            self._dirty.log_remove(key, window, KIND_LIST)
        self._release(sum(size for _v, size in sized_values), count=len(sized_values))
        return [v for v, _size in sized_values]

    # ------------------------------------------------------------------
    # RMW pattern
    # ------------------------------------------------------------------
    def rmw_get(self, key: bytes, window: Window) -> Any | None:
        self._check_open()
        self._env.charge_cpu(CAT_STORE_READ, 2 * self._env.cpu.hash_probe)
        per_key = self._aggs.get(window)
        if per_key is None:
            return None
        entry = per_key.get(key)
        return entry[0] if entry is not None else None

    def rmw_put(self, key: bytes, window: Window, aggregate: Any) -> None:
        self._check_open()
        self._env.charge_cpu(CAT_STORE_WRITE, 2 * self._env.cpu.hash_probe)
        per_key = self._aggs.setdefault(window, {})
        new_size = self._sizer(aggregate)
        old = per_key.get(key)
        if old is not None:
            self._release(old[1])
        per_key[key] = (aggregate, new_size)
        if self._dirty.logging:
            self._dirty.log_put(key, window, KIND_AGG, (self._log_payload(aggregate),))
        else:
            self._dirty.mark_key(key)
        self._allocate(new_size)

    def rmw_remove(self, key: bytes, window: Window) -> Any | None:
        self._check_open()
        self._env.charge_cpu(CAT_STORE_READ, 2 * self._env.cpu.hash_probe)
        per_key = self._aggs.get(window)
        if per_key is None:
            return None
        entry = per_key.pop(key, None)
        if not per_key:
            self._aggs.pop(window, None)
        if entry is None:
            return None
        self._dirty.log_remove(key, window, KIND_AGG)
        self._release(entry[1])
        return entry[0]

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self._check_open()

    def snapshot(self):
        """Full heap capture (Flink's heap backend snapshots everything)."""
        from repro.snapshot import StoreSnapshot, pack_meta, seal_snapshot

        self._check_open()
        meta = pack_meta(
            self._env,
            {"lists": self._lists, "aggs": self._aggs, "live_bytes": self._live_bytes},
        )
        return seal_snapshot(self._env, StoreSnapshot("heap", meta))

    def restore(self, snapshot) -> None:
        from repro.errors import StoreRestoreError
        from repro.snapshot import unpack_meta, verify_snapshot

        self._check_open()
        verify_snapshot(self._env, snapshot)
        if self._lists or self._aggs:
            raise StoreRestoreError("restore into non-empty heap store")
        state = unpack_meta(self._env, snapshot.meta)
        self._lists = state["lists"]
        self._aggs = state["aggs"]
        self._live_bytes = state["live_bytes"]
        if self._live_bytes > self._capacity:
            raise StoreOOMError(
                f"restored state {self._live_bytes}B exceeds capacity {self._capacity}B"
            )

    # ------------------------------------------------------------------
    # elastic rescaling
    # ------------------------------------------------------------------
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        """Serialize & evict the moved key-groups (heap objects must be
        pickled to cross the instance boundary, charged as migration)."""
        self._check_open()
        serde = PickleSerde()
        export = StateExport()
        for window in list(self._lists):
            per_key = self._lists[window]
            for key in [k for k in per_key if key_group_of(k) in key_groups]:
                sized_values = per_key.pop(key)
                values: list[bytes] = []
                for value, _size in sized_values:
                    data = serde.serialize(value)
                    self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.serde(len(data)))
                    values.append(data)
                self._dirty.log_remove(key, window, KIND_LIST)
                self._release(
                    sum(size for _v, size in sized_values), count=len(sized_values)
                )
                export.entries.append(ExportedEntry(key, window, KIND_LIST, values))
            if not per_key:
                del self._lists[window]
        for window in list(self._aggs):
            per_key = self._aggs[window]
            for key in [k for k in per_key if key_group_of(k) in key_groups]:
                agg, size = per_key.pop(key)
                data = serde.serialize(agg)
                self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.serde(len(data)))
                self._dirty.log_remove(key, window, KIND_AGG)
                self._release(size)
                export.entries.append(ExportedEntry(key, window, KIND_AGG, [data]))
            if not per_key:
                del self._aggs[window]
        return export

    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Serialize the selected key-groups *without evicting them* —
        the sharded checkpointer's read path (charged as recovery)."""
        self._check_open()
        serde = PickleSerde()
        export = StateExport()

        def wanted(key: bytes) -> bool:
            return key_groups is None or key_group_of(key) in key_groups

        for window, per_key in self._lists.items():
            for key, sized_values in per_key.items():
                if not wanted(key):
                    continue
                self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.hash_probe)
                values: list[bytes] = []
                for value, _size in sized_values:
                    data = serde.serialize(value)
                    self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.serde(len(data)))
                    values.append(data)
                export.entries.append(ExportedEntry(key, window, KIND_LIST, values))
        for window, per_key in self._aggs.items():
            for key, (agg, _size) in per_key.items():
                if not wanted(key):
                    continue
                self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.hash_probe)
                data = serde.serialize(agg)
                self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.serde(len(data)))
                export.entries.append(ExportedEntry(key, window, KIND_AGG, [data]))
        return export

    def import_state(self, export: StateExport) -> None:
        self._check_open()
        serde = PickleSerde()
        for entry in export.entries:
            self._dirty.log_merge(entry.key, entry.window, entry.kind, entry.values)
            if entry.kind == KIND_LIST:
                bucket = self._lists.setdefault(entry.window, {}).setdefault(entry.key, [])
                for data in entry.values:
                    self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.serde(len(data)))
                    value = serde.deserialize(data)
                    size = self._sizer(value)
                    bucket.append((value, size))
                    self._allocate(size)
            else:
                data = entry.values[0]
                self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.serde(len(data)))
                agg = serde.deserialize(data)
                size = self._sizer(agg)
                per_key = self._aggs.setdefault(entry.window, {})
                old = per_key.get(entry.key)
                if old is not None:
                    self._release(old[1])
                per_key[entry.key] = (agg, size)
                self._allocate(size)

    def close(self) -> None:
        self._closed = True
        self._lists.clear()
        self._aggs.clear()
        self._live_bytes = 0


def _default_sizer(value: Any) -> int:
    """Cheap payload-size estimate for common value shapes."""
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, tuple):
        return 8 + sum(_default_sizer(v) for v in value)
    if isinstance(value, dict):
        return 16 + sum(_default_sizer(k) + _default_sizer(v) for k, v in value.items())
    if hasattr(value, "payload_bytes"):
        return int(value.payload_bytes)
    return 64
