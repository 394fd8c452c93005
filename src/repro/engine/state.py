"""State-backend glue between window operators and KV stores.

:class:`GenericKVBackend` adapts any byte-oriented :class:`KVStore`
(the LSM and hash-KV baselines) to the window-state interface the way
Flink's RocksDB backend does: composite ``window || key`` keys, list state
via merge/append, aligned triggers via prefix scans, serialization on
every access.  FlowKV and the heap backend implement the interface
natively.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.patterns import StorePattern, WindowKind, determine_pattern
from repro.kvstores.api import (
    KIND_AGG,
    KIND_LIST,
    ExportedEntry,
    KeyGroupDirtyTracker,
    KeyGroupFn,
    KVStore,
    StateExport,
    WindowStateBackend,
    composite_key,
    split_composite_key,
)
from repro.kvstores.lsm.format import pack_list_value, unpack_list_value
from repro.model import PickleSerde, Serde, Window
from repro.simenv import CAT_MIGRATION, CAT_RECOVERY, CAT_SERDE, SimEnv
from repro.storage.filesystem import SimFileSystem


@dataclass(frozen=True)
class OperatorInfo:
    """What a backend factory gets to know about a window operator.

    This is the information FlowKV extracts from function signatures at
    application launch (§3.1): whether aggregation is incremental and
    which window-function family is used — plus the §8 user hints for
    custom window functions (read-alignment annotation and a user ETT
    predictor).
    """

    name: str
    incremental: bool
    window_kind: WindowKind
    session_gap: float | None = None
    aligned_hint: bool | None = None
    ett_predictor: Any = None  # EttPredictor from the window assigner
    # Per-instance budget of in-flight background prefetches; 0 disables
    # prefetching entirely (no hints computed, no charges issued).
    prefetch_depth: int = 0

    @property
    def effective_aligned(self) -> bool:
        """Read alignment, honouring the §8 annotation for custom windows."""
        if self.window_kind is WindowKind.CUSTOM and self.aligned_hint is not None:
            return self.aligned_hint
        return self.window_kind.aligned

    @property
    def pattern(self) -> StorePattern:
        if self.incremental:
            return StorePattern.RMW
        if self.effective_aligned:
            return StorePattern.AAR
        return determine_pattern(self.incremental, self.window_kind)


# A factory builds one backend per physical operator instance.
BackendFactory = Callable[[SimEnv, SimFileSystem, str, OperatorInfo], WindowStateBackend]


class GenericKVBackend(WindowStateBackend):
    """Window state over a generic KV store (the §2.2 baseline glue).

    * list state  -> ``append(window||key, element)`` merge operands,
    * aligned trigger -> ``scan_prefix(window bytes)`` + per-key delete,
    * unaligned trigger -> ``get`` + ``delete``,
    * aggregates  -> ``put`` / ``get`` full values.
    """

    def __init__(
        self,
        env: SimEnv,
        store: KVStore,
        serde: Serde | None = None,
        pattern: StorePattern | None = None,
    ) -> None:
        self._env = env
        self._store = store
        self._serde = serde or PickleSerde()
        self._pattern = pattern
        self._dirty = KeyGroupDirtyTracker()

    @property
    def _kind(self) -> str:
        return KIND_AGG if self._pattern is StorePattern.RMW else KIND_LIST

    def attach_changelog(self, writer) -> None:
        """Route semantic mutations into a changelog writer (replication)."""
        self._dirty.changelog = writer

    @property
    def store(self) -> KVStore:
        return self._store

    @property
    def checkpoint_key_groups(self) -> int:
        """Group-space resolution of dirty tracking and checkpoint shards."""
        return self._dirty.max_key_groups

    def dirty_groups(self) -> frozenset[int]:
        return self._dirty.groups()

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def _encode(self, obj: Any) -> bytes:
        data = self._serde.serialize(obj)
        self._env.charge_cpu(CAT_SERDE, self._env.cpu.serde(len(data)))
        return data

    def _decode(self, data: bytes) -> Any:
        self._env.charge_cpu(CAT_SERDE, self._env.cpu.serde(len(data)))
        return self._serde.deserialize(data)

    # ------------------------------------------------------------------
    def multi_append(
        self, entries: Iterable[tuple[bytes, Window, Any, float]]
    ) -> None:
        """Encode + changelog + composite keys in one pass, then a single
        ``multi_append`` on the wrapped store.

        Charges are per entry; a batch only regroups them (all serde
        first, then all store writes), which preserves per-category
        charge order — and device I/O order, since only the store writes.
        """
        kind = self._kind
        encode = self._encode
        log_append = self._dirty.log_append
        encoded: list[tuple[bytes, bytes]] = []
        for key, window, value, _timestamp in entries:
            data = encode(value)
            log_append(key, window, kind, (data,))
            encoded.append((composite_key(window, key), data))
        self._store.multi_append(encoded)

    def read_window(self, window: Window) -> Iterator[tuple[bytes, list[Any]]]:
        prefix = window.key_bytes()
        to_delete: list[bytes] = []
        for ck, merged in self._store.scan_prefix(prefix):
            key = ck[16:]
            values = [self._decode(e) for e in unpack_list_value(merged)]
            to_delete.append(ck)
            self._dirty.log_remove(key, window, self._kind)
            yield key, values
        for ck in to_delete:
            self._store.delete(ck)

    def read_key_window(self, key: bytes, window: Window) -> list[Any]:
        ck = composite_key(window, key)
        merged = self._store.get(ck)
        if merged is None:
            return []
        self._dirty.log_remove(key, window, self._kind)
        self._store.delete(ck)
        return [self._decode(e) for e in unpack_list_value(merged)]

    # ------------------------------------------------------------------
    def rmw_get(self, key: bytes, window: Window) -> Any | None:
        data = self._store.get(composite_key(window, key))
        return None if data is None else self._decode(data)

    def rmw_put(self, key: bytes, window: Window, aggregate: Any) -> None:
        data = self._encode(aggregate)
        self._dirty.log_put(key, window, self._kind, (data,))
        self._store.put(composite_key(window, key), data)

    def rmw_remove(self, key: bytes, window: Window) -> Any | None:
        ck = composite_key(window, key)
        data = self._store.get(ck)
        if data is None:
            return None
        self._dirty.log_remove(key, window, self._kind)
        self._store.delete(ck)
        return self._decode(data)

    # ------------------------------------------------------------------
    # semantic prefetching: translate operator hints into store reads
    # according to the operator's FlowKV access class — AAR triggers scan
    # a whole window prefix, RMW/AUR triggers touch single cells.
    # ------------------------------------------------------------------
    @property
    def prefetch_enabled(self) -> bool:
        return self._store.prefetch_active

    def prefetch_window(self, window: Window) -> None:
        self._store.prefetch_scan(window.key_bytes())

    def prefetch_keys(self, window: Window, keys: list[bytes]) -> None:
        self._store.prefetch_get(
            [composite_key(window, key) for key in keys]
        )

    def prefetch_write_keys(
        self, entries: list[tuple[bytes, Window]]
    ) -> None:
        # Only worthwhile when the store's append path reads old state
        # (the hash store's RCU); LSM appends are blind merge operands.
        if self._store.append_reads:
            self._store.prefetch_get(
                [composite_key(window, key) for key, window in entries]
            )

    # ------------------------------------------------------------------
    # elastic rescaling: the generic glue can only find moved state by a
    # full scan — exactly the repartitioning cost a composite-keyed KV
    # layout pays (no key-group locality on disk).
    # ------------------------------------------------------------------
    def export_state(self, key_groups: set[int], key_group_of: KeyGroupFn) -> StateExport:
        self._store.flush()
        kind = KIND_AGG if self._pattern is StorePattern.RMW else KIND_LIST
        export = StateExport()
        moved: list[bytes] = []
        for ck, merged in self._store.scan_prefix(b""):
            window, key = split_composite_key(ck)
            if key_group_of(key) not in key_groups:
                continue
            self._env.charge_cpu(CAT_MIGRATION, self._env.cpu.serde(len(merged)))
            values = list(unpack_list_value(merged)) if kind == KIND_LIST else [merged]
            export.entries.append(ExportedEntry(key, window, kind, values))
            self._dirty.log_remove(key, window, kind)
            moved.append(ck)
        for ck in moved:
            self._store.delete(ck)
        return export

    def export_group_state(
        self, key_groups: set[int] | None, key_group_of: KeyGroupFn
    ) -> StateExport:
        """Same full scan as :meth:`export_state` but *non-destructive* —
        the sharded checkpointer's read path (charged as recovery)."""
        self._store.flush()
        kind = KIND_AGG if self._pattern is StorePattern.RMW else KIND_LIST
        export = StateExport()
        for ck, merged in self._store.scan_prefix(b""):
            window, key = split_composite_key(ck)
            if key_groups is not None and key_group_of(key) not in key_groups:
                continue
            self._env.charge_cpu(CAT_RECOVERY, self._env.cpu.serde(len(merged)))
            values = list(unpack_list_value(merged)) if kind == KIND_LIST else [merged]
            export.entries.append(ExportedEntry(key, window, kind, values))
        return export

    def import_state(self, export: StateExport) -> None:
        for entry in export.entries:
            self._dirty.log_merge(entry.key, entry.window, entry.kind, entry.values)
            ck = composite_key(entry.window, entry.key)
            self._env.charge_cpu(
                CAT_MIGRATION, self._env.cpu.serde(sum(len(v) for v in entry.values))
            )
            if entry.kind == KIND_LIST:
                # A single packed Put; later appends still merge after it,
                # matching the store's PUT-then-MERGE concatenation.
                self._store.put(ck, pack_list_value(entry.values))
            else:
                self._store.put(ck, entry.values[0])

    # ------------------------------------------------------------------
    def flush(self) -> None:
        self._store.flush()

    def snapshot(self):
        return self._store.snapshot()

    def restore(self, snapshot) -> None:
        self._store.restore(snapshot)

    def close(self) -> None:
        self._store.close()

    @property
    def memory_bytes(self) -> int:
        return self._store.memory_bytes
