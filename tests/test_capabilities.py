"""Capability discovery: typed errors instead of NotImplementedError.

Backends advertise optional features (snapshot, rescale) through a
``capabilities`` frozenset; callers that need one check it up front with
:func:`require_capability` and get a typed, actionable
:class:`UnsupportedOperationError` — never a bare ``NotImplementedError``
halfway through a checkpoint or migration.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import replace

import pytest

import repro
from repro.bench.harness import run_query
from repro.bench.profiles import TINY_PROFILE
from repro.core import FlowKVComposite
from repro.core.patterns import StorePattern, WindowKind
from repro.engine.state import GenericKVBackend, OperatorInfo
from repro.errors import StoreError, UnsupportedOperationError
from repro.kvstores.api import (
    CAP_INCREMENTAL,
    CAP_RESCALE,
    CAP_SNAPSHOT,
    KVStore,
    WindowStateBackend,
    require_capability,
)
from repro.model import GLOBAL_WINDOW
from repro.kvstores.hashkv import FasterStore
from repro.kvstores.lsm import LsmStore
from repro.kvstores.memory import HeapWindowBackend
from repro.simenv import SimEnv
from repro.storage import SimFileSystem


class BareBackend(WindowStateBackend):
    """A backend implementing only the required surface — no optionals."""

    def multi_append(self, entries):
        pass

    def read_window(self, window):
        return iter(())

    def read_key_window(self, key, window):
        return []

    def rmw_get(self, key, window):
        return None

    def rmw_put(self, key, window, aggregate):
        pass

    def rmw_remove(self, key, window):
        return None

    def flush(self):
        pass

    def close(self):
        pass

    @property
    def memory_bytes(self):
        return 0


class BareStore(KVStore):
    """A KV store with no optional capabilities."""

    def get(self, key):
        return None

    def put(self, key, value):
        pass

    def multi_append(self, entries):
        pass

    def delete(self, key):
        pass

    def scan_prefix(self, prefix):
        return iter(())

    def flush(self):
        pass

    def close(self):
        pass

    @property
    def memory_bytes(self):
        return 0


def heap_backend():
    return HeapWindowBackend(SimEnv(), 1 << 20)


class TestAdvertisedCapabilities:
    def test_heap_backend_supports_everything(self):
        assert heap_backend().capabilities == {
            CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL,
        }

    def test_flowkv_supports_everything(self):
        env = SimEnv()
        backend = FlowKVComposite(env, SimFileSystem(env), StorePattern.AAR)
        assert backend.capabilities == {
            CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL,
        }

    def test_generic_kv_inherits_snapshot_from_store(self):
        env = SimEnv()
        for store_cls in (LsmStore, FasterStore):
            store = store_cls(env, SimFileSystem(env), "s")
            assert store.capabilities == {CAP_SNAPSHOT}
            backend = GenericKVBackend(env, store)
            assert backend.capabilities == {
                CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL,
            }

    def test_generic_kv_over_bare_store_can_rescale_not_snapshot(self):
        # export/import (and the dirty-group bookkeeping riding on it) is
        # implemented generically on top of scan/put, but snapshotting
        # needs the store's own support.
        backend = GenericKVBackend(SimEnv(), BareStore())
        assert backend.capabilities == {CAP_RESCALE, CAP_INCREMENTAL}

    def test_base_classes_advertise_nothing(self):
        assert BareBackend().capabilities == frozenset()
        assert BareStore().capabilities == frozenset()


class TestTypedErrors:
    def test_optional_methods_raise_typed_error(self):
        backend = BareBackend()
        with pytest.raises(UnsupportedOperationError) as exc_info:
            backend.snapshot()
        err = exc_info.value
        assert err.backend == "BareBackend"
        assert err.capability == CAP_SNAPSHOT
        assert err.operation == "snapshot"
        # The typed error is still a StoreError, so existing generic
        # fault handling keeps working.
        assert isinstance(err, StoreError)
        with pytest.raises(UnsupportedOperationError):
            backend.restore(object())
        with pytest.raises(UnsupportedOperationError):
            backend.export_state({0}, lambda key: 0)
        with pytest.raises(UnsupportedOperationError):
            backend.import_state(object())

    def test_require_capability_passes_and_fails(self):
        require_capability(heap_backend(), CAP_RESCALE, "export_state")
        with pytest.raises(UnsupportedOperationError, match="does not support"):
            require_capability(BareBackend(), CAP_RESCALE, "export_state")

    def test_message_is_actionable(self):
        with pytest.raises(UnsupportedOperationError, match="capabilities"):
            require_capability(BareBackend(), CAP_SNAPSHOT)

    def test_message_lists_advertised_capabilities(self):
        # The error names what the store *does* advertise, so the caller
        # can see at a glance whether they hold the wrong backend or just
        # asked for the wrong feature.
        with pytest.raises(UnsupportedOperationError) as exc_info:
            require_capability(BareBackend(), CAP_RESCALE, "export_state")
        assert "advertises no optional capabilities" in str(exc_info.value)
        backend = GenericKVBackend(SimEnv(), BareStore())
        with pytest.raises(UnsupportedOperationError) as exc_info:
            require_capability(backend, CAP_SNAPSHOT, "snapshot")
        message = str(exc_info.value)
        assert "it advertises:" in message
        for cap in sorted(backend.capabilities):
            assert cap in message
        assert exc_info.value.advertised == backend.capabilities


class TestOneAppendBody:
    """``multi_append`` is the append body a backend or store writes;
    the per-entry ``append`` is derived from it in the base classes."""

    def test_bare_backend_answers_append_through_multi_append(self):
        calls = []

        class RecordingBackend(BareBackend):
            def multi_append(self, entries):
                calls.extend(entries)

        backend = RecordingBackend()
        backend.append(b"a", GLOBAL_WINDOW, 1, 0.0)
        backend.multi_append([(b"b", GLOBAL_WINDOW, 2, 1.0)])
        assert calls == [(b"a", GLOBAL_WINDOW, 1, 0.0), (b"b", GLOBAL_WINDOW, 2, 1.0)]

    def test_bare_store_write_batch_applies_on_commit(self):
        class RecordingStore(BareStore):
            def __init__(self):
                self.ops = []

            def put(self, key, value):
                self.ops.append(("put", key, value))

            def multi_append(self, entries):
                self.ops.extend(("append", key, value) for key, value in entries)

        store = RecordingStore()
        with store.write_batch() as batch:
            batch.put(b"k", b"v")
            batch.append(b"k", b"w")
            assert store.ops == []  # nothing reaches the store pre-commit
        assert store.ops == [("put", b"k", b"v"), ("append", b"k", b"w")]

    def test_abandoned_write_batch_applies_nothing(self):
        class RecordingStore(BareStore):
            def __init__(self):
                self.ops = []

            def put(self, key, value):
                self.ops.append(("put", key, value))

        store = RecordingStore()
        with pytest.raises(RuntimeError):
            with store.write_batch() as batch:
                batch.put(b"k", b"v")
                raise RuntimeError("operator failed mid-batch")
        assert store.ops == []


def _public_names(cls):
    return {name for name in vars(cls) if not name.startswith("_")}


class TestSurfacePin:
    """The store API is the pattern calls of the paper's Listing 1 plus
    lifecycle, hints and the optional capabilities — growing it again is
    a deliberate act that edits these sets."""

    def test_window_state_backend_surface(self):
        assert _public_names(WindowStateBackend) == {
            "multi_append", "append", "read_window", "read_key_window",
            "rmw_get", "rmw_put", "rmw_remove",
            "flush", "close", "memory_bytes", "on_watermark",
            "prefetch_enabled", "prefetch_window", "prefetch_keys",
            "prefetch_write_keys",
            "capabilities", "snapshot", "restore",
            "export_state", "import_state",
            "dirty_groups", "clear_dirty", "export_group_state",
        }

    def test_kv_store_surface(self):
        assert _public_names(KVStore) == {
            "get", "put", "multi_append", "append", "delete", "scan_prefix",
            "flush", "close", "memory_bytes", "disk_bytes", "capabilities",
            "append_reads", "prefetch_active", "prefetch_scan", "prefetch_get",
            "write_batch", "apply_write_batch",
            "dirty_groups", "clear_dirty",
        }

    def test_no_concrete_class_has_two_append_bodies(self):
        doubled = []
        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(module_info.name)
            for name, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ != module.__name__ or inspect.isabstract(cls):
                    continue
                if {"append", "multi_append"} <= set(vars(cls)):
                    doubled.append(f"{module.__name__}.{name}")
        assert doubled == []


class TestCallersCheckUpFront:
    QUERY = "q11-median"
    WINDOW = TINY_PROFILE.window_sizes[0]
    # Enough heap that the in-memory backend reaches the rescale point
    # (the tiny profile's default deliberately OOMs it on this query).
    PROFILE = replace(TINY_PROFILE, heap_total_bytes=8 << 20)

    @pytest.mark.parametrize("mode", ("live", "stw"))
    def test_rescale_without_capability_fails_fast(self, monkeypatch, mode):
        # Strip the heap backend's capabilities: a scheduled rescale must
        # surface as a typed "unsupported" failure on the run record,
        # before any state has been exported.
        monkeypatch.setattr(HeapWindowBackend, "capabilities", frozenset())
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            parallelism=2, rescale_schedule={100: 4}, rescale_mode=mode,
        )
        assert not record.ok
        assert record.failure == "unsupported:export_state"

    def test_checkpointing_without_snapshot_capability(self, monkeypatch):
        monkeypatch.setattr(
            HeapWindowBackend, "capabilities", frozenset({CAP_RESCALE})
        )
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300,
        )
        assert not record.ok
        assert record.failure == "unsupported:snapshot"

    def test_checkpointing_degrades_without_incremental_capability(self, monkeypatch):
        # Without CAP_INCREMENTAL the checkpointer silently falls back to
        # whole-store snapshots — same answers, every epoch full.
        monkeypatch.setattr(
            HeapWindowBackend, "capabilities",
            frozenset({CAP_SNAPSHOT, CAP_RESCALE}),
        )
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300,
        )
        assert record.ok
        assert record.checkpoints > 0
        assert all(stat.full for stat in record.checkpoint_stats)
        base = run_query(self.PROFILE, self.QUERY, "memory", self.WINDOW)
        assert record.output_hash == base.output_hash

    def test_incremental_require_fails_fast_without_capability(self, monkeypatch):
        monkeypatch.setattr(
            HeapWindowBackend, "capabilities",
            frozenset({CAP_SNAPSHOT, CAP_RESCALE}),
        )
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300, incremental_checkpoints="require",
        )
        assert not record.ok
        assert record.failure == "unsupported:incremental_checkpoint"

    def test_incremental_require_passes_with_capability(self):
        record = run_query(
            self.PROFILE, self.QUERY, "memory", self.WINDOW,
            checkpoint_interval=300, incremental_checkpoints="require",
        )
        assert record.ok
        assert any(not stat.full for stat in record.checkpoint_stats)

    def test_operator_info_unrelated_to_capabilities(self):
        # Factories receive OperatorInfo; capabilities are a property of
        # the backend instance, independent of the operator's pattern.
        info = OperatorInfo(name="w", incremental=True,
                            window_kind=WindowKind.FIXED)
        assert info.pattern is not None
        assert heap_backend().capabilities == {
            CAP_SNAPSHOT, CAP_RESCALE, CAP_INCREMENTAL,
        }
