"""The state-movement contract and the pinned store API surface.

Checkpoint, restore, failover and rescale call a backend's
state-movement members directly: ``snapshot``/``restore``,
``export_state``/``import_state``/``export_group_state``,
``dirty_groups``/``clear_dirty``, ``checkpoint_key_groups`` and
``attach_changelog`` on :class:`WindowStateBackend`, and
``snapshot``/``restore`` on :class:`KVStore`.  They are abstract, so a
backend that lacks one cannot even be constructed — nothing has to ask
a backend what it supports before moving its state.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.bench.harness import run_query
from repro.core import FlowKVComposite
from repro.core.patterns import StorePattern
from repro.engine import StreamEnvironment
from repro.engine.joins import JoinStateBackend
from repro.engine.runtime import Executor
from repro.engine.state import GenericKVBackend
from repro.kvstores.api import KVStore, StateExport, WindowStateBackend
from repro.model import GLOBAL_WINDOW
from repro.kvstores.hashkv import FasterStore
from repro.kvstores.lsm import LsmStore
from repro.kvstores.memory import HeapWindowBackend
from repro.nexmark.queries import build_query
from repro.recovery import RecoveryManager
from repro.simenv import SimEnv
from repro.storage import SimFileSystem

# The members every window-state backend must define (the join-state
# backend too, though it is not a subclass) and every KV store.
STATE_MOVEMENT = (
    "snapshot", "restore", "export_state", "import_state",
    "export_group_state", "dirty_groups", "clear_dirty",
    "checkpoint_key_groups", "attach_changelog",
)
KV_STATE_MOVEMENT = ("snapshot", "restore")


class BareBackend(WindowStateBackend):
    """A backend implementing only the required surface, trivially."""

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

    def snapshot(self):
        return None

    def restore(self, snapshot):
        pass

    def export_state(self, key_groups, key_group_of):
        return StateExport()

    def import_state(self, export):
        pass

    def export_group_state(self, key_groups, key_group_of):
        return StateExport()

    def dirty_groups(self):
        return frozenset()

    def clear_dirty(self):
        pass

    @property
    def checkpoint_key_groups(self):
        return 128

    def attach_changelog(self, writer):
        pass


class BareStore(KVStore):
    """A KV store implementing only the required surface, trivially."""

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

    def snapshot(self):
        return None

    def restore(self, snapshot):
        pass


def heap_backend():
    return HeapWindowBackend(SimEnv(), 1 << 20)


def _lacking(bare: type, name: str) -> type:
    """``bare``'s members minus ``name``, on ``bare``'s abstract base."""
    members = {
        key: value for key, value in vars(bare).items()
        if key != name and not key.startswith("_")
    }
    return type(f"Lacks_{name}", bare.__bases__, members)


class TestAdvertisedCapabilities:
    """Every in-tree backend can do everything state movement asks."""

    def test_heap_backend_supports_everything(self):
        backend = heap_backend()
        assert not inspect.isabstract(HeapWindowBackend)
        assert backend.checkpoint_key_groups == 128
        assert backend.snapshot().kind == "heap"

    def test_flowkv_supports_everything(self):
        env = SimEnv()
        backend = FlowKVComposite(env, SimFileSystem(env), StorePattern.AAR)
        assert not inspect.isabstract(FlowKVComposite)
        assert backend.checkpoint_key_groups == 128
        assert backend.snapshot().kind.startswith("flowkv")

    def test_generic_kv_inherits_snapshot_from_store(self):
        # The glue delegates whole-store snapshots to the wrapped store.
        for store_cls, kind in ((LsmStore, "lsm"), (FasterStore, "faster")):
            env = SimEnv()
            backend = GenericKVBackend(env, store_cls(env, SimFileSystem(env), "s"))
            assert not inspect.isabstract(store_cls)
            assert backend.snapshot().kind == kind

    def test_base_classes_advertise_nothing(self):
        # No optional-feature set to consult, on any backend or store:
        # the abstract members are the whole contract.
        for cls in (
            WindowStateBackend, KVStore, HeapWindowBackend, FlowKVComposite,
            GenericKVBackend, JoinStateBackend, LsmStore, FasterStore,
        ):
            assert not hasattr(cls, "capabilities"), cls.__name__


class TestTypedErrors:
    def test_message_is_actionable(self):
        # The TypeError names the member the backend or store is missing.
        with pytest.raises(TypeError, match="export_state"):
            _lacking(BareBackend, "export_state")()
        with pytest.raises(TypeError, match="snapshot"):
            _lacking(BareStore, "snapshot")()


class TestStateMovementContract:
    @pytest.mark.parametrize("name", STATE_MOVEMENT)
    def test_backend_lacking_a_member_cannot_be_built(self, name):
        BareBackend()  # the complete surface instantiates
        with pytest.raises(TypeError):
            _lacking(BareBackend, name)()

    @pytest.mark.parametrize("name", KV_STATE_MOVEMENT)
    def test_store_lacking_a_member_cannot_be_built(self, name):
        BareStore()
        with pytest.raises(TypeError):
            _lacking(BareStore, name)()

    def test_state_movement_members_are_exactly_the_abstract_ones(self):
        required = WindowStateBackend.__abstractmethods__
        assert set(STATE_MOVEMENT) <= required
        assert set(KV_STATE_MOVEMENT) <= KVStore.__abstractmethods__
        # Everything else abstract is the pattern API of Listing 1 plus
        # lifecycle — nothing optional hides among the required names.
        assert required - set(STATE_MOVEMENT) == {
            "multi_append", "read_window", "read_key_window",
            "rmw_get", "rmw_put", "rmw_remove", "flush", "close",
            "memory_bytes",
        }

    def test_join_backend_defines_every_state_movement_member(self):
        # Join state is engine-managed and not a WindowStateBackend, yet
        # every path that moves window state moves it too.
        for name in STATE_MOVEMENT:
            assert name in vars(JoinStateBackend), name
        assert JoinStateBackend(SimEnv()).checkpoint_key_groups == 128


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


def _repro_classes():
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", cls


class TestSurfacePin:
    """The store API is the pattern calls of the paper's Listing 1 plus
    lifecycle, hints and the state-movement contract — growing it again
    is a deliberate act that edits these sets."""

    def test_window_state_backend_surface(self):
        assert _public_names(WindowStateBackend) == {
            "multi_append", "append", "read_window", "read_key_window",
            "rmw_get", "rmw_put", "rmw_remove",
            "flush", "close", "memory_bytes", "on_watermark",
            "prefetch_enabled", "prefetch_window", "prefetch_keys",
            "prefetch_write_keys",
            "snapshot", "restore", "export_state", "import_state",
            "export_group_state", "dirty_groups", "clear_dirty",
            "checkpoint_key_groups", "attach_changelog",
        }

    def test_kv_store_surface(self):
        assert _public_names(KVStore) == {
            "get", "put", "multi_append", "append", "delete", "scan_prefix",
            "flush", "close", "memory_bytes", "disk_bytes",
            "snapshot", "restore",
            "append_reads", "prefetch_active", "prefetch_scan", "prefetch_get",
            "write_batch", "apply_write_batch",
        }

    def test_no_concrete_class_has_two_append_bodies(self):
        doubled = [
            name for name, cls in _repro_classes()
            if not inspect.isabstract(cls)
            and {"append", "multi_append"} <= set(vars(cls))
        ]
        assert doubled == []

    def test_no_private_executor_reach_outside_engine(self):
        # Checkpoint, recovery, rescale and changelog replication use the
        # Executor's public back-half API; its private members stay
        # inside repro/engine/.
        root = Path(repro.__file__).parent
        reach = re.compile(r"(executor|_exec)\._[a-z]")
        hits = [
            f"{path.relative_to(root)}:{lineno}"
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root).parts[0] != "engine"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if reach.search(line)
        ]
        assert hits == []


def _parameters(fn) -> set[str]:
    return set(inspect.signature(fn).parameters) - {"self"}


class TestOptionPin:
    """Every option of the plan, the query builder, the run driver, the
    executor loop and the recovery manager — and the bare whole-store
    checkpoint calls.  A new knob is a deliberate act that edits these
    sets."""

    def test_stream_environment_options(self):
        assert _parameters(StreamEnvironment.__init__) == {
            "parallelism", "backend_factory", "cpu", "ssd", "workers",
            "max_key_groups", "faults", "cluster", "max_batch_records",
            "prefetch_depth",
        }

    def test_build_query_options(self):
        assert _parameters(build_query) == {
            "name", "backend_factory", "generator_config", "window_size",
            "parallelism", "workers", "session_gap", "cost_scale", "faults",
            "cluster", "batch_records", "prefetch_depth",
        }

    def test_run_query_options(self):
        assert _parameters(run_query) == {
            "profile", "query", "backend", "window_size", "sim_timeout",
            "arrival_rate", "duration", "events_per_second", "seed",
            "flowkv_overrides", "workers", "session_gap", "parallelism",
            "rescale_schedule", "rescale_policy", "fault_plan",
            "checkpoint_interval", "rescale_mode", "transfer_chunk_bytes",
            "transfer_queue_limit", "incremental_checkpoints",
            "full_snapshot_interval", "retained_epochs",
            "seed_rescale_from_checkpoint", "generator_overrides", "cluster",
            "recovery_mode", "batch_records", "prefetch_depth",
        }

    def test_executor_run_options(self):
        assert _parameters(Executor.run) == {
            "arrival_rate", "watermark_interval", "sim_timeout",
            "overload_backlog", "watermark_delay", "rescale_policy", "records",
            "start_count", "start_max_ts", "checkpointer", "rescale_mode",
            "transfer_chunk_bytes", "transfer_queue_limit",
            "seed_rescale_from_checkpoint",
        }

    def test_recovery_manager_options(self):
        assert _parameters(RecoveryManager.__init__) == {
            "plan_env", "checkpoint_interval", "incremental",
            "full_snapshot_interval", "retained_epochs", "mode",
        }

    def test_every_snapshot_takes_no_argument(self):
        found = {
            name: _parameters(cls.snapshot)
            for name, cls in _repro_classes() if "snapshot" in vars(cls)
        }
        assert {"repro.kvstores.lsm.store.LsmStore", "repro.core.aar.AarStore"} <= set(found)
        assert {name: params for name, params in found.items() if params} == {}

    def test_every_restore_takes_only_the_snapshot(self):
        found = {
            name: _parameters(cls.restore)
            for name, cls in _repro_classes() if "restore" in vars(cls)
        }
        assert {"repro.kvstores.lsm.store.LsmStore", "repro.core.aar.AarStore"} <= set(found)
        assert {
            name: params for name, params in found.items() if params != {"snapshot"}
        } == {}
