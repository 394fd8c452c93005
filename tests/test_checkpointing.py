"""Checkpointing tests (§8, Fault Tolerance).

For every backend: build state, snapshot, simulate a crash (fresh store
instance on a fresh simulated disk), restore, and verify all reads —
including paths that need the on-disk files (spilled data, SSTables,
hybrid-log reads, AUR index scans).
"""

from __future__ import annotations

import pytest

from repro.core import FlowKVComposite, FlowKVConfig, StorePattern
from repro.core.aar import AarStore
from repro.core.aur import AurStore
from repro.core.ett import SessionGapPredictor
from repro.core.rmw import RmwStore
from repro.engine.state import GenericKVBackend
from repro.errors import StoreOOMError
from repro.kvstores.hashkv import FasterConfig, FasterStore
from repro.kvstores.lsm import LsmConfig, LsmStore
from repro.kvstores.lsm.format import unpack_list_value
from repro.kvstores.memory import HeapWindowBackend
from repro.model import Window
from repro.simenv import SimEnv
from repro.storage import SimFileSystem

W1 = Window(0.0, 100.0)


def fresh():
    env = SimEnv()
    return env, SimFileSystem(env)


class TestAarSnapshot:
    def test_round_trip_with_spilled_state(self):
        env, fs = fresh()
        store = AarStore(env, fs, "aar", write_buffer_bytes=512)
        for i in range(100):
            store.append(f"k{i % 5}".encode(), f"v{i:03d}".encode(), W1)
        snapshot = store.snapshot()

        env2, fs2 = fresh()
        recovered = AarStore(env2, fs2, "aar", write_buffer_bytes=512)
        recovered.restore(snapshot)
        grouped: dict[bytes, list[bytes]] = {}
        for key, values in recovered.get_window(W1):
            grouped.setdefault(key, []).extend(values)
        assert grouped[b"k0"] == [f"v{i:03d}".encode() for i in range(0, 100, 5)]
        assert sum(len(v) for v in grouped.values()) == 100

    def test_snapshot_flushes_buffer_first(self):
        env, fs = fresh()
        store = AarStore(env, fs, "aar", write_buffer_bytes=1 << 20)
        store.append(b"k", b"buffered", W1)
        snapshot = store.snapshot()
        assert store.memory_bytes == 0  # flushed
        assert any(snapshot.files)  # the flush produced a file


class TestAurSnapshot:
    def test_round_trip_with_index_and_stat(self):
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(10.0), "aur",
                         write_buffer_bytes=256, read_batch_ratio=0.5)
        windows = {}
        for i in range(12):
            window = Window(float(i * 20), float(i * 20) + 10.0)
            key = f"k{i:02d}".encode()
            windows[key] = window
            for j in range(8):
                store.append(key, f"{i}-{j}".encode(), window, window.start)
        snapshot = store.snapshot()

        env2, fs2 = fresh()
        recovered = AurStore(env2, fs2, SessionGapPredictor(10.0), "aur",
                             write_buffer_bytes=256, read_batch_ratio=0.5)
        recovered.restore(snapshot)
        for key, window in windows.items():
            i = int(key[1:])
            assert recovered.get(key, window) == [
                f"{i}-{j}".encode() for j in range(8)
            ]

    def test_ett_survives_recovery(self):
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(10.0), "aur",
                         write_buffer_bytes=1 << 20)
        store.append(b"k", b"v", Window(0.0, 10.0), 7.0)
        snapshot = store.snapshot()
        env2, fs2 = fresh()
        recovered = AurStore(env2, fs2, SessionGapPredictor(10.0), "aur",
                             write_buffer_bytes=1 << 20)
        recovered.restore(snapshot)
        assert recovered._stat[(b"k", Window(0.0, 10.0))].ett == pytest.approx(17.0)

    def test_consumed_windows_stay_consumed(self):
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(10.0), "aur",
                         write_buffer_bytes=128, max_space_amplification=100.0)
        w = Window(0.0, 10.0)
        for j in range(20):
            store.append(b"k", b"v" * 20, w, 0.0)
        store.get(b"k", w)  # consume
        snapshot = store.snapshot()
        env2, fs2 = fresh()
        recovered = AurStore(env2, fs2, SessionGapPredictor(10.0), "aur",
                             write_buffer_bytes=128, max_space_amplification=100.0)
        recovered.restore(snapshot)
        assert recovered.get(b"k", w) == []


class TestRmwSnapshot:
    def test_round_trip_spills_hot_aggregates(self):
        env, fs = fresh()
        store = RmwStore(env, fs, "rmw", write_buffer_bytes=512)
        for i in range(100):
            store.put(f"k{i:03d}".encode(), W1, f"agg{i}".encode())
        snapshot = store.snapshot()
        assert len(store._buffer) == 0  # every hot aggregate spilled

        env2, fs2 = fresh()
        recovered = RmwStore(env2, fs2, "rmw", write_buffer_bytes=512)
        recovered.restore(snapshot)
        for i in range(100):
            assert recovered.get(f"k{i:03d}".encode(), W1) == f"agg{i}".encode()

    def test_updates_after_recovery(self):
        env, fs = fresh()
        store = RmwStore(env, fs, "rmw", write_buffer_bytes=512)
        store.put(b"k", W1, b"before")
        snapshot = store.snapshot()
        env2, fs2 = fresh()
        recovered = RmwStore(env2, fs2, "rmw", write_buffer_bytes=512)
        recovered.restore(snapshot)
        recovered.put(b"k", W1, b"after!")
        assert recovered.remove(b"k", W1) == b"after!"


class TestCompositeSnapshot:
    def test_all_instances_captured(self):
        env, fs = fresh()
        config = FlowKVConfig(num_instances=3, write_buffer_bytes=512)
        composite = FlowKVComposite(env, fs, StorePattern.RMW, config, name="c")
        for i in range(60):
            composite.rmw_put(f"key{i}".encode(), W1, i)
        snapshot = composite.snapshot()

        env2, fs2 = fresh()
        recovered = FlowKVComposite(env2, fs2, StorePattern.RMW, config, name="c")
        recovered.restore(snapshot)
        for i in range(60):
            assert recovered.rmw_get(f"key{i}".encode(), W1) == i

    def test_instance_count_mismatch_rejected(self):
        env, fs = fresh()
        composite = FlowKVComposite(
            env, fs, StorePattern.RMW, FlowKVConfig(num_instances=2), name="c"
        )
        snapshot = composite.snapshot()
        env2, fs2 = fresh()
        other = FlowKVComposite(
            env2, fs2, StorePattern.RMW, FlowKVConfig(num_instances=4), name="c"
        )
        with pytest.raises(ValueError):
            other.restore(snapshot)

    def test_aur_composite_round_trip(self):
        env, fs = fresh()
        config = FlowKVConfig(num_instances=2, write_buffer_bytes=256)
        composite = FlowKVComposite(
            env, fs, StorePattern.AUR, config,
            predictor=SessionGapPredictor(10.0), name="c",
        )
        for i in range(30):
            window = Window(float(i), float(i) + 10.0)
            composite.append(f"k{i}".encode(), window, ("payload", i), float(i))
        snapshot = composite.snapshot()

        env2, fs2 = fresh()
        recovered = FlowKVComposite(
            env2, fs2, StorePattern.AUR, config,
            predictor=SessionGapPredictor(10.0), name="c",
        )
        recovered.restore(snapshot)
        for i in range(30):
            window = Window(float(i), float(i) + 10.0)
            assert recovered.read_key_window(f"k{i}".encode(), window) == [("payload", i)]


class TestHeapSnapshot:
    def test_round_trip(self):
        env, fs = fresh()
        backend = HeapWindowBackend(env, capacity_bytes=1 << 20)
        backend.append(b"k", W1, ("v", 1), 0.0)
        backend.rmw_put(b"agg", W1, 42)
        snapshot = backend.snapshot()

        env2, _ = fresh()
        recovered = HeapWindowBackend(env2, capacity_bytes=1 << 20)
        recovered.restore(snapshot)
        assert recovered.read_key_window(b"k", W1) == [("v", 1)]
        assert recovered.rmw_get(b"agg", W1) == 42

    def test_restore_into_smaller_heap_ooms(self):
        env, fs = fresh()
        backend = HeapWindowBackend(env, capacity_bytes=1 << 20)
        for i in range(100):
            backend.append(b"k", W1, b"x" * 100, 0.0)
        snapshot = backend.snapshot()
        env2, _ = fresh()
        small = HeapWindowBackend(env2, capacity_bytes=1024)
        with pytest.raises(StoreOOMError):
            small.restore(snapshot)


class TestBaselineStoreSnapshots:
    def test_lsm_round_trip_with_levels(self):
        env, fs = fresh()
        config = LsmConfig(write_buffer_bytes=1024, level1_bytes=4096, max_file_bytes=2048)
        store = LsmStore(env, fs, "lsm", config)
        for i in range(800):
            store.put(f"key{i % 80:03d}".encode(), f"value{i:05d}".encode())
        for i in range(10):
            store.append(f"lst{i}".encode(), f"e{i}".encode())
        snapshot = store.snapshot()
        # A whole-store snapshot carries every SSTable itself.
        assert set(snapshot.files) == set(fs.list_files("lsm/"))

        env2, fs2 = fresh()
        recovered = LsmStore(env2, fs2, "lsm", config)
        recovered.restore(snapshot)
        for j in range(80):
            i = 720 + j
            assert recovered.get(f"key{j:03d}".encode()) == f"value{i:05d}".encode()
        assert unpack_list_value(recovered.get(b"lst3")) == [b"e3"]
        # Writes continue after recovery with consistent sequence numbers.
        recovered.put(b"key000", b"new")
        assert recovered.get(b"key000") == b"new"

    def test_faster_round_trip_with_spill(self):
        env, fs = fresh()
        config = FasterConfig(memory_log_bytes=2048, spill_chunk_bytes=512)
        store = FasterStore(env, fs, "f", config)
        for i in range(300):
            store.put(f"k{i:03d}".encode(), f"value-{i:04d}".encode())
        snapshot = store.snapshot()

        env2, fs2 = fresh()
        recovered = FasterStore(env2, fs2, "f", config)
        recovered.restore(snapshot)
        for i in range(300):
            assert recovered.get(f"k{i:03d}".encode()) == f"value-{i:04d}".encode()

    def test_generic_backend_delegates(self):
        env, fs = fresh()
        store = LsmStore(env, fs, "lsm", LsmConfig(write_buffer_bytes=1024))
        backend = GenericKVBackend(env, store)
        backend.rmw_put(b"k", W1, {"n": 9})
        snapshot = backend.snapshot()

        env2, fs2 = fresh()
        recovered = GenericKVBackend(
            env2, LsmStore(env2, fs2, "lsm", LsmConfig(write_buffer_bytes=1024))
        )
        recovered.restore(snapshot)
        assert recovered.rmw_get(b"k", W1) == {"n": 9}


class TestSnapshotCosts:
    def test_snapshot_charges_simulated_time(self):
        env, fs = fresh()
        store = AarStore(env, fs, "aar", write_buffer_bytes=512)
        for i in range(200):
            store.append(b"k", b"v" * 50, W1)
        before = env.now
        snapshot = store.snapshot()
        assert env.now > before
        assert snapshot.total_bytes > 0
