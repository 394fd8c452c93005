"""Edge cases across the FlowKV stores: odd keys, huge values, reuse."""

from __future__ import annotations

import pytest

from repro.core.aar import AarStore
from repro.core.aur import AurStore
from repro.core.ett import SessionGapPredictor
from repro.core.rmw import RmwStore
from repro.errors import ExportExhaustedError, StoreError, UnknownBatchOpError
from repro.kvstores.api import KVStore, StateExportStream, key_group_of
from repro.kvstores.hashkv import FasterStore
from repro.kvstores.lsm import LsmStore
from repro.kvstores.memory import HeapWindowBackend
from repro.model import Window
from repro.simenv import SimEnv
from repro.storage import SimFileSystem

W = Window(0.0, 100.0)


def fresh():
    env = SimEnv()
    return env, SimFileSystem(env)


ODD_KEYS = [
    b"",  # empty key
    b"\x00",  # NUL
    b"\xff" * 64,  # high bytes, long
    "ключ-日本語".encode("utf-8"),  # multi-byte text
    b"a/b\\c d\n",  # separators and whitespace
]


class TestOddKeys:
    @pytest.mark.parametrize("key", ODD_KEYS, ids=repr)
    def test_aar_round_trips_odd_keys(self, key):
        env, fs = fresh()
        store = AarStore(env, fs, "aar", write_buffer_bytes=128)
        store.append(key, b"value", W)
        store.flush()
        grouped = {k: v for k, v in store.get_window(W)}
        assert grouped == {key: [b"value"]}

    @pytest.mark.parametrize("key", ODD_KEYS, ids=repr)
    def test_aur_round_trips_odd_keys(self, key):
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(10.0), "aur",
                         write_buffer_bytes=64)
        store.append(key, b"value", W, 1.0)
        store.flush()
        assert store.get(key, W) == [b"value"]

    @pytest.mark.parametrize("key", ODD_KEYS, ids=repr)
    def test_rmw_round_trips_odd_keys(self, key):
        env, fs = fresh()
        store = RmwStore(env, fs, "rmw", write_buffer_bytes=64)
        store.put(key, W, b"agg")
        assert store.remove(key, W) == b"agg"


class TestValueShapes:
    def test_zero_length_values(self):
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(10.0), "aur",
                         write_buffer_bytes=64)
        for _ in range(5):
            store.append(b"k", b"", W, 0.0)
        store.flush()
        assert store.get(b"k", W) == [b""] * 5

    def test_value_larger_than_segment(self):
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(10.0), "aur",
                         write_buffer_bytes=64, data_segment_bytes=256)
        big = bytes(range(256)) * 8  # 2 KiB >> segment size
        store.append(b"k", big, W, 0.0)
        store.flush()
        assert store.get(b"k", W) == [big]

    def test_value_larger_than_aar_chunk(self):
        env, fs = fresh()
        store = AarStore(env, fs, "aar", write_buffer_bytes=64,
                         read_chunk_bytes=128)
        big = b"B" * 1000
        store.append(b"k", big, W)
        store.flush()
        grouped: dict[bytes, list[bytes]] = {}
        for key, values in store.get_window(W):
            grouped.setdefault(key, []).extend(values)
        assert grouped == {b"k": [big]}


class TestWindowReuse:
    def test_aar_window_reusable_after_read(self):
        """Late data for an already-read window forms a fresh state."""
        env, fs = fresh()
        store = AarStore(env, fs, "aar", write_buffer_bytes=128)
        store.append(b"k", b"first", W)
        assert dict(store.get_window(W)) == {b"k": [b"first"]}
        store.append(b"k", b"late", W)
        assert dict(store.get_window(W)) == {b"k": [b"late"]}

    def test_aur_window_reusable_after_read(self):
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(10.0), "aur",
                         write_buffer_bytes=64)
        store.append(b"k", b"first", W, 0.0)
        store.flush()
        assert store.get(b"k", W) == [b"first"]
        store.append(b"k", b"late", W, 50.0)
        store.flush()
        assert store.get(b"k", W) == [b"late"]

    def test_rmw_key_reusable_after_remove(self):
        env, fs = fresh()
        store = RmwStore(env, fs, "rmw", write_buffer_bytes=64)
        store.put(b"k", W, b"one")
        store.remove(b"k", W)
        store.put(b"k", W, b"two")
        assert store.get(b"k", W) == b"two"


class TestManySmallWindows:
    def test_thousand_tiny_windows(self):
        """AUR with one value per window: index dominates; still correct."""
        env, fs = fresh()
        store = AurStore(env, fs, SessionGapPredictor(1.0), "aur",
                         write_buffer_bytes=256, read_batch_ratio=0.5,
                         max_space_amplification=1.3,
                         data_segment_bytes=1024)
        windows = []
        for i in range(1000):
            window = Window(float(i * 2), float(i * 2) + 1.0)
            windows.append(window)
            store.append(b"k", str(i).encode(), window, window.start)
        for i, window in enumerate(windows):
            assert store.get(b"k", window) == [str(i).encode()]


class TestTypedApiEdgeErrors:
    """API-edge misuse raises a StoreError subclass (still a ValueError)."""

    @pytest.mark.parametrize("apply", [
        lambda env, fs, ops: LsmStore(env, fs, "lsm").apply_write_batch(ops),
        lambda env, fs, ops: FasterStore(env, fs, "faster").apply_write_batch(ops),
        # the base-class default, reached through a store's own methods
        lambda env, fs, ops: KVStore.apply_write_batch(LsmStore(env, fs, "lsm"), ops),
    ])
    def test_unknown_write_batch_op(self, apply):
        env, fs = fresh()
        with pytest.raises(UnknownBatchOpError, match="'upsert'") as exc_info:
            apply(env, fs, [("put", b"k", b"v"), ("upsert", b"k", b"w")])
        assert isinstance(exc_info.value, StoreError)
        assert isinstance(exc_info.value, ValueError)
        assert exc_info.value.op == "upsert"

    def test_export_stream_exhausted_group(self):
        backend = HeapWindowBackend(SimEnv(), 1 << 20)
        backend.append(b"k", W, 1, 0.0)
        group = key_group_of(b"k")
        stream = StateExportStream(backend, {group}, key_group_of)
        assert stream.next_chunk(group).last
        for missing in (group, group + 1):  # drained, and never exported
            with pytest.raises(ExportExhaustedError, match="no chunks left") as exc_info:
                stream.next_chunk(missing)
            assert isinstance(exc_info.value, StoreError)
            assert isinstance(exc_info.value, ValueError)
