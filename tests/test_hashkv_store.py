"""Unit, integration and property tests for the Faster-style hash store."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreClosedError
from repro.kvstores.hashkv import FasterConfig, FasterStore
from repro.kvstores.lsm.format import unpack_list_value
from repro.serde.codec import encode_bytes
from repro.simenv import CAT_SYNC, SimEnv
from repro.storage import SimFileSystem

SMALL = FasterConfig(memory_log_bytes=4096, spill_chunk_bytes=1024)


@pytest.fixture()
def store(env, fs):
    return FasterStore(env, fs, "f", SMALL)


class TestBasicOperations:
    def test_put_get(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_get_missing(self, store):
        assert store.get(b"missing") is None

    def test_overwrite(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"

    def test_delete(self, store):
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_append_builds_list(self, store):
        for i in range(10):
            store.append(b"k", f"e{i}".encode())
        assert unpack_list_value(store.get(b"k")) == [f"e{i}".encode() for i in range(10)]

    def test_closed_store_rejects(self, store):
        store.close()
        with pytest.raises(StoreClosedError):
            store.put(b"k", b"v")


class TestHybridLog:
    def test_spill_preserves_reads(self, env, fs):
        store = FasterStore(env, fs, "f", SMALL)
        for i in range(300):
            store.put(f"k{i:04d}".encode(), f"value-{i:06d}".encode())
        assert store.disk_bytes > 0  # spilled
        for i in range(300):
            assert store.get(f"k{i:04d}".encode()) == f"value-{i:06d}".encode()

    def test_spilled_read_charges_device(self, env, fs):
        store = FasterStore(env, fs, "f", SMALL)
        for i in range(300):
            store.put(f"k{i:04d}".encode(), b"v" * 20)
        reads_before = env.ledger.read_requests
        store.get(b"k0000")  # oldest record: on disk
        assert env.ledger.read_requests > reads_before

    def test_in_place_update_does_not_grow_log(self, env, fs):
        store = FasterStore(env, fs, "f", FasterConfig(memory_log_bytes=1 << 20))
        store.put(b"k", b"12345678")
        tail_before = store._tail
        for _ in range(100):
            store.put(b"k", b"87654321")  # same length: in-place
        assert store._tail == tail_before

    def test_different_length_update_appends(self, env, fs):
        store = FasterStore(env, fs, "f", FasterConfig(memory_log_bytes=1 << 20))
        store.put(b"k", b"12345678")
        tail_before = store._tail
        store.put(b"k", b"123")
        assert store._tail > tail_before
        assert store.get(b"k") == b"123"


class TestSyncOverhead:
    def test_every_operation_pays_sync(self, env, fs):
        store = FasterStore(env, fs, "f", SMALL)
        store.put(b"k", b"v")
        store.get(b"k")
        store.append(b"k2", b"v")
        store.delete(b"k")
        expected = 4 * env.cpu.sync_op
        assert env.ledger.cpu_seconds[CAT_SYNC] == pytest.approx(expected)


class TestAppendAmplification:
    def test_append_cost_grows_with_list_size(self, env, fs):
        """Faster's RCU appends re-copy the whole list: per-append cost
        grows linearly, total cost quadratically (the paper's DNF cause)."""
        store = FasterStore(env, fs, "f", FasterConfig(memory_log_bytes=1 << 20))
        costs = []
        for i in range(200):
            before = env.now
            store.append(b"k", b"x" * 50)
            costs.append(env.now - before)
        early = sum(costs[:20])
        late = sum(costs[-20:])
        assert late > early * 3


class TestCompaction:
    def test_compaction_reclaims_space(self, env, fs):
        store = FasterStore(env, fs, "f", SMALL)
        # Varying value lengths force RCU appends (no in-place updates),
        # growing the log with dead versions until compaction fires.
        for i in range(2000):
            store.put(f"k{i % 20:03d}".encode(), b"v" * (10 + i % 7))
        assert store.compaction_count > 0
        for j in range(20):
            i = 1980 + j
            expected = b"v" * (10 + i % 7)
            assert store.get(f"k{j:03d}".encode()) == expected

    def test_log_bounded_by_msa(self, env, fs):
        config = FasterConfig(
            memory_log_bytes=4096, spill_chunk_bytes=1024, max_space_amplification=2.0
        )
        store = FasterStore(env, fs, "f", config)
        for i in range(5000):
            store.put(f"k{i % 10}".encode(), b"v" * 30)
        # Total log (disk + memory) stays within a small multiple of live.
        assert store._tail <= max(config.memory_log_bytes,
                                  config.max_space_amplification * store._live_bytes) * 1.5


class TestScanPrefix:
    def test_scan_filters_and_sorts(self, store):
        for i in range(50):
            store.put(f"a{i:02d}".encode(), b"v")
            store.put(f"b{i:02d}".encode(), b"v")
        results = list(store.scan_prefix(b"a"))
        assert [k for k, _v in results] == [f"a{i:02d}".encode() for i in range(50)]

    def test_scan_cost_proportional_to_all_keys(self, env, fs):
        """Unsorted store: a prefix scan probes the entire index."""
        store = FasterStore(env, fs, "f", FasterConfig(memory_log_bytes=1 << 20))
        for i in range(1000):
            store.put(f"other{i:04d}".encode(), b"v")
        store.put(b"target", b"v")
        before = env.now
        list(store.scan_prefix(b"target"))
        cost_with_many = env.now - before
        assert cost_with_many > 1000 * env.cpu.key_compare


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=0, max_value=25),
            st.binary(min_size=1, max_size=30),
        ),
        min_size=1,
        max_size=300,
    )
)
def test_faster_matches_reference_model(ops):
    env = SimEnv()
    fs = SimFileSystem(env)
    store = FasterStore(env, fs, "f", SMALL)
    keys = [f"key{i:02d}".encode() for i in range(26)]
    reference: dict[bytes, bytes] = {}
    for op, k, v in ops:
        key = keys[k]
        if op == "put":
            store.put(key, v)
            reference[key] = v
        elif op == "get":
            assert store.get(key) == reference.get(key)
        else:
            store.delete(key)
            reference.pop(key, None)
    for key in keys:
        assert store.get(key) == reference.get(key)


def test_faster_soak_with_appends():
    rng = random.Random(7)
    env = SimEnv()
    fs = SimFileSystem(env)
    store = FasterStore(env, fs, "f", SMALL)
    reference: dict[bytes, list[bytes]] = {}
    for i in range(1500):
        key = f"k{rng.randrange(40):02d}".encode()
        roll = rng.random()
        if roll < 0.5:
            value = f"v{i}".encode()
            store.put(key, value)
            reference[key] = [value]
        elif roll < 0.8:
            value = f"a{i}".encode()
            store.append(key, value)
            reference.setdefault(key, []).append(value)
        else:
            store.delete(key)
            reference.pop(key, None)
    for key, elements in reference.items():
        value = store.get(key)
        if len(elements) == 1:
            assert value == elements[0] or unpack_list_value(value) == elements
        else:
            # put base then appends: base is raw, appends framed
            if value is not None and not value.startswith(elements[0]):
                assert unpack_list_value(value) == elements


def test_record_length_matches_encoded_length():
    """The length arithmetic equals the two length-prefixed encodings."""
    boundaries = (0, 1, 127, 128, 129, 16383, 16384, 16385, (1 << 21) - 1, 1 << 21)
    for key_len in boundaries:
        key = b"k" * key_len
        for value_len in boundaries:
            value = b"v" * value_len
            assert FasterStore._record_length(key, value) == (
                len(encode_bytes(key)) + len(encode_bytes(value))
            )
