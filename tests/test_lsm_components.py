"""Unit and property tests for LSM building blocks: format, bloom,
memtable, SSTable."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstores.lsm.bloom import BloomFilter
from repro.kvstores.lsm.format import (
    KIND_DELETE,
    KIND_MERGE,
    KIND_PUT,
    Entry,
    decode_entry,
    encode_entry,
    merge_entries,
    pack_list_value,
    unpack_list_value,
)
from repro.kvstores.lsm.memtable import MemTable
from repro.kvstores.lsm.sstable import SSTableReader, SSTableWriter
from repro.kvstores.lsm.store import LsmStore
from repro.simenv import SimEnv
from repro.storage import SimFileSystem


class TestEntryFormat:
    @given(
        st.binary(min_size=1, max_size=64),
        st.integers(min_value=0, max_value=2**40),
        st.sampled_from([KIND_PUT, KIND_MERGE, KIND_DELETE]),
        st.binary(max_size=200),
    )
    def test_entry_round_trip(self, key, seq, kind, value):
        entry = Entry(key, seq, kind, value)
        decoded, pos = decode_entry(encode_entry(entry))
        assert decoded == entry
        assert pos == len(encode_entry(entry))

    @given(st.lists(st.binary(max_size=64), max_size=20))
    def test_list_value_round_trip(self, elements):
        assert unpack_list_value(pack_list_value(elements)) == elements

    def test_list_value_concatenation(self):
        """Merging operands by concatenation is how appends stay lazy."""
        a = pack_list_value([b"1", b"2"])
        b = pack_list_value([b"3"])
        assert unpack_list_value(a + b) == [b"1", b"2", b"3"]


class TestMergeEntries:
    def test_empty(self):
        assert merge_entries([]) is None

    def test_single_put(self):
        merged = merge_entries([Entry(b"k", 1, KIND_PUT, b"v")])
        assert merged.kind == KIND_PUT
        assert merged.value == b"v"

    def test_put_wins_over_older(self):
        merged = merge_entries([
            Entry(b"k", 3, KIND_PUT, b"new"),
            Entry(b"k", 1, KIND_PUT, b"old"),
        ])
        assert merged.value == b"new"

    def test_delete_shadows_put(self):
        merged = merge_entries([
            Entry(b"k", 3, KIND_DELETE),
            Entry(b"k", 1, KIND_PUT, b"old"),
        ])
        assert merged.kind == KIND_DELETE

    def test_merge_operands_append_after_base(self):
        merged = merge_entries([
            Entry(b"k", 3, KIND_MERGE, pack_list_value([b"c"])),
            Entry(b"k", 2, KIND_MERGE, pack_list_value([b"b"])),
            Entry(b"k", 1, KIND_PUT, pack_list_value([b"a"])),
        ])
        assert merged.kind == KIND_PUT
        assert unpack_list_value(merged.value) == [b"a", b"b", b"c"]

    def test_merge_operands_above_delete_start_fresh(self):
        merged = merge_entries([
            Entry(b"k", 3, KIND_MERGE, pack_list_value([b"x"])),
            Entry(b"k", 2, KIND_DELETE),
            Entry(b"k", 1, KIND_PUT, pack_list_value([b"a"])),
        ])
        assert unpack_list_value(merged.value) == [b"x"]

    def test_bare_merge_operands(self):
        merged = merge_entries([
            Entry(b"k", 2, KIND_MERGE, pack_list_value([b"b"])),
            Entry(b"k", 1, KIND_MERGE, pack_list_value([b"a"])),
        ])
        assert merged.kind == KIND_PUT
        assert unpack_list_value(merged.value) == [b"a", b"b"]


class TestBloomFilter:
    @given(st.sets(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
    def test_no_false_negatives(self, keys):
        bloom = BloomFilter(len(keys))
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    @given(st.sets(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
    def test_serialization_preserves_membership(self, keys):
        bloom = BloomFilter(len(keys))
        for key in keys:
            bloom.add(key)
        loaded = BloomFilter.from_bytes(bloom.to_bytes())
        assert all(loaded.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        keys = [f"key{i}".encode() for i in range(1000)]
        bloom = BloomFilter(len(keys), bits_per_key=10)
        for key in keys:
            bloom.add(key)
        false_positives = sum(
            1 for i in range(10_000) if bloom.may_contain(f"absent{i}".encode())
        )
        assert false_positives / 10_000 < 0.05


class TestMemTable:
    def test_put_get_merged(self, env):
        table = MemTable(env)
        table.put(b"k", 1, b"v1")
        table.put(b"k", 2, b"v2")
        merged = table.get_merged(b"k")
        assert merged.value == b"v2"

    def test_merge_operands(self, env):
        table = MemTable(env)
        table.merge(b"k", 1, pack_list_value([b"a"]))
        table.merge(b"k", 2, pack_list_value([b"b"]))
        merged = table.get_merged(b"k")
        assert unpack_list_value(merged.value) == [b"a", b"b"]

    def test_delete(self, env):
        table = MemTable(env)
        table.put(b"k", 1, b"v")
        table.delete(b"k", 2)
        assert table.get_merged(b"k").kind == KIND_DELETE

    def test_missing_key(self, env):
        table = MemTable(env)
        assert table.get_merged(b"nope") is None
        assert table.get_versions(b"nope") == []

    def test_iter_sorted_order(self, env):
        table = MemTable(env)
        for key in [b"c", b"a", b"b", b"a"]:
            table.put(key, len(table), b"v")
        entries = list(table.iter_sorted())
        keys = [e.key for e in entries]
        assert keys == sorted(keys)
        # Within a key, newest first.
        a_seqs = [e.seq for e in entries if e.key == b"a"]
        assert a_seqs == sorted(a_seqs, reverse=True)

    def test_byte_accounting(self, env):
        table = MemTable(env)
        assert table.approximate_bytes == 0
        table.put(b"key", 1, b"value")
        assert table.approximate_bytes > len(b"key") + len(b"value")

    def test_insert_charges_cpu(self, env):
        table = MemTable(env)
        before = env.now
        for i in range(100):
            table.put(f"{i}".encode(), i, b"v")
        assert env.now > before


class TestSSTable:
    def _write(self, entries, block_bytes=128):
        env = SimEnv()
        fs = SimFileSystem(env)
        writer = SSTableWriter(env, fs, "t.sst", block_bytes=block_bytes)
        reader = writer.write(entries)
        return env, fs, reader

    def test_empty_returns_none(self):
        env, fs, reader = self._write([])
        assert reader is None

    def test_get_versions(self):
        entries = [Entry(f"k{i:03d}".encode(), i, KIND_PUT, f"v{i}".encode())
                   for i in range(100)]
        env, fs, reader = self._write(entries)
        assert reader.entry_count == 100
        for i in (0, 42, 99):
            versions = reader.get_versions(f"k{i:03d}".encode())
            assert len(versions) == 1
            assert versions[0].value == f"v{i}".encode()
        assert reader.get_versions(b"absent") == []

    def test_multiple_versions_same_block(self):
        entries = [
            Entry(b"k", 3, KIND_MERGE, b"c"),
            Entry(b"k", 2, KIND_MERGE, b"b"),
            Entry(b"k", 1, KIND_PUT, b"a"),
        ]
        env, fs, reader = self._write(entries, block_bytes=8)  # force tiny blocks
        versions = reader.get_versions(b"k")
        assert [v.seq for v in versions] == [3, 2, 1]

    def test_iter_entries_full_scan(self):
        entries = [Entry(f"k{i:03d}".encode(), i, KIND_PUT, b"x" * 50)
                   for i in range(200)]
        env, fs, reader = self._write(entries)
        scanned = list(reader.iter_entries())
        assert [e.key for e in scanned] == [e.key for e in entries]

    def test_iter_entries_from_start_key(self):
        entries = [Entry(f"k{i:03d}".encode(), i, KIND_PUT, b"v")
                   for i in range(100)]
        env, fs, reader = self._write(entries)
        scanned = list(reader.iter_entries(start_key=b"k050"))
        assert scanned[0].key == b"k050"
        assert len(scanned) == 50

    def test_out_of_order_write_rejected(self):
        from repro.errors import StoreError
        env = SimEnv()
        fs = SimFileSystem(env)
        writer = SSTableWriter(env, fs, "bad.sst")
        with pytest.raises(StoreError):
            writer.write([
                Entry(b"b", 1, KIND_PUT, b"v"),
                Entry(b"a", 2, KIND_PUT, b"v"),
            ])

    def test_smallest_largest_keys(self):
        entries = [Entry(f"k{i:02d}".encode(), i, KIND_PUT, b"v") for i in range(10)]
        env, fs, reader = self._write(entries)
        assert reader.smallest_key == b"k00"
        assert reader.largest_key == b"k09"
        assert reader.overlaps(b"k05", b"k06")
        assert not reader.overlaps(b"k10", b"k20")

    @settings(max_examples=20, deadline=None)
    @given(st.dictionaries(st.binary(min_size=1, max_size=16),
                           st.binary(max_size=64), min_size=1, max_size=80))
    def test_round_trip_property(self, data):
        entries = [Entry(k, i, KIND_PUT, data[k])
                   for i, k in enumerate(sorted(data))]
        env, fs, reader = self._write(entries, block_bytes=64)
        for key, value in data.items():
            versions = reader.get_versions(key)
            assert versions and versions[0].value == value

    def test_written_reader_matches_a_disk_reader(self):
        """The writer's entries equal what a reader opened from the file
        decodes, block by block, and a decode charges the same either way."""
        entries = [Entry(f"k{i:03d}".encode(), 1000 + i, i % 3, bytes([i]) * (i % 150))
                   for i in range(120)]
        env, fs, written = self._write(entries, block_bytes=256)
        opened = SSTableReader(env, fs, "t.sst")
        n_blocks = len(written._blocks)
        assert n_blocks > 2
        for block_idx in range(n_blocks):
            before = dict(env.ledger.cpu_seconds)
            from_writer = written._decode_block_raw(block_idx)
            mid = dict(env.ledger.cpu_seconds)
            from_disk = opened._decode_block_raw(block_idx)
            after = dict(env.ledger.cpu_seconds)
            assert from_writer == from_disk
            assert {k: mid[k] - before[k] for k in mid} == pytest.approx(
                {k: after[k] - mid[k] for k in mid}, rel=1e-12, abs=0.0
            )
        assert list(written.iter_entries()) == list(opened.iter_entries()) == entries

    def test_scan_stops_before_damage_like_a_lazy_decode(self):
        """A scan that stops before a damaged entry never meets it."""
        entries = [Entry(f"k{i:03d}".encode(), i, KIND_PUT, b"v" * 20) for i in range(40)]
        env, fs, reader = self._write(entries, block_bytes=256)
        first_block = reader._block_offsets[0][1]
        assert first_block > 100
        # Give block 0's last entry a key length running past the block.
        fs.corrupt("t.sst", first_block - len(encode_entry(entries[0])), 0x80)
        opened = SSTableReader(env, fs, "t.sst")
        scan = opened.iter_entries()
        assert [next(scan).key for _ in range(3)] == [b"k000", b"k001", b"k002"]
        with pytest.raises(ValueError):
            list(opened.iter_entries())

    def test_mutable_values_are_not_aliased(self, env, fs):
        store = LsmStore(env, fs)
        value = bytearray(b"before")
        store.put(b"k", value)
        store.flush()
        value[:] = b"after!"
        got = store.get(b"k")
        assert got == b"before" and type(got) is bytes
