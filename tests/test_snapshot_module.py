"""Direct unit tests for the snapshot helper module."""

from __future__ import annotations


from repro.simenv import CAT_SERDE, SimEnv
from repro.snapshot import (
    StoreSnapshot,
    copy_files_in,
    copy_files_out,
    pack_meta,
    unpack_meta,
)
from repro.storage import SimFileSystem


class TestMetaCodec:
    def test_round_trip(self, env):
        state = {"a": [1, 2], "b": {b"k": (1.5, None)}}
        assert unpack_meta(env, pack_meta(env, state)) == state

    def test_charges_serde(self, env):
        before = env.ledger.cpu_seconds[CAT_SERDE]
        pack_meta(env, list(range(1000)))
        assert env.ledger.cpu_seconds[CAT_SERDE] > before


class TestFileCopy:
    def test_out_and_in_round_trip(self, env, fs):
        fs.append("store/a.log", b"alpha")
        fs.append("store/b.log", b"beta")
        fs.append("other/c.log", b"gamma")
        files = copy_files_out(fs, "store/")
        assert set(files) == {"store/a.log", "store/b.log"}

        env2 = SimEnv()
        fs2 = SimFileSystem(env2)
        copy_files_in(env2, fs2, files)
        assert fs2.read("store/a.log") == b"alpha"
        assert fs2.read("store/b.log") == b"beta"

    def test_copy_in_overwrites_existing(self, env, fs):
        fs.append("store/a.log", b"old")
        copy_files_in(env, fs, {"store/a.log": b"new"})
        assert fs.read("store/a.log") == b"new"

    def test_copy_out_charges_reads(self, env, fs):
        fs.append("store/a.log", b"x" * 4096)
        before = env.ledger.bytes_read
        copy_files_out(fs, "store/")
        assert env.ledger.bytes_read - before == 4096


class TestStoreSnapshot:
    def test_total_bytes(self):
        snapshot = StoreSnapshot("kind", b"12345", {"f": b"abc", "g": b"de"})
        assert snapshot.total_bytes == 10

    def test_empty_files_default(self):
        snapshot = StoreSnapshot("kind", b"m")
        assert snapshot.files == {}
        assert snapshot.total_bytes == 1
