"""Checkpointing interval-join state: exactly-once, delta epochs, chains.

Join buffers checkpoint through the same per-key-group sharded epochs
as window state: a crashed join run restores from the newest complete
epoch and replays digest-equal; a skewed-key workload makes delta
epochs strictly cheaper than full ones; a corrupt join shard fails the
chain's CRC verification and falls back to an older epoch; and all of
it works whatever the KV backend — join state is engine-managed.

``FAULT_SEED`` (env var) varies the fault plans exactly as in
``test_recovery.py`` so the CI fault matrix covers this file too.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import run_query
from repro.bench.profiles import TINY_PROFILE
from repro.engine.joins import LEFT, RIGHT, JoinStateBackend
from repro.errors import SnapshotCorruptError
from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan
from repro.kvstores.api import StateExport, key_group_of
from repro.model import Window
from repro.recovery import CheckpointStorage, Checkpointer
from repro.simenv import SimEnv
from repro.snapshot import ShardRef, unpack_group_shard

FAULT_SEED = int(os.environ.get("FAULT_SEED", "7"))

WINDOW = TINY_PROFILE.window_sizes[0]
QUERY = "q8-interval"
INTERVAL = 300
GROUPS = 128

# A popularity-skewed bid stream: a small hot-auction set concentrates
# inserts while drifting, so buffered bids age into clean key-groups.
SKEW = {"active_auctions": 16, "hot_fraction": 0.95}


def run(backend="flowkv", **kwargs):
    return run_query(TINY_PROFILE, QUERY, backend, WINDOW, **kwargs)


def kinds(record):
    return [event.kind for event in record.recoveries]


# ----------------------------------------------------------------------
# Minimal executor stand-in (mirrors test_incremental_chain) so the
# checkpointer walks one join-state instance through the back-half API.
# ----------------------------------------------------------------------
class FakeOperator:
    def __init__(self, backend):
        self.backend = backend

    def checkpoint_state(self):
        return {}


class FakeInstance:
    def __init__(self, backend):
        self.operator = FakeOperator(backend)


class FakeExecutor:
    current_parallelism = 1
    group_owner = list(range(GROUPS))

    def __init__(self, backend):
        self.instance = FakeInstance(backend)

    def stateful_instances(self):
        yield None, 0, self.instance, "op0/p0"

    def cluster_node_of(self, index):
        return None

    def job_outputs(self):
        return {"sinks": {}, "latencies": [], "rescales": []}


def kg(key: bytes) -> int:
    return key_group_of(key, GROUPS)


def spread_keys(n_groups: int) -> list[bytes]:
    keys: list[bytes] = []
    seen: set[int] = set()
    i = 0
    while len(keys) < n_groups:
        key = f"auction{i:04d}".encode()
        group = kg(key)
        if group not in seen:
            seen.add(group)
            keys.append(key)
        i += 1
    return keys


def chain_rig(**kwargs):
    env = SimEnv()
    storage = CheckpointStorage(env)
    backend = JoinStateBackend(env, max_key_groups=GROUPS)
    checkpointer = Checkpointer(storage, interval=1, **kwargs)
    checkpointer.start_from(0, 0)
    return env, storage, backend, FakeExecutor(backend), checkpointer


def canonical_state(backend: JoinStateBackend) -> set:
    export = backend.export_group_state(None, kg)
    return {
        (e.key, e.kind, tuple(e.values)) for e in export.entries
    }


def restore_latest(storage: CheckpointStorage):
    """Restore the newest valid shard chain into a fresh join backend,
    falling back past corrupt epochs (mirrors the RecoveryManager)."""
    for epoch in reversed(storage.epochs()):
        try:
            manifest = storage.read_manifest(epoch)
            backend = JoinStateBackend(storage.env, max_key_groups=GROUPS)
            for desc in manifest["sharded"].values():
                entries = []
                for group in sorted(desc["groups"]):
                    ref = ShardRef(*desc["groups"][group])
                    data = storage.read_ref(ref.path, ref.length, ref.crc)
                    entries.extend(unpack_group_shard(storage.env, data))
                backend.import_state(StateExport(entries=entries))
        except SnapshotCorruptError:
            continue
        return epoch, backend
    return None, None


class TestJoinExactlyOnce:
    def test_crashed_join_run_restores_and_matches(self):
        base = run()
        assert base.ok and base.results > 0

        plan = FaultPlan(seed=FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=700)
        crashed = run(fault_plan=plan, checkpoint_interval=INTERVAL)
        assert crashed.ok
        assert kinds(crashed) == ["crash", "restore"]
        # Restored from the newest complete epoch, not from scratch.
        restore = crashed.recoveries[-1]
        assert restore.kind == "restore" and restore.epoch >= 2
        assert crashed.output_hash == base.output_hash
        assert crashed.results == base.results
        assert crashed.restore_seconds > 0

    def test_checkpointing_join_run_does_not_perturb_output(self):
        base = run()
        checkpointed = run(checkpoint_interval=INTERVAL)
        assert checkpointed.ok
        assert checkpointed.recoveries == []
        assert checkpointed.checkpoints > 0
        assert checkpointed.output_hash == base.output_hash

    def test_join_state_needs_no_kv_backend_capability(self):
        # The join buffers are engine-managed: incremental join
        # checkpoints work the same on any KV backend, because the plan
        # holds no window state at all.
        base = run()
        for backend in ("memory", "faster"):
            record = run(backend=backend, checkpoint_interval=INTERVAL)
            assert record.ok
            assert record.checkpoints > 0
            assert record.output_hash == base.output_hash


class TestJoinDeltaEpochs:
    def test_skewed_workload_incremental_beats_full_bytes(self):
        # The acceptance inequality at engine level: under the skewed
        # bid stream, incremental epochs write strictly fewer bytes per
        # epoch than wholesale snapshots — same digests.
        window = max(TINY_PROFILE.window_sizes)
        full = run_query(
            TINY_PROFILE, QUERY, "flowkv", window,
            checkpoint_interval=TINY_PROFILE.watermark_interval,
            incremental_checkpoints=False, generator_overrides=SKEW,
        )
        incr = run_query(
            TINY_PROFILE, QUERY, "flowkv", window,
            checkpoint_interval=TINY_PROFILE.watermark_interval,
            full_snapshot_interval=8, generator_overrides=SKEW,
        )
        assert full.ok and incr.ok
        assert incr.output_hash == full.output_hash
        assert incr.checkpoints == full.checkpoints > 0
        assert incr.checkpoint_bytes_per_epoch() < full.checkpoint_bytes_per_epoch()
        assert any(s.shards_reused > 0 for s in incr.checkpoint_stats)

    def test_low_dirty_join_delta_strictly_smaller_than_full(self):
        # Rig-level strictness: 40 groups of join buffers, 3 touched
        # between cuts -> the delta writes 3 shards and strictly fewer
        # bytes than the full epoch before it.
        env, storage, backend, fake, cp = chain_rig()
        keys = spread_keys(40)
        for key in keys:
            for ts in (0.0, 1.0):
                backend.insert(LEFT, key, ts, b"v" * 64)
            backend.insert(RIGHT, key, 0.5, b"w" * 64)
        cp.maybe_checkpoint(fake, 1, 0.0, None)

        for key in keys[:3]:
            backend.insert(RIGHT, key, 2.0, b"x" * 64)
        assert len(backend.dirty_groups()) == 3
        cp.maybe_checkpoint(fake, 2, 0.0, None)

        full, delta = cp.stats
        assert full.full and not delta.full
        assert full.shards_written == 40
        assert delta.shards_written == 3
        assert delta.shards_reused == 37
        assert delta.bytes_written < full.bytes_written

    def test_expiry_dirties_groups_and_drops_empty_shards(self):
        # Watermark expiry is a semantic mutation: an expired-empty
        # group's shard ref must disappear from the next manifest, or a
        # restore would resurrect dead entries.
        env, storage, backend, fake, cp = chain_rig()
        keys = spread_keys(10)
        for key in keys:
            backend.insert(LEFT, key, 0.0, b"v")
        backend.insert(LEFT, keys[0], 50.0, b"fresh")
        cp.maybe_checkpoint(fake, 1, 0.0, None)

        assert backend.expire(10.0, 10.0) == 10  # every ts=0.0 entry
        dirty = backend.dirty_groups()
        assert len(dirty) == 10
        cp.maybe_checkpoint(fake, 2, 0.0, None)

        manifest = storage.read_manifest(2)
        (desc,) = manifest["sharded"].values()
        # Only keys[0]'s group still has entries; the other nine groups
        # are gone from the manifest entirely (not stale refs).
        assert set(desc["groups"]) == {kg(keys[0])}

        epoch, recovered = restore_latest(storage)
        assert epoch == 2
        assert canonical_state(recovered) == canonical_state(backend)


class TestJoinShardCorruption:
    def test_corrupt_join_shard_falls_back_down_the_chain(self):
        env, storage, backend, fake, cp = chain_rig()
        keys = spread_keys(10)
        for key in keys:
            backend.insert(LEFT, key, 0.0, b"epoch1")
        cp.maybe_checkpoint(fake, 1, 0.0, None)
        baseline = canonical_state(backend)
        backend.insert(RIGHT, keys[0], 1.0, b"epoch2")
        cp.maybe_checkpoint(fake, 2, 0.0, None)
        backend.insert(RIGHT, keys[1], 2.0, b"epoch3")
        cp.maybe_checkpoint(fake, 3, 0.0, None)

        # Corrupt the shard epoch 2 owns; epoch 3 references it, so
        # both fail verification and the restore lands on epoch 1.
        desc = storage.read_manifest(3)["sharded"]
        (groups,) = [d["groups"] for d in desc.values()]
        victims = [ShardRef(*r) for r in groups.values() if ShardRef(*r).epoch == 2]
        assert victims, "epoch 3 should inherit epoch 2's join shard"
        storage.fs.delete(victims[0].path)
        storage.fs.append(victims[0].path, b"garbage")

        epoch, recovered = restore_latest(storage)
        assert epoch == 1
        assert canonical_state(recovered) == baseline

    def test_torn_join_checkpoint_restores_older_and_matches(self):
        base = run()
        plan = (
            FaultPlan(seed=FAULT_SEED)
            .torn_write(at_time=0.0, path_prefix="chk/00000002/")
            .crash(CRASH_RUNTIME_RECORD, on_hit=700)
        )
        crashed = run(
            fault_plan=plan, checkpoint_interval=INTERVAL,
            full_snapshot_interval=4,
        )
        assert crashed.ok
        assert kinds(crashed)[0] == "crash"
        assert "corrupt_checkpoint" in kinds(crashed)
        restore = crashed.recoveries[-1]
        assert restore.kind == "restore" and restore.epoch == 1
        assert crashed.output_hash == base.output_hash


class TestJoinCapabilities:
    # The join backend moves state across key-groups losslessly and
    # rejects foreign state at the import boundary.  (That it defines
    # every state-movement member is pinned in test_capabilities.py.)
    def test_import_rejects_non_join_state(self):
        backend = JoinStateBackend(SimEnv())
        window_entry = StateExport()
        from repro.kvstores.api import KIND_LIST, ExportedEntry

        window_entry.entries.append(
            ExportedEntry(b"k", Window(0.0, 1.0), KIND_LIST, [b"v"])
        )
        with pytest.raises(ValueError, match="join state"):
            backend.import_state(window_entry)

    def test_export_import_round_trip_preserves_buffers(self):
        env = SimEnv()
        source = JoinStateBackend(env, max_key_groups=GROUPS)
        keys = spread_keys(6)
        for i, key in enumerate(keys):
            source.insert(LEFT, key, float(i), f"left{i}".encode())
            source.insert(RIGHT, key, float(i) + 0.5, f"right{i}".encode())
        before = canonical_state(source)
        moved = {kg(key) for key in keys[:3]}

        export = source.export_state(moved, kg)
        assert len(export.entries) == 6  # 3 keys x 2 sides
        # Destructive: the moved keys are gone from the source.
        assert all(source.buffer(LEFT, key) is None for key in keys[:3])

        destination = JoinStateBackend(env, max_key_groups=GROUPS)
        destination.import_state(export)
        merged = canonical_state(source) | canonical_state(destination)
        assert merged == before
