"""Per-key-group incremental checkpoint chains (sharded epochs).

The tentpole property set: a delta epoch writes only the key-groups
dirtied since the previous cut and *references* the rest from earlier
epochs by ``(epoch, path, crc)``; restore composes the newest valid
chain and falls back past corrupt shards; chain-aware GC never deletes
a shard a surviving manifest still references; and a checkpoint-seeded
live rescale moves strictly fewer live-transfer bytes than draining
everything.

``FAULT_SEED`` (env var) varies the fault plans exactly as in
``test_recovery.py`` so the CI fault matrix covers this file too.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.bench.harness import run_query
from repro.bench.profiles import TINY_PROFILE
from repro.engine import StreamEnvironment
from repro.errors import PlanError, SnapshotCorruptError
from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan
from repro.kvstores.api import StateExport, key_group_of
from repro.kvstores.memory import HeapWindowBackend
from repro.model import Window
from repro.recovery import CheckpointStorage, Checkpointer, RecoveryManager
from repro.simenv import SimEnv
from repro.snapshot import ShardRef, unpack_group_shard

FAULT_SEED = int(os.environ.get("FAULT_SEED", "7"))

WINDOW_SIZE = TINY_PROFILE.window_sizes[0]
QUERY = "q11-median"
BACKENDS = ("memory", "flowkv", "rocksdb", "faster")

W1 = Window(0.0, 100.0)
GROUPS = 128


def profile_for(backend: str):
    if backend == "memory":
        # The tiny profile's heap deliberately OOMs the naive in-heap
        # backend on Q11-Median; chain equivalence needs the run to finish.
        return replace(TINY_PROFILE, heap_total_bytes=8 << 20)
    return TINY_PROFILE


# ----------------------------------------------------------------------
# A minimal stand-in for the executor: just enough of its back-half API
# for the checkpointer to walk one stateful instance.
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


def spread_keys(n_groups: int) -> list[bytes]:
    """One key per key-group for ``n_groups`` distinct groups."""
    keys: list[bytes] = []
    seen: set[int] = set()
    i = 0
    while len(keys) < n_groups:
        key = f"key{i:04d}".encode()
        group = key_group_of(key, GROUPS)
        if group not in seen:
            seen.add(group)
            keys.append(key)
        i += 1
    return keys


def chain_rig(**kwargs):
    """(env, storage, backend, fake executor, checkpointer) on one SimEnv."""
    env = SimEnv()
    storage = CheckpointStorage(env)
    backend = HeapWindowBackend(env, 8 << 20)
    checkpointer = Checkpointer(storage, interval=1, **kwargs)
    checkpointer.start_from(0, 0)
    return env, storage, backend, FakeExecutor(backend), checkpointer


def canonical_state(backend) -> set:
    export = backend.export_group_state(None, lambda k: key_group_of(k, GROUPS))
    return {
        (e.key, e.window.start, e.window.end, e.kind, tuple(e.values), e.ett)
        for e in export.entries
    }


def restore_latest(storage: CheckpointStorage):
    """Restore the newest valid chain, falling back past corrupt epochs.

    Mirrors ``RecoveryManager._load_epoch``'s verification: every
    referenced shard — owned or inherited — goes through ``read_ref``.
    Returns ``(epoch, backend)`` or ``(None, None)``.
    """
    for epoch in reversed(storage.epochs()):
        try:
            manifest = storage.read_manifest(epoch)
            backend = HeapWindowBackend(storage.env, 8 << 20)
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


class TestDeltaEpochs:
    def test_low_dirty_delta_strictly_smaller_than_full(self):
        # The headline claim: with < 25% of stateful key-groups dirty
        # between cuts, a delta epoch writes strictly fewer bytes (and
        # shards) than the full epoch before it.
        env, storage, backend, fake, cp = chain_rig()
        keys = spread_keys(40)
        for key in keys:
            backend.append(key, W1, b"v" * 64, 0.0)
        cp.maybe_checkpoint(fake, 1, 0.0, None)

        touched = keys[:3]
        for key in touched:
            backend.append(key, W1, b"w" * 64, 1.0)
        dirty = backend.dirty_groups()
        assert len(dirty) == 3
        assert len(dirty) / len(keys) < 0.25
        cp.maybe_checkpoint(fake, 2, 0.0, None)

        full, delta = cp.stats
        assert full.full and not delta.full
        assert full.shards_written == 40
        assert delta.shards_written == 3
        assert delta.shards_reused == 37
        assert delta.bytes_written < full.bytes_written

    def test_delta_references_parent_epoch_shards_by_crc(self):
        env, storage, backend, fake, cp = chain_rig()
        for key in spread_keys(10):
            backend.append(key, W1, b"v", 0.0)
        cp.maybe_checkpoint(fake, 1, 0.0, None)
        backend.append(spread_keys(10)[0], W1, b"w", 1.0)
        cp.maybe_checkpoint(fake, 2, 0.0, None)

        manifest = storage.read_manifest(2)
        (desc,) = manifest["sharded"].values()
        refs = [ShardRef(*ref) for ref in desc["groups"].values()]
        inherited = [r for r in refs if r.epoch == 1]
        owned = [r for r in refs if r.epoch == 2]
        assert len(inherited) == 9 and len(owned) == 1
        # Every inherited reference verifies against its recorded CRC
        # even though epoch 2's own manifest does not list the file.
        for ref in inherited:
            assert ref.path.startswith("chk/00000001/")
            assert ref.path not in manifest["entries"]
            storage.read_ref(ref.path, ref.length, ref.crc)

    def test_restore_composes_chain(self):
        env, storage, backend, fake, cp = chain_rig()
        keys = spread_keys(12)
        for key in keys:
            backend.append(key, W1, b"base", 0.0)
        cp.maybe_checkpoint(fake, 1, 0.0, None)
        for key in keys[:2]:
            backend.append(key, W1, b"delta", 1.0)
        cp.maybe_checkpoint(fake, 2, 0.0, None)

        epoch, recovered = restore_latest(storage)
        assert epoch == 2
        assert canonical_state(recovered) == canonical_state(backend)

    def test_full_cut_every_interval_bounds_chain(self):
        env, storage, backend, fake, cp = chain_rig(full_snapshot_interval=2)
        keys = spread_keys(8)
        for count in range(1, 6):
            backend.append(keys[count % len(keys)], W1, b"v", float(count))
            cp.maybe_checkpoint(fake, count, 0.0, None)
        # Epoch 1 is full by definition; 3 and 5 re-anchor the chain.
        assert [s.full for s in cp.stats] == [True, False, True, False, True]


class TestChainFaults:
    def test_corrupt_mid_chain_shard_falls_back_to_older_epoch(self):
        env, storage, backend, fake, cp = chain_rig()
        keys = spread_keys(10)
        for key in keys:
            backend.append(key, W1, b"epoch1", 0.0)
        cp.maybe_checkpoint(fake, 1, 0.0, None)
        baseline = canonical_state(backend)
        backend.append(keys[0], W1, b"epoch2", 1.0)
        cp.maybe_checkpoint(fake, 2, 0.0, None)
        backend.append(keys[1], W1, b"epoch3", 2.0)
        cp.maybe_checkpoint(fake, 3, 0.0, None)

        # Corrupt the shard epoch 2 owns.  Epoch 3 references it (group
        # of keys[0] was clean at the epoch-3 cut), so restoring either
        # epoch 3 or epoch 2 must fail their chain verification and fall
        # back to the self-contained epoch 1.
        desc = storage.read_manifest(3)["sharded"]
        (groups,) = [d["groups"] for d in desc.values()]
        victims = [ShardRef(*r) for r in groups.values() if ShardRef(*r).epoch == 2]
        assert victims, "epoch 3 should inherit epoch 2's shard"
        storage.fs.delete(victims[0].path)
        storage.fs.append(victims[0].path, b"garbage")

        epoch, recovered = restore_latest(storage)
        assert epoch == 1
        assert canonical_state(recovered) == baseline

    def test_torn_delta_write_never_clobbers_older_shards(self):
        # A torn device write while epoch 2 (a delta) is being taken must
        # leave every committed epoch-1 byte untouched: delta epochs only
        # ever write under their own directory.
        plan = FaultPlan(seed=FAULT_SEED).torn_write(
            at_time=0.0, path_prefix="chk/00000002/"
        )
        env = SimEnv(faults=plan.build())
        storage = CheckpointStorage(env)
        backend = HeapWindowBackend(env, 8 << 20)
        fake = FakeExecutor(backend)
        cp = Checkpointer(storage, interval=1)
        cp.start_from(0, 0)

        keys = spread_keys(10)
        for key in keys:
            backend.append(key, W1, b"epoch1", 0.0)
        cp.maybe_checkpoint(fake, 1, 0.0, None)
        baseline = canonical_state(backend)
        epoch1_files = {
            name: storage.fs.read(name)
            for name in storage.fs.list_files("chk/00000001/")
        }

        backend.append(keys[0], W1, b"epoch2", 1.0)
        cp.maybe_checkpoint(fake, 2, 0.0, None)

        for name, data in epoch1_files.items():
            assert storage.fs.read(name) == data
        # The torn epoch-2 file is caught by the chain's CRCs and the
        # restore falls back to the intact epoch 1.
        epoch, recovered = restore_latest(storage)
        assert epoch == 1
        assert canonical_state(recovered) == baseline

    def test_gc_never_deletes_referenced_shards(self):
        env, storage, backend, fake, cp = chain_rig(
            retained_epochs=2, full_snapshot_interval=8
        )
        keys = spread_keys(10)
        for key in keys:
            backend.append(key, W1, b"epoch1", 0.0)
        cp.maybe_checkpoint(fake, 1, 0.0, None)
        for count in (2, 3):
            backend.append(keys[count], W1, b"delta", float(count))
            cp.maybe_checkpoint(fake, count, 0.0, None)

        # Epoch 1 fell out of the retention window: its manifest (and its
        # unreferenced job blob) are gone, so it is not restorable...
        assert storage.epochs() == [2, 3]
        assert not storage.fs.exists("chk/00000001/MANIFEST")
        assert not storage.fs.exists("chk/00000001/job")
        # ...but every shard the surviving delta manifests still
        # reference — including epoch 1's — remains readable and valid.
        for epoch in (2, 3):
            for desc in storage.read_manifest(epoch)["sharded"].values():
                for raw in desc["groups"].values():
                    ref = ShardRef(*raw)
                    storage.read_ref(ref.path, ref.length, ref.crc)
        epoch, recovered = restore_latest(storage)
        assert epoch == 3
        assert canonical_state(recovered) == canonical_state(backend)


class TestEngineEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_across_full_snapshot_boundary(self, backend):
        base = run_query(profile_for(backend), QUERY, backend, WINDOW_SIZE)
        assert base.ok
        plan = FaultPlan(seed=FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=700)
        crashed = run_query(
            profile_for(backend), QUERY, backend, WINDOW_SIZE,
            fault_plan=plan, checkpoint_interval=150, full_snapshot_interval=2,
        )
        assert crashed.ok
        assert crashed.output_hash == base.output_hash
        stats = crashed.checkpoint_stats
        # The chain actually alternated: full anchors and delta epochs.
        assert any(s.full for s in stats) and any(not s.full for s in stats)
        assert any(s.shards_reused > 0 for s in stats)

    def test_corrupt_delta_epoch_restores_older_and_matches(self):
        base = run_query(TINY_PROFILE, QUERY, "flowkv", WINDOW_SIZE)
        plan = (
            FaultPlan(seed=FAULT_SEED)
            .torn_write(at_time=0.0, path_prefix="chk/00000002/")
            .crash(CRASH_RUNTIME_RECORD, on_hit=700)
        )
        crashed = run_query(
            TINY_PROFILE, QUERY, "flowkv", WINDOW_SIZE,
            fault_plan=plan, checkpoint_interval=300, full_snapshot_interval=4,
        )
        assert crashed.ok
        kinds = [event.kind for event in crashed.recoveries]
        assert kinds[0] == "crash"
        assert "corrupt_checkpoint" in kinds
        restore = crashed.recoveries[-1]
        assert restore.kind == "restore" and restore.epoch == 1
        assert crashed.output_hash == base.output_hash

    def test_recovery_with_gc_retention_window(self):
        base = run_query(TINY_PROFILE, QUERY, "flowkv", WINDOW_SIZE)
        plan = FaultPlan(seed=FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=700)
        crashed = run_query(
            TINY_PROFILE, QUERY, "flowkv", WINDOW_SIZE,
            fault_plan=plan, checkpoint_interval=150, retained_epochs=2,
        )
        assert crashed.ok
        assert crashed.output_hash == base.output_hash

    def test_whole_store_epochs_recover_exactly_once(self):
        # incremental_checkpoints=False: every epoch is a whole-store
        # snapshot of every backend, and a crash restores from one.
        for backend in BACKENDS:
            base = run_query(profile_for(backend), QUERY, backend, WINDOW_SIZE)
            plan = FaultPlan(seed=FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=700)
            crashed = run_query(
                profile_for(backend), QUERY, backend, WINDOW_SIZE,
                fault_plan=plan, checkpoint_interval=300,
                incremental_checkpoints=False,
            )
            assert crashed.ok, backend
            assert [e.kind for e in crashed.recoveries] == ["crash", "restore"]
            assert crashed.checkpoints > 0
            assert all(stat.full for stat in crashed.checkpoint_stats)
            assert all(stat.shards_written == 0 for stat in crashed.checkpoint_stats)
            assert crashed.output_hash == base.output_hash, backend


class TestIncrementalFlag:
    @pytest.mark.parametrize("value", ("require", "false", 0, None))
    def test_non_bool_is_a_plan_error(self, value):
        # A truthy string used to mean True silently; every entry point
        # now rejects anything but a real bool.
        with pytest.raises(PlanError, match="incremental"):
            Checkpointer(CheckpointStorage(SimEnv()), interval=1, incremental=value)
        with pytest.raises(PlanError, match="incremental"):
            RecoveryManager(StreamEnvironment(), checkpoint_interval=10, incremental=value)
        with pytest.raises(PlanError, match="incremental"):
            run_query(
                TINY_PROFILE, QUERY, "flowkv", WINDOW_SIZE,
                checkpoint_interval=300, incremental_checkpoints=value,
            )


class TestSeededRescale:
    @pytest.mark.parametrize("backend", ("flowkv", "rocksdb"))
    def test_seeded_live_rescale_moves_fewer_bytes_than_drain(self, backend):
        # Checkpoint cadence = watermark cadence, so the delta between
        # the last cut and the rescale boundary is small: clean moved
        # groups land from checkpoint shards instead of the live stream.
        profile = TINY_PROFILE
        base = run_query(profile, QUERY, backend, WINDOW_SIZE)
        half = base.input_records // 2
        kwargs = dict(
            parallelism=2, rescale_schedule={half: 4}, rescale_mode="live",
            checkpoint_interval=profile.watermark_interval,
        )
        drain = run_query(profile, QUERY, backend, WINDOW_SIZE,
                          seed_rescale_from_checkpoint=False, **kwargs)
        seeded = run_query(profile, QUERY, backend, WINDOW_SIZE, **kwargs)
        assert drain.ok and seeded.ok
        assert seeded.output_hash == drain.output_hash == base.output_hash

        (d_event,) = drain.rescales
        (s_event,) = seeded.rescales
        assert d_event.seeded_groups == 0 and d_event.seeded_bytes == 0
        assert s_event.seeded_groups > 0 and s_event.seeded_bytes > 0
        # The acceptance inequality: strictly fewer live-transfer bytes.
        assert s_event.bytes_moved < d_event.bytes_moved
        # Seeding relabels transfer volume, it does not change it: the
        # two deterministic runs move the same total state.
        assert s_event.bytes_moved + s_event.seeded_bytes == d_event.bytes_moved
