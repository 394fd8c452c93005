"""Crash recovery and exactly-once restore (§8, Fault Tolerance).

The paper prescribes Flink-style checkpointing: periodically snapshot
every store into reliable storage and, on failure, restore the latest
snapshot and replay the source from that point.  This module provides
the three pieces around the per-store ``snapshot``/``restore`` methods:

* :class:`CheckpointStorage` — a durable, checksummed checkpoint layout
  on its own simulated device.  Every epoch is a separate directory
  committed by an atomically-renamed manifest, so a crash mid-snapshot
  never clobbers the last good checkpoint, and every byte is covered by
  a CRC32 verified at restore (:class:`SnapshotCorruptError` otherwise).
* :class:`Checkpointer` — takes a consistent cut at watermark
  boundaries: store snapshots, in-operator state, sink outputs,
  latencies, rescale history and the rescale policy, all under one
  epoch.
* :class:`RecoveryManager` — runs a job, and on an injected crash
  restores the newest *complete* checkpoint (falling back past corrupt
  ones), rewinds the source to the checkpoint's record count and
  replays.  Output is exactly-once by construction: sink outputs are
  checkpointed atomically with the state, outputs after the checkpoint
  are discarded with the crash, and the deterministic replay regenerates
  them identically (arrivals stay on the absolute record grid).

All recovery-path work — checksums, checkpoint reads, replay setup,
retry backoff — is charged to the ``recovery`` ledger category on the
storage environment and merged into the job's metrics.
"""

from __future__ import annotations

import pickle
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.engine.plan import StreamEnvironment
from repro.engine.runtime import Executor, JobResult
from repro.errors import (
    DiskIOError,
    InjectedCrashError,
    PlanError,
    SnapshotCorruptError,
)
from repro.faults import CRASH_SNAPSHOT_COMMIT, CRASH_SNAPSHOT_FILE, with_retries
from repro.kvstores.api import ExportedEntry, StateExport, key_group_of
from repro.simenv import CAT_RECOVERY, MetricsLedger, SimEnv
from repro.snapshot import (
    ShardRef,
    StoreSnapshot,
    pack_group_shard,
    unpack_group_shard,
)
from repro.storage.filesystem import SimFileSystem

_CHK_ROOT = "chk"
# A job recovers from at most this many failures; the next one propagates.
MAX_RESTARTS = 8


def _epoch_dir(epoch: int) -> str:
    return f"{_CHK_ROOT}/{epoch:08d}"


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery-relevant incident on a job's timeline."""

    # "crash" | "restore" | "corrupt_checkpoint" | "fresh_restart"
    # | "node_failure" | "promote" | "degraded"
    kind: str
    at_record: int
    epoch: int | None = None
    site: str = ""
    detail: str = ""
    sim_seconds: float = 0.0


class CheckpointStorage:
    """Checksummed checkpoint files on a dedicated simulated device.

    Layout per epoch (a flat-namespace "directory" per committed cut)::

        chk/{epoch:08d}/job                       pickled job-level state
        chk/{epoch:08d}/{instance}/meta           store snapshot meta blob
        chk/{epoch:08d}/{instance}/files/{name}   store snapshot files
        chk/{epoch:08d}/MANIFEST                  commit record (see below)

    The manifest holds ``(length, crc32)`` for every file of the epoch
    plus the store kinds, is itself CRC-framed, and is written to a
    ``.tmp`` name then atomically renamed — the rename *is* the commit.
    Epochs without a manifest are invisible to recovery.  Transient
    :class:`DiskIOError` faults on checkpoint I/O are retried with
    capped deterministic backoff.
    """

    def __init__(self, env: SimEnv, fs: SimFileSystem | None = None) -> None:
        self.env = env
        self.fs = fs or SimFileSystem(env)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put_file(self, path: str, data: bytes, origin: int | None = None) -> None:
        """Durably write one checkpoint file (idempotent, retried).

        ``origin`` — the cluster node of the writing instance — is
        ignored here; :class:`repro.cluster.storage.ClusterCheckpointStorage`
        uses it to place replicas and charge cross-node uploads.
        """

        def attempt() -> None:
            if self.fs.exists(path):
                self.fs.delete(path)
            self.fs.append(path, data, category=CAT_RECOVERY)

        with_retries(self.env, attempt)

    def commit_manifest(self, epoch: int, manifest: dict[str, Any]) -> None:
        """Write the CRC-framed manifest and atomically rename it live."""
        payload = pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL)
        framed = zlib.crc32(payload).to_bytes(4, "big") + payload
        self.env.charge_cpu(CAT_RECOVERY, len(payload) * self.env.cpu.crc_per_byte)
        tmp = f"{_epoch_dir(epoch)}/MANIFEST.tmp"
        self.put_file(tmp, framed)
        faults = self.env.faults
        if faults is not None:
            faults.crash_point(CRASH_SNAPSHOT_COMMIT, now=self.env.now)
        self.fs.rename(tmp, f"{_epoch_dir(epoch)}/MANIFEST")

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def epochs(self) -> list[int]:
        """Committed checkpoint epochs, oldest first."""
        found = []
        for name in self.fs.list_files(_CHK_ROOT + "/"):
            parts = name.split("/")
            if len(parts) == 3 and parts[2] == "MANIFEST":
                found.append(int(parts[1]))
        return sorted(found)

    def latest(self) -> int | None:
        epochs = self.epochs()
        return epochs[-1] if epochs else None

    def read_manifest(self, epoch: int) -> dict[str, Any]:
        framed = with_retries(
            self.env,
            lambda: self.fs.read(f"{_epoch_dir(epoch)}/MANIFEST", category=CAT_RECOVERY),
        )
        if len(framed) < 4:
            raise SnapshotCorruptError(f"checkpoint {epoch}: manifest truncated")
        expected = int.from_bytes(framed[:4], "big")
        payload = framed[4:]
        self.env.charge_cpu(CAT_RECOVERY, len(payload) * self.env.cpu.crc_per_byte)
        if zlib.crc32(payload) != expected:
            raise SnapshotCorruptError(f"checkpoint {epoch}: manifest failed CRC check")
        return pickle.loads(payload)

    def read_file(self, manifest: dict[str, Any], path: str) -> bytes:
        """Read one manifest-covered file, verifying length and CRC."""
        entry = manifest["entries"].get(path)
        if entry is None:
            raise SnapshotCorruptError(f"{path} not covered by checkpoint manifest")
        length, crc = entry
        return self.read_ref(path, length, crc)

    def read_ref(
        self, path: str, length: int, crc: int, reader: int | None = None
    ) -> bytes:
        """Read one file verified against an explicit ``(length, crc)``.

        This is how incremental manifests reach *earlier* epochs' shard
        files: the reference carries its own checksum, so a shard shared
        by many manifests is verified on every restore exactly as an
        owned file would be.  ``reader`` (the restoring instance's
        cluster node) is ignored here; the cluster storage subclass uses
        it to charge peer downloads.
        """
        if not self.fs.exists(path):
            raise SnapshotCorruptError(f"checkpoint file {path} is missing")
        data = with_retries(
            self.env, lambda: self.fs.read(path, category=CAT_RECOVERY)
        )
        self.env.charge_cpu(CAT_RECOVERY, len(data) * self.env.cpu.crc_per_byte)
        if len(data) != length:
            raise SnapshotCorruptError(
                f"checkpoint file {path}: {len(data)}B, expected {length}B"
            )
        if zlib.crc32(data) != crc:
            raise SnapshotCorruptError(f"checkpoint file {path} failed CRC check")
        return data

    def load_snapshot(self, epoch: int, manifest: dict[str, Any], key: str) -> StoreSnapshot:
        """Reassemble one instance's sealed :class:`StoreSnapshot`."""
        base = f"{_epoch_dir(epoch)}/{key}"
        meta = self.read_file(manifest, f"{base}/meta")
        files_prefix = f"{base}/files/"
        files: dict[str, bytes] = {}
        checksums: dict[str, tuple[int, int]] = {}
        for path, (length, crc) in manifest["entries"].items():
            if not path.startswith(files_prefix):
                continue
            orig = path[len(files_prefix):]
            files[orig] = self.read_file(manifest, path)
            checksums[orig] = (length, crc)
        snap = StoreSnapshot(manifest["stores"][key], meta, files)
        snap.checksums = checksums
        snap.meta_crc = zlib.crc32(meta)
        return snap


@dataclass(frozen=True)
class CheckpointStat:
    """Write-side accounting of one committed checkpoint epoch.

    ``bytes_written``/``files_written`` cover the epoch's payload files
    (store shards or legacy snapshot files, plus the job blob; manifest
    framing excluded); ``shards_reused`` counts key-group shards the
    manifest *references* from earlier epochs instead of re-copying —
    the incremental saving fig_checkpoint reports.
    """

    epoch: int
    full: bool
    bytes_written: int
    files_written: int
    shards_written: int
    shards_reused: int
    sim_seconds: float


class Checkpointer:
    """Takes periodic consistent cuts of a running job.

    Consulted by :meth:`Executor.run` at every watermark boundary; a
    checkpoint is taken once at least ``interval`` records have been
    ingested since the previous one.  Watermark boundaries fall on a
    deterministic record-count grid, so an uninterrupted run and a
    replayed run checkpoint at the identical cut points.

    With ``incremental`` (the default), every backend is checkpointed
    as per-key-group *shards*: each epoch writes only the groups dirtied
    since the previous epoch and references the rest from earlier epochs
    by (epoch, path, CRC); a full cut of every group is taken every
    ``full_snapshot_interval`` epochs to bound chain length.  With
    ``incremental=False`` every epoch is a whole-store snapshot per
    backend instead.

    ``retained_epochs`` enables chain-aware garbage collection: after
    each commit, manifests beyond the newest N are deleted and any
    checkpoint file no surviving manifest references (directly or via a
    shard reference) is removed.  The default (None) retains everything
    — restores can then fall back arbitrarily far past corrupt epochs.
    """

    def __init__(
        self,
        storage: CheckpointStorage,
        interval: int,
        incremental: bool = True,
        full_snapshot_interval: int = 4,
        retained_epochs: int | None = None,
    ) -> None:
        if not isinstance(incremental, bool):
            raise PlanError(f"incremental must be True or False: {incremental!r}")
        if full_snapshot_interval < 1:
            raise PlanError(
                f"full_snapshot_interval must be >= 1: {full_snapshot_interval}"
            )
        if retained_epochs is not None and retained_epochs < 1:
            raise PlanError(f"retained_epochs must be >= 1: {retained_epochs}")
        self.storage = storage
        self.interval = interval
        self.incremental = incremental
        self.full_snapshot_interval = full_snapshot_interval
        self.retained_epochs = retained_epochs
        self.epochs_written = 0
        self.stats: list[CheckpointStat] = []
        self._last_count: int | None = None
        self._epoch = 0
        # Per instance key: latest committed shard map, its group-space
        # size, and the epoch of its last full cut (chain anchor).
        self._shard_maps: dict[str, dict[int, ShardRef]] = {}
        self._shard_groupspace: dict[str, int] = {}
        self._shard_full_epoch: dict[str, int] = {}
        # Optional repro.changelog.ChangelogReplication, set by a
        # RecoveryManager running in standby mode: every committed epoch
        # cut also seals and ships the changelog to the standbys.
        self.replication: Any = None

    def start_from(self, epoch: int, count: int) -> None:
        """Resume epoch numbering after a restore (or fresh restart)."""
        self._epoch = epoch
        self._last_count = count
        if epoch == 0:
            self.reset_chain()

    def reset_chain(self) -> None:
        """Forget shard chains (fresh restart: nothing can be referenced)."""
        self._shard_maps.clear()
        self._shard_groupspace.clear()
        self._shard_full_epoch.clear()

    def adopt_manifest(self, epoch: int, manifest: dict[str, Any], count: int) -> None:
        """Seed chain state from a restored manifest.

        After a restore the backends hold exactly what the manifest's
        shards describe, so the next incremental epoch may reference
        them; the recorded ``full_epoch`` anchors keep bounding chain
        length across the restart.
        """
        self.start_from(epoch, count)
        self.reset_chain()
        for key, desc in manifest.get("sharded", {}).items():
            self._shard_maps[key] = {
                group: ShardRef(*ref) for group, ref in desc["groups"].items()
            }
            self._shard_groupspace[key] = desc["max_key_groups"]
            self._shard_full_epoch[key] = desc["full_epoch"]

    def group_entries(
        self, key: str, group: int, max_key_groups: int,
        destination_node: int | None = None,
    ) -> list[ExportedEntry] | None:
        """One clean key-group's state from the latest committed epoch,
        for seeding a live rescale; None when instance ``key`` was not
        sharded at this group-space size or the group has no shard.

        One CRC-verified shard read, charged to the checkpoint storage
        as recovery I/O (``destination_node`` is not needed: the shard
        read is the delivery).
        """
        if self._shard_groupspace.get(key) != max_key_groups:
            return None
        ref = self._shard_maps.get(key, {}).get(group)
        if ref is None:
            return None
        data = self.storage.read_ref(ref.path, ref.length, ref.crc)
        return unpack_group_shard(self.storage.env, data)

    def maybe_checkpoint(
        self, executor: Executor, count: int, max_ts: float, rescale_policy: Any
    ) -> int | None:
        if self._last_count is not None and count - self._last_count < self.interval:
            return None
        if self._last_count is None and count < self.interval:
            return None
        self._last_count = count
        self._epoch += 1
        epoch = self._epoch
        storage = self.storage
        faults = storage.env.faults
        started = storage.env.clock.now
        manifest_entries: dict[str, tuple[int, int]] = {}
        stores: dict[str, str] = {}
        sharded: dict[str, dict[str, Any]] = {}
        bytes_written = 0
        shards_written = 0
        shards_reused = 0
        all_full = True

        def put(path: str, data: bytes, origin: int | None = None) -> None:
            nonlocal bytes_written
            if faults is not None:
                faults.crash_point(CRASH_SNAPSHOT_FILE, now=storage.env.now)
            storage.put_file(path, data, origin=origin)
            # The manifest records what was *intended*: a torn or
            # bit-flipped device write is caught at restore time.
            manifest_entries[path] = (len(data), zlib.crc32(data))
            bytes_written += len(data)
            storage.env.charge_cpu(
                CAT_RECOVERY, len(data) * storage.env.cpu.crc_per_byte
            )

        # Deferred chain-state commit: applied only once the manifest
        # rename lands, so a crash mid-epoch leaves the previous chain
        # (and the backends' dirty sets) intact.
        committed: list[tuple[str, Any, dict[int, ShardRef], int, int]] = []
        operators: dict[str, dict[str, Any]] = {}
        for _node, idx, instance, key in executor.stateful_instances():
            backend = instance.operator.backend
            # Cluster runs: the instance's shards upload from its
            # hosting node (the replica-placement origin).
            origin = executor.cluster_node_of(idx)
            iput = (
                put if origin is None
                else lambda path, data, _o=origin: put(path, data, _o)
            )
            if self.incremental:
                written, reused, full = self._checkpoint_sharded(
                    epoch, key, backend, iput, stores, sharded, committed
                )
                shards_written += written
                shards_reused += reused
                all_full = all_full and full
            else:
                snap = backend.snapshot()
                stores[key] = snap.kind
                base = f"{_epoch_dir(epoch)}/{key}"
                iput(f"{base}/meta", snap.meta)
                for name, data in snap.files.items():
                    iput(f"{base}/files/{name}", data)
            operators[key] = instance.operator.checkpoint_state()
        job_meta = pickle.dumps(
            {
                "at_record": count,
                "max_timestamp": max_ts,
                "parallelism": executor.current_parallelism,
                # The routing table may be non-contiguous after an
                # aborted live rescale; a restore must reproduce it
                # exactly or replayed records land on the wrong owners.
                "group_owner": list(executor.group_owner),
                **executor.job_outputs(),  # sinks, latencies, rescales
                "operators": operators,
                "policy": rescale_policy,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        put(f"{_epoch_dir(epoch)}/job", job_meta)
        manifest: dict[str, Any] = {
            "epoch": epoch,
            "stores": stores,
            "entries": manifest_entries,
        }
        if sharded:
            manifest["sharded"] = sharded
        storage.commit_manifest(epoch, manifest)
        # Commit point passed: publish the new chain state and reset
        # dirty tracking so the next epoch's delta starts at this cut.
        self._shard_maps = {}
        self._shard_groupspace = {}
        self._shard_full_epoch = {}
        for key, backend, shard_map, groupspace, full_epoch in committed:
            self._shard_maps[key] = shard_map
            self._shard_groupspace[key] = groupspace
            self._shard_full_epoch[key] = full_epoch
            backend.clear_dirty()
        self.epochs_written += 1
        self.stats.append(
            CheckpointStat(
                epoch=epoch,
                full=all_full,
                bytes_written=bytes_written,
                files_written=len(manifest_entries),
                shards_written=shards_written,
                shards_reused=shards_reused,
                sim_seconds=storage.env.clock.now - started,
            )
        )
        self._collect_garbage()
        if self.replication is not None:
            # Seal the epoch's changelog after the commit point: sealed
            # segment sets are exact deltas between consistent cuts.
            self.replication.seal_epoch(epoch, executor)
        return epoch

    def _checkpoint_sharded(
        self,
        epoch: int,
        key: str,
        backend: Any,
        put: Any,
        stores: dict[str, str],
        sharded: dict[str, dict[str, Any]],
        committed: list,
    ) -> tuple[int, int, bool]:
        """Write one instance's epoch as key-group shards.

        Returns ``(shards_written, shards_reused, took_full_cut)``.
        """
        groupspace = backend.checkpoint_key_groups
        prev_map = self._shard_maps.get(key)
        last_full = self._shard_full_epoch.get(key)
        take_full = (
            prev_map is None
            or last_full is None
            or self._shard_groupspace.get(key) != groupspace
            or epoch - last_full >= self.full_snapshot_interval
        )

        def group_of(k: bytes, _g: int = groupspace) -> int:
            return key_group_of(k, _g)

        if take_full:
            export = backend.export_group_state(None, group_of)
            dirty: frozenset[int] | None = None
        else:
            dirty = frozenset(backend.dirty_groups())
            export = backend.export_group_state(set(dirty), group_of)
        per_group: dict[int, list] = {}
        for entry in export.entries:
            per_group.setdefault(group_of(entry.key), []).append(entry)

        shard_map: dict[int, ShardRef] = {}
        if not take_full:
            assert prev_map is not None and dirty is not None
            for group, ref in prev_map.items():
                if group not in dirty:
                    shard_map[group] = ref
        reused = len(shard_map)
        written = 0
        base = f"{_epoch_dir(epoch)}/{key}"
        for group in sorted(per_group):
            entries = per_group[group]
            if not entries:
                continue
            data = pack_group_shard(self.storage.env, entries)
            path = f"{base}/shards/g{group:05d}"
            put(path, data)
            shard_map[group] = ShardRef(epoch, path, len(data), zlib.crc32(data))
            written += 1

        stores[key] = "sharded"
        full_epoch = epoch if take_full else int(last_full)  # type: ignore[arg-type]
        sharded[key] = {
            "kind": type(backend).__name__,
            "max_key_groups": groupspace,
            "full_epoch": full_epoch,
            "groups": {
                group: (ref.epoch, ref.path, ref.length, ref.crc)
                for group, ref in shard_map.items()
            },
        }
        committed.append((key, backend, shard_map, groupspace, full_epoch))
        return written, reused, take_full

    # ------------------------------------------------------------------
    # chain-aware garbage collection
    # ------------------------------------------------------------------
    def _collect_garbage(self) -> None:
        """Drop epochs beyond the retention window, then sweep files no
        surviving manifest references (owned entries *or* shard refs).

        Conservative by construction: if any surviving manifest cannot
        be read back, nothing is deleted this round — a shard must never
        be collected while a manifest that references it is live.
        """
        if self.retained_epochs is None:
            return
        storage = self.storage
        epochs = storage.epochs()
        if len(epochs) <= self.retained_epochs:
            return
        keep = epochs[-self.retained_epochs:]
        live: set[str] = set()
        for epoch in keep:
            try:
                manifest = storage.read_manifest(epoch)
            except SnapshotCorruptError:
                return
            live.add(f"{_epoch_dir(epoch)}/MANIFEST")
            live.update(manifest["entries"])
            for desc in manifest.get("sharded", {}).values():
                for _e, path, _l, _c in desc["groups"].values():
                    live.add(path)
        for epoch in epochs[: -self.retained_epochs]:
            # Manifest first: the epoch stops being restorable atomically,
            # before any of its files disappear.
            with_retries(
                storage.env,
                lambda e=epoch: storage.fs.delete(f"{_epoch_dir(e)}/MANIFEST"),
            )
        for name in list(storage.fs.list_files(_CHK_ROOT + "/")):
            if name not in live:
                with_retries(storage.env, lambda n=name: storage.fs.delete(n))


class RecoveryManager:
    """Run a job to completion across injected crashes, exactly-once.

    Wraps the executor loop: on :class:`InjectedCrashError` (or a
    :class:`DiskIOError` that outlived its retries) the crashed topology
    is discarded wholesale, the newest complete checkpoint is restored —
    skipping over corrupt epochs — and the source replays from the
    checkpoint's record count.  With no usable checkpoint the job
    restarts fresh (including a pristine copy of the rescale policy, so
    already-fired schedule entries fire again on replay).
    """

    def __init__(
        self,
        plan_env: StreamEnvironment,
        checkpoint_interval: int,
        incremental: bool = True,
        full_snapshot_interval: int = 4,
        retained_epochs: int | None = None,
        mode: str = "restore",
    ) -> None:
        if mode not in ("restore", "standby"):
            raise PlanError(f"unknown recovery mode {mode!r}")
        self.plan = plan_env
        self.mode = mode
        env = SimEnv(cpu=plan_env.cpu, ssd=plan_env.ssd, faults=plan_env.faults)
        cluster = getattr(plan_env, "cluster", None)
        if cluster is not None and cluster.n_nodes > 1:
            # Checkpoints live on the workers' disks: replica-placed,
            # node failures destroy local replicas, remote shards are
            # fetched from peers.  (Imported lazily: the storage
            # module depends on this one.)
            from repro.cluster.storage import ClusterCheckpointStorage

            self.storage: CheckpointStorage = ClusterCheckpointStorage(env, cluster)
        else:
            self.storage = CheckpointStorage(env)
        self.checkpointer = Checkpointer(
            self.storage,
            checkpoint_interval,
            incremental=incremental,
            full_snapshot_interval=full_snapshot_interval,
            retained_epochs=retained_epochs,
        )
        self.recoveries: list[RecoveryEvent] = []
        # Hot-standby lane: changelog replication only exists in standby
        # mode on a real multi-node cluster — otherwise the default
        # restore behaviour (and its charges) are byte-identical.
        self.replication: Any = None
        if mode == "standby":
            cluster = getattr(plan_env, "cluster", None)
            if cluster is not None and cluster.n_nodes > 1:
                from repro.changelog import ChangelogReplication

                self.replication = ChangelogReplication(
                    self.storage.env, cluster, self.storage.env.faults
                )
                self.checkpointer.replication = self.replication

    def run(self, rescale_policy: Any = None, **run_kwargs: Any) -> JobResult:
        """Execute the plan with checkpointing and automatic recovery."""
        self.plan.validate()
        executor = Executor(self.plan)
        # Materialize the sources ONCE: replays must see the identical
        # record sequence even if the plan's sources were generators.
        records = list(executor.merged_sources())
        pristine_policy = pickle.dumps(rescale_policy, protocol=pickle.HIGHEST_PROTOCOL)
        policy = rescale_policy
        at_record = 0
        max_ts = float("-inf")
        restarts = 0
        if self.replication is not None:
            self.replication.bind(executor)
        while True:
            try:
                result = executor.run(
                    records=records,
                    start_count=at_record,
                    start_max_ts=max_ts,
                    checkpointer=self.checkpointer,
                    rescale_policy=policy,
                    **run_kwargs,
                )
                break
            except (InjectedCrashError, DiskIOError) as exc:
                site = getattr(exc, "site", "disk")
                failed_node = getattr(exc, "node", None)
                if failed_node is None:
                    self.recoveries.append(
                        RecoveryEvent(
                            kind="crash",
                            at_record=getattr(executor, "records_ingested", 0),
                            site=site,
                            detail=str(exc),
                        )
                    )
                else:
                    # Whole-node failure domain: the machine's checkpoint
                    # replicas die with it before anything is restored.
                    lost = 0
                    fail = getattr(self.storage, "fail_node", None)
                    if fail is not None:
                        lost = fail(failed_node)
                    self.recoveries.append(
                        RecoveryEvent(
                            kind="node_failure",
                            at_record=getattr(executor, "records_ingested", 0),
                            site=site,
                            detail=f"node {failed_node} died; "
                                   f"{lost} checkpoint files lost",
                        )
                    )
                restarts += 1
                if restarts > MAX_RESTARTS:
                    raise
                # The failure time, for the standbys' ``ready_at`` stamps:
                # independent clock domains, but a healthy link finishes
                # tailing orders of magnitude before the kill point and a
                # slowed one lands orders of magnitude after it.
                crash_time = executor.busiest_clock(default=self.storage.env.clock.now)
                executor = Executor(self.plan)
                promoted = None
                if self.replication is not None and failed_node is not None:
                    self.replication.fail_node(failed_node)
                    promoted = self._promote(executor, failed_node, crash_time)
                if promoted is not None:
                    at_record, max_ts, policy = promoted
                else:
                    at_record, max_ts, policy = self._restore(executor, pristine_policy)
                if self.replication is not None:
                    # The crashed topology's writers and warm replicas are
                    # stale; re-bootstrap everything at the next epoch cut.
                    self.replication.reset()
                    self.replication.bind(executor)
        # Checkpoint/recovery device work belongs on the job's ledger.
        total = MetricsLedger()
        total.merge(result.metrics)
        total.merge(self.storage.env.ledger)
        result.metrics = total.snapshot()
        result.recoveries = list(self.recoveries)
        result.checkpoints = self.checkpointer.epochs_written
        result.checkpoint_stats = list(self.checkpointer.stats)
        return result

    # ------------------------------------------------------------------
    def _read_epoch(self, epoch: int) -> tuple[dict[str, Any], dict[str, Any]]:
        """One committed epoch's CRC-verified manifest and job blob."""
        manifest = self.storage.read_manifest(epoch)
        job = pickle.loads(
            self.storage.read_file(manifest, f"{_epoch_dir(epoch)}/job")
        )
        return manifest, job

    def _load_epoch(
        self,
        executor: Executor,
        epoch: int,
        manifest: dict[str, Any],
        job: dict[str, Any],
        override: Callable[[int, str], list[ExportedEntry] | None] | None = None,
    ) -> None:
        """Load one committed epoch into ``executor`` — the one state-loading
        path of both the restore and the promotion lane.

        Redeploys at the epoch's parallelism and routing table, then fills
        each stateful instance from the first source that has it:
        ``override(index, key)`` (a promoted standby's entries), the
        instance's shard chain, or its whole-store snapshot.  Every shard
        — owned by this epoch or inherited — is read through
        :meth:`CheckpointStorage.read_ref` from the instance's cluster
        node (a peer download when no replica lives there), so corruption
        *anywhere in a chain* raises :class:`SnapshotCorruptError`.  An
        imported instance's dirty set is cleared: it holds exactly what
        the epoch describes, so the next delta epoch may reference it.
        Operator metadata, job outputs and the manifest's shard chains
        follow.
        """
        storage = self.storage
        executor.rebuild_for_restore(job["parallelism"])
        owner_table = job.get("group_owner")
        if owner_table is not None:
            executor.group_owner[:] = owner_table
        sharded = manifest.get("sharded", {})
        for _node, idx, instance, key in executor.stateful_instances():
            backend = instance.operator.backend
            entries = None if override is None else override(idx, key)
            if entries is None and key in sharded:
                groups = sharded[key]["groups"]
                entries = []
                for group in sorted(groups):
                    ref = ShardRef(*groups[group])
                    data = storage.read_ref(
                        ref.path, ref.length, ref.crc,
                        reader=executor.cluster_node_of(idx),
                    )
                    entries.extend(unpack_group_shard(storage.env, data))
            if entries is None:
                backend.restore(storage.load_snapshot(epoch, manifest, key))
            else:
                backend.import_state(StateExport(entries=entries))
                backend.clear_dirty()
            instance.operator.restore_checkpoint_state(job["operators"][key])
        executor.set_job_outputs(job["sinks"], job["latencies"], job["rescales"])
        self.checkpointer.adopt_manifest(epoch, manifest, job["at_record"])

    def _promote(
        self, executor: Executor, failed_node: int, crash_time: float
    ) -> tuple[int, float, Any] | None:
        """Fail over onto the dead node's standbys (the hot lane).

        Picks the newest epoch that is both restorable from the manifest
        (survivors still load their checkpoint shards) and reproducible
        by *every* dead instance's standby — already tailed by the time
        the node died (``ready_at <= crash_time``), at a usable offset,
        and not invalidated.  Dead instances import the warm state plus
        a replayed changelog tail and are repointed at the peer node via
        ``node_override``; surviving groups restore exactly as in the
        restore lane.  Returns None to degrade to checkpoint-restore —
        lagging, invalid, or absent standbys and any failure mid-way all
        land there.
        """
        from repro.faults import CRASH_STANDBY_PROMOTE

        storage = self.storage
        replication = self.replication
        cluster = self.plan.cluster
        faults = storage.env.faults
        started = storage.env.clock.now
        standby_node = replication.standby_of(failed_node)
        degrade_reason = "no usable checkpoint epoch"
        for epoch in reversed(storage.epochs()):
            try:
                manifest, job = self._read_epoch(epoch)
            except SnapshotCorruptError:
                continue
            parallelism = job["parallelism"]
            dead_idxs = {
                idx for idx in range(parallelism)
                if cluster.place(idx) == failed_node
            }
            dead_keys = [
                f"op{node.node_id}/p{idx}"
                for node in executor.stateful_nodes
                for idx in sorted(dead_idxs)
            ]
            if not dead_keys:
                degrade_reason = f"node {failed_node} hosted no state"
                break
            lagging = [
                key for key in dead_keys
                if epoch not in replication.promotable_epochs(key, crash_time)
            ]
            if lagging:
                degrade_reason = (
                    f"standby not ready at epoch {epoch} for {lagging[0]}"
                )
                continue
            tail_replayed = 0

            def from_standby(idx: int, key: str) -> list[ExportedEntry] | None:
                nonlocal tail_replayed
                if idx not in dead_idxs:
                    return None
                if faults is not None:
                    faults.crash_point(CRASH_STANDBY_PROMOTE, now=storage.env.now)
                entries, tail = replication.promote_entries(key, epoch)
                tail_replayed += tail
                return entries

            for idx in sorted(dead_idxs):
                executor.node_override[idx] = standby_node
            try:
                self._load_epoch(executor, epoch, manifest, job, from_standby)
            except (SnapshotCorruptError, InjectedCrashError) as exc:
                # Torn standby state, a crash injected mid-promotion, or
                # a corrupt survivor shard: abandon the hot lane whole.
                executor.node_override.clear()
                degrade_reason = str(exc)
                break
            self.recoveries.append(
                RecoveryEvent(
                    kind="promote",
                    at_record=job["at_record"],
                    epoch=epoch,
                    detail=(
                        f"node {failed_node} -> standby {standby_node}; "
                        f"replayed {tail_replayed} changelog records"
                    ),
                    sim_seconds=storage.env.clock.now - started,
                )
            )
            return job["at_record"], job["max_timestamp"], job["policy"]
        self.recoveries.append(
            RecoveryEvent(
                kind="degraded",
                at_record=0,
                detail=degrade_reason,
                sim_seconds=storage.env.clock.now - started,
            )
        )
        return None

    def _restore(
        self, executor: Executor, pristine_policy: bytes
    ) -> tuple[int, float, Any]:
        """Load the newest complete checkpoint into a fresh executor.

        Returns ``(at_record, max_timestamp, policy)`` for the replay.
        Corrupt epochs (failed CRC/length checks anywhere) are skipped
        with a recorded event; with none left the job restarts fresh.
        """
        storage = self.storage
        for epoch in reversed(storage.epochs()):
            started = storage.env.clock.now
            try:
                manifest, job = self._read_epoch(epoch)
                self._load_epoch(executor, epoch, manifest, job)
            except SnapshotCorruptError as exc:
                self.recoveries.append(
                    RecoveryEvent(
                        kind="corrupt_checkpoint",
                        at_record=0,
                        epoch=epoch,
                        detail=str(exc),
                        sim_seconds=storage.env.clock.now - started,
                    )
                )
                continue
            self.recoveries.append(
                RecoveryEvent(
                    kind="restore",
                    at_record=job["at_record"],
                    epoch=epoch,
                    sim_seconds=storage.env.clock.now - started,
                )
            )
            return job["at_record"], job["max_timestamp"], job["policy"]
        # No usable checkpoint: full restart from record zero.  A corrupt
        # epoch may have half-loaded some instances before failing its
        # checks — rebuild so the restart really is pristine.
        executor.rebuild_for_restore(self.plan.parallelism * self.plan.workers)
        self.recoveries.append(RecoveryEvent(kind="fresh_restart", at_record=0))
        self.checkpointer.start_from(0, 0)
        return 0, float("-inf"), pickle.loads(pristine_policy)
