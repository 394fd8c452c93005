"""Standby replicas: warm state tailed from changelog segments.

One :class:`StandbyReplica` mirrors one physical instance's store onto
the owner node's consecutive peer (``(owner + 1) % n_nodes`` — the same
placement rule as checkpoint-shard replicas).  At every checkpoint-epoch
cut the owner seals its buffered changelog into per-group segments and
ships them over the priced network; the standby buffers the newest
epoch's segments *pending* and folds everything older into its warm
cells, tracking a ``persisted_offset`` (highest applied sequence number)
per key-group — the faust ``apply_changelog_batch``/``persisted_offset``
shape.  Keeping the newest epoch pending is what gives promotion a real
tail: warm state sits at the previous cut, and promoting at epoch E
replays exactly E's records past the last applied offset.

A replica never serves doubtful state.  A dropped link (segment lost), a
CRC failure (torn/bit-flipped segment), or a sequence-number gap
invalidates the whole replica; it re-bootstraps with a full base at the
next cut, and a failover arriving before then degrades to
checkpoint-restore.  A ``slow_link`` stretches the tail's arrival time
(``ready_at``), so a kill that lands before the segments would have
arrived also degrades — the lagging-standby case.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any

from repro.changelog.log import ChangelogWriter, pack_segment, unpack_segment
from repro.cluster.topology import charge_link
from repro.errors import DiskIOError, SnapshotCorruptError
from repro.kvstores.api import (
    KIND_AGG,
    KIND_JOIN_LEFT,
    KIND_JOIN_RIGHT,
    LOG_APPEND,
    LOG_MERGE,
    LOG_PUT,
    LOG_REMOVE,
    LOG_TRIM,
    ExportedEntry,
    key_group_of,
)
from repro.simenv.metrics import CAT_CHANGELOG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import ClusterTopology
    from repro.engine.runtime import Executor
    from repro.simenv import SimEnv

_JOIN_KINDS = (KIND_JOIN_LEFT, KIND_JOIN_RIGHT)

# Transfer-label prefixes (fault plans target these with drop_link /
# slow_link; torn_write/bit_flip target the matching "clog/" write label).
NET_SEGMENT_PREFIX = "net/clog/"
NET_BASE_PREFIX = "net/clog/base/"


class StandbyReplica:
    """Warm copy of one instance's state on the owner's peer node."""

    def __init__(self, key: str, owner_node: int, standby_node: int, groupspace: int) -> None:
        self.key = key
        self.owner_node = owner_node
        self.standby_node = standby_node
        self.groupspace = groupspace
        # (key, kind) -> {window: values}; list/agg cells hold serialized
        # value lists, join cells hold decoded (ts, value) pairs.
        self._cells: dict[tuple[bytes, str], dict[Any, list]] = {}
        self._etts: dict[tuple[bytes, str, Any], float | None] = {}
        # Highest applied sequence number per key-group.
        self.persisted_offset: dict[int, int] = {}
        # epoch -> group -> unapplied rows (only the newest epoch, by
        # construction: every seal folds all older epochs into warm).
        self.pending: dict[int, dict[int, list[tuple]]] = {}
        # epoch -> when its last segment landed, on the processing
        # timeline (cut time + shipping duration) — comparable against
        # the failure time a promotion is attempted at.
        self.ready_at: dict[int, float] = {}
        self.bootstrapped = False
        self.invalid_reason = ""
        self.applied_epoch: int | None = None  # warm state == this epoch's cut
        self.complete_epoch: int | None = None  # newest fully-received epoch
        self.records_applied = 0

    # ------------------------------------------------------------------
    # tailing (called by ChangelogReplication at each epoch cut)
    # ------------------------------------------------------------------
    def load_group_base(self, group: int, entries: list[ExportedEntry], env: "SimEnv") -> None:
        """Install one group's full-base entries (bootstrap)."""
        nbytes = 0
        for entry in entries:
            windows = self._cells.setdefault((entry.key, entry.kind), {})
            if entry.kind in _JOIN_KINDS:
                pairs = list(pickle.loads(entry.values[0]))
                env.charge_cpu(
                    CAT_CHANGELOG, len(entry.values[0]) * env.cpu.serde_per_byte
                )
                windows[entry.window] = pairs
            else:
                windows[entry.window] = list(entry.values)
            nbytes += entry.payload_bytes
            self._etts[(entry.key, entry.kind, entry.window)] = entry.ett
        env.charge_cpu(CAT_CHANGELOG, nbytes * env.cpu.copy_per_byte)

    def finish_base(self, epoch: int, sequences: dict[int, int], now: float) -> None:
        """Base fully landed: the warm copy equals ``epoch``'s cut and
        every record the owner ever logged counts as applied."""
        self.persisted_offset = dict(sequences)
        self.pending.clear()
        self.bootstrapped = True
        self.invalid_reason = ""
        self.applied_epoch = epoch
        self.complete_epoch = epoch
        self.ready_at[epoch] = now

    def receive_segment(self, epoch: int, group: int, data: bytes, env: "SimEnv") -> None:
        """Unframe one shipped segment into the pending epoch buffer."""
        env.charge_cpu(
            CAT_CHANGELOG,
            len(data) * (env.cpu.crc_per_byte + env.cpu.serde_per_byte),
        )
        rows = unpack_segment(data)
        self.pending.setdefault(epoch, {})[group] = rows

    def commit_epoch(self, epoch: int, now: float, env: "SimEnv") -> None:
        """Epoch fully received: fold every *older* pending epoch into
        the warm cells, keep this epoch as the promotion tail."""
        for pending_epoch in sorted(self.pending):
            if pending_epoch >= epoch:
                continue
            groups = self.pending.pop(pending_epoch)
            for group in sorted(groups):
                for row in groups[group]:
                    self._apply_row(group, row, env)
        # Epochs with no logged mutations ship nothing; state at their
        # cut equals the previous cut, so warm always reaches epoch - 1.
        if self.applied_epoch is None or self.applied_epoch < epoch - 1:
            self.applied_epoch = epoch - 1
        self.complete_epoch = epoch
        self.ready_at[epoch] = now

    def invalidate(self, reason: str) -> None:
        """Lost/corrupt/gapped tail: never serve doubtful state.  The
        replica re-bootstraps with a full base at the next cut."""
        self._cells.clear()
        self._etts.clear()
        self.persisted_offset.clear()
        self.pending.clear()
        self.ready_at.clear()
        self.bootstrapped = False
        self.invalid_reason = reason
        self.applied_epoch = None
        self.complete_epoch = None

    # ------------------------------------------------------------------
    # promotion / seeding (read side)
    # ------------------------------------------------------------------
    def usable_epochs(self) -> frozenset[int]:
        """Epochs whose exact cut this replica can reproduce: the warm
        epoch as-is, plus the newest epoch by applying the pending tail."""
        if not self.bootstrapped:
            return frozenset()
        usable = set()
        if self.applied_epoch is not None:
            usable.add(self.applied_epoch)
        if self.complete_epoch is not None:
            usable.add(self.complete_epoch)
        return frozenset(usable)

    def ready_by(self, epoch: int, at_time: float) -> bool:
        """Had every segment through ``epoch`` arrived by ``at_time``?
        (A slow link pushes ``ready_at`` past the failure time: lagging.)"""
        ready = self.ready_at.get(epoch)
        return ready is not None and ready <= at_time

    def promote(self, epoch: int, env: "SimEnv") -> tuple[list[ExportedEntry], int]:
        """Materialize the state at ``epoch``'s cut for a failover.

        Replays only the changelog tail past each group's last applied
        offset (zero records when promoting the warm epoch as-is).
        Returns ``(entries, tail_records_replayed)``.
        """
        if epoch not in self.usable_epochs():
            raise SnapshotCorruptError(
                f"standby for {self.key} cannot reproduce epoch {epoch} "
                f"(usable: {sorted(self.usable_epochs())})"
            )
        tail = 0
        groups = self.pending.pop(epoch, None)
        if groups:
            for group in sorted(groups):
                for row in groups[group]:
                    self._apply_row(group, row, env)
                    tail += 1
            self.applied_epoch = epoch
        return self._export_cells(env), tail

    def read_group(self, group: int, env: "SimEnv") -> list[ExportedEntry]:
        """One group's state at the newest cut (rescale-seed read): fold
        the group's pending tail, then copy its cells out."""
        for epoch in sorted(self.pending):
            rows = self.pending[epoch].pop(group, None)
            for row in rows or ():
                self._apply_row(group, row, env)
        return self._export_cells(
            env, lambda key: key_group_of(key, self.groupspace) == group
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _apply_row(self, group: int, row: tuple, env: "SimEnv") -> None:
        seq, op, key, window, kind, values = row
        expected = self.persisted_offset.get(group, 0) + 1
        if seq != expected:
            raise SnapshotCorruptError(
                f"changelog gap for {self.key} group {group}: "
                f"seq {seq}, persisted_offset {expected - 1}"
            )
        join = kind in _JOIN_KINDS
        nbytes = sum(len(v) for v in values if isinstance(v, (bytes, bytearray)))
        env.charge_cpu(
            CAT_CHANGELOG,
            env.cpu.serde_per_record
            + nbytes * (env.cpu.serde_per_byte if join else env.cpu.copy_per_byte),
        )
        windows = self._cells.setdefault((key, kind), {})
        if op == LOG_APPEND:
            items = [pickle.loads(v) for v in values] if join else list(values)
            windows.setdefault(window, []).extend(items)
        elif op == LOG_PUT:
            items = [pickle.loads(v) for v in values] if join else list(values)
            windows[window] = items
        elif op == LOG_MERGE:
            if join:
                items = [pair for v in values for pair in pickle.loads(v)]
                windows.setdefault(window, []).extend(items)
            elif kind == KIND_AGG:
                windows[window] = list(values)
            else:
                windows.setdefault(window, []).extend(values)
        elif op == LOG_REMOVE:
            windows.pop(window, None)
            self._etts.pop((key, kind, window), None)
        elif op == LOG_TRIM:
            cut = values[0]
            for w in list(windows):
                kept = [pair for pair in windows[w] if pair[0] >= cut]
                if kept:
                    windows[w] = kept
                else:
                    del windows[w]
                    self._etts.pop((key, kind, w), None)
        else:  # pragma: no cover - writer emits only the ops above
            raise SnapshotCorruptError(f"unknown changelog op {op!r}")
        if not windows:
            self._cells.pop((key, kind), None)
        self.persisted_offset[group] = seq
        self.records_applied += 1

    def _export_cells(self, env: "SimEnv", keep=None) -> list[ExportedEntry]:
        entries: list[ExportedEntry] = []
        nbytes = 0
        for (key, kind), windows in self._cells.items():
            if keep is not None and not keep(key):
                continue
            for window, items in windows.items():
                if not items:
                    continue
                if kind in _JOIN_KINDS:
                    # Stable sort: equal timestamps keep arrival order,
                    # matching the owner's insort behaviour.
                    blob = pickle.dumps(
                        sorted(items, key=lambda pair: pair[0]),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    env.charge_cpu(
                        CAT_CHANGELOG, len(blob) * env.cpu.serde_per_byte
                    )
                    values = [blob]
                else:
                    values = list(items)
                    nbytes += sum(len(v) for v in values)
                entries.append(
                    ExportedEntry(
                        key=key, window=window, kind=kind, values=values,
                        ett=self._etts.get((key, kind, window)),
                    )
                )
        env.charge_cpu(CAT_CHANGELOG, nbytes * env.cpu.copy_per_byte)
        return entries


class ChangelogReplication:
    """Owner-side writers plus peer-side standbys for one cluster job.

    Owned by the :class:`repro.recovery.RecoveryManager` standby lane and
    driven by the :class:`~repro.recovery.Checkpointer` at every epoch
    commit (:meth:`seal_epoch`).  All replication work — segment framing,
    standby applies, promotion replay — is charged to the manager's
    storage environment under the ``changelog`` category, and every
    shipped byte pays the priced network link from owner to standby
    (``net/clog/...`` labels: drop_link / slow_link / torn_write fault
    plans apply).
    """

    def __init__(self, env: "SimEnv", cluster: "ClusterTopology", faults=None) -> None:
        self.env = env
        self.cluster = cluster
        self.faults = faults
        self.enabled = cluster is not None and cluster.n_nodes > 1
        self._writers: dict[str, ChangelogWriter] = {}
        self._backends: dict[str, Any] = {}
        self._owner: dict[str, int] = {}
        self._standbys: dict[str, StandbyReplica] = {}
        self.segments_shipped = 0
        self.bytes_shipped = 0
        self.bases_shipped = 0
        self.records_shipped = 0
        self.promotions = 0

    def standby_of(self, owner_node: int) -> int | None:
        """Consecutive-peer placement, as for checkpoint replicas."""
        if not self.enabled:
            return None
        return (owner_node + 1) % self.cluster.n_nodes

    # ------------------------------------------------------------------
    # owner-side binding and sealing
    # ------------------------------------------------------------------
    def bind(self, executor: "Executor") -> None:
        """(Re)attach writers to the executor's live instances.

        Called at run start, after every recovery rebuild, and at each
        seal — so instances created or retired by a mid-run rescale are
        picked up without a dedicated hook.  Writers persist across
        binds (their buffers and sequence counters are the changelog);
        standbys for retired keys or re-placed owners are dropped.
        """
        live_writers: dict[str, ChangelogWriter] = {}
        live_backends: dict[str, Any] = {}
        live_owner: dict[str, int] = {}
        for _node, idx, instance, key in executor.stateful_instances():
            backend = instance.operator.backend
            groupspace = backend.checkpoint_key_groups
            writer = self._writers.get(key)
            if writer is None or writer.groupspace != groupspace:
                writer = ChangelogWriter(key, groupspace)
            backend.attach_changelog(writer)
            live_writers[key] = writer
            live_backends[key] = backend
            live_owner[key] = executor.cluster_node_of(idx) or 0
        self._writers = live_writers
        self._backends = live_backends
        self._owner = live_owner
        for key in list(self._standbys):
            standby = self._standbys[key]
            if (
                key not in live_writers
                or standby.owner_node != live_owner[key]
                or standby.groupspace != live_writers[key].groupspace
            ):
                del self._standbys[key]
        executor.replication = self  # seeds promote-mode rescales

    def seal_epoch(self, epoch: int, executor: "Executor") -> None:
        """Ship this epoch's changelog to every standby (epoch cut).

        Runs right after the checkpoint manifest commits, so sealed
        segment sets are deltas between consistent cuts.  A replica that
        was never bootstrapped (first cut, post-recovery, post-rescale
        re-placement) receives a full base — the owner's state at this
        very cut — instead of a delta.
        """
        self.bind(executor)
        if not self.enabled:
            for writer in self._writers.values():
                writer.clear()
            return
        from repro.faults import CRASH_CHANGELOG_SEAL

        # The cut's place on the processing timeline: readiness stamps
        # are cut time plus shipping duration, in the same clock domain
        # failure times are measured in (see StandbyReplica.ready_by).
        cut_stamp = executor.busiest_clock(default=self.env.now)
        for key in sorted(self._writers):
            writer = self._writers[key]
            owner = self._owner[key]
            standby_node = self.standby_of(owner)
            if standby_node is None or standby_node == owner:
                writer.clear()
                continue
            standby = self._standbys.get(key)
            if standby is None:
                standby = self._standbys[key] = StandbyReplica(
                    key, owner, standby_node, writer.groupspace
                )
            if not standby.bootstrapped:
                self._ship_base(epoch, key, writer, standby, cut_stamp)
                continue
            rows_by_group = writer.seal()
            ship_started = self.env.now
            try:
                for group in sorted(rows_by_group):
                    if self.faults is not None:
                        self.faults.crash_point(
                            CRASH_CHANGELOG_SEAL, now=self.env.now
                        )
                    data = pack_segment(rows_by_group[group])
                    if self.faults is not None:
                        # Route the framed segment through the write-fault
                        # hook: torn_write/bit_flip plans with a "clog/"
                        # prefix corrupt it, caught by the CRC below.
                        data = self.faults.on_write(
                            f"clog/{key}/g{group:05d}", data, self.env.now
                        )
                    self.env.charge_cpu(
                        CAT_CHANGELOG, len(data) * self.env.cpu.crc_per_byte
                    )
                    charge_link(
                        self.env, self.cluster.network, owner, standby_node,
                        len(data), f"{NET_SEGMENT_PREFIX}{key}/g{group:05d}",
                        self.faults,
                    )
                    standby.receive_segment(epoch, group, data, self.env)
                    self.segments_shipped += 1
                    self.bytes_shipped += len(data)
                    self.records_shipped += len(rows_by_group[group])
                standby.commit_epoch(
                    epoch, cut_stamp + (self.env.now - ship_started), self.env
                )
            except DiskIOError as exc:
                # Dropped link: part of the epoch never arrived and the
                # owner's buffer is gone — the replica must re-bootstrap.
                standby.invalidate(f"epoch {epoch} segment lost: {exc}")
            except SnapshotCorruptError as exc:
                standby.invalidate(str(exc))

    def _ship_base(
        self,
        epoch: int,
        key: str,
        writer: ChangelogWriter,
        standby: StandbyReplica,
        cut_stamp: float,
    ) -> None:
        """Bootstrap one replica with a full copy at this epoch's cut."""
        backend = self._backends[key]
        groupspace = writer.groupspace

        def group_of(k: bytes, _g: int = groupspace) -> int:
            return key_group_of(k, _g)

        from repro.faults import CRASH_CHANGELOG_SEAL

        # The cut's state already reflects every buffered record: the
        # delta rows are redundant with the base and are dropped, but
        # their sequence numbers still count as applied.
        writer.seal()
        ship_started = self.env.now
        export = backend.export_group_state(None, group_of)
        per_group: dict[int, list[ExportedEntry]] = {}
        for entry in export.entries:
            per_group.setdefault(group_of(entry.key), []).append(entry)
        try:
            for group in sorted(per_group):
                if self.faults is not None:
                    self.faults.crash_point(CRASH_CHANGELOG_SEAL, now=self.env.now)
                size = sum(e.payload_bytes for e in per_group[group])
                charge_link(
                    self.env, self.cluster.network, standby.owner_node,
                    standby.standby_node, size,
                    f"{NET_BASE_PREFIX}{key}/g{group:05d}", self.faults,
                )
                standby.load_group_base(group, per_group[group], self.env)
                self.bytes_shipped += size
            standby.finish_base(
                epoch, writer.sequences(),
                cut_stamp + (self.env.now - ship_started),
            )
            self.bases_shipped += 1
        except DiskIOError as exc:
            standby.invalidate(f"base ship failed at epoch {epoch}: {exc}")

    # ------------------------------------------------------------------
    # failure handling and promotion reads
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """A node died: every warm replica *hosted* on it is gone.
        (Replicas *of* the node's instances live on its peer — intact.)"""
        for key in list(self._standbys):
            if self._standbys[key].standby_node == node:
                self._standbys[key].invalidate(f"standby host node {node} died")

    def reset(self) -> None:
        """Post-recovery: the old topology's writers and replicas are
        stale (their owners were rebuilt).  Everything re-bootstraps at
        the next epoch cut."""
        self._writers.clear()
        self._backends.clear()
        self._owner.clear()
        self._standbys.clear()

    def promotable_epochs(self, key: str, at_time: float) -> frozenset[int]:
        """Epochs at which ``key``'s replica could be promoted, given
        the failure happened at ``at_time``."""
        standby = self._standbys.get(key)
        if standby is None or not standby.bootstrapped:
            return frozenset()
        return frozenset(
            epoch for epoch in standby.usable_epochs()
            if standby.ready_by(epoch, at_time)
        )

    def promote_entries(self, key: str, epoch: int) -> tuple[list[ExportedEntry], int]:
        """Materialize ``key``'s state at ``epoch`` (tail replayed)."""
        standby = self._standbys.get(key)
        if standby is None or not standby.bootstrapped:
            raise SnapshotCorruptError(
                f"no bootstrapped standby for {key}"
                + (f": {standby.invalid_reason}" if standby is not None else "")
            )
        entries, tail = standby.promote(epoch, self.env)
        self.promotions += 1
        return entries, tail

    def group_entries(
        self, key: str, group: int, max_key_groups: int,
        destination_node: int | None = None,
    ) -> list[ExportedEntry] | None:
        """One clean key-group's state from ``key``'s warm replica, for
        seeding a promote-mode rescale; None when no bootstrapped replica
        at this group-space size exists.

        Reads the replica (folding the group's pending tail), then pays
        the priced link from the standby to ``destination_node`` — the
        bytes travel off the owner's hot path.
        """
        standby = self._standbys.get(key)
        if (
            standby is None
            or not standby.bootstrapped
            or standby.groupspace != max_key_groups
        ):
            return None
        entries = standby.read_group(group, self.env)
        if destination_node is not None:
            charge_link(
                self.env, self.cluster.network, standby.standby_node,
                destination_node, sum(e.payload_bytes for e in entries),
                f"{NET_SEGMENT_PREFIX}seed/{key}/g{group:05d}", self.faults,
            )
        return entries
