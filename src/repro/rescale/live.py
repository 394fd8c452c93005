"""Live (asynchronous, per-key-group) rescaling.

Instead of freezing the whole job for the export/import window
(:func:`repro.rescale.migration.migrate`), a live rescale:

* **drains once** — every source instance extracts its moved key-groups
  into a :class:`~repro.kvstores.api.StateExportStream` up front, so no
  split-brain window exists where old and new owner both accept state;
* **keeps serving** — records for un-moved (and already cut-over)
  key-groups process normally throughout the transfer;
* **buffers in-transit traffic** — records for a key-group whose state
  is mid-flight wait in a *bounded* per-group transfer queue; a full
  queue forces that group's remaining chunks through synchronously
  (backpressure) instead of growing without bound;
* **cuts over group-by-group** — once a group's last chunk has landed on
  its new owner on every stateful operator, the routing table flips for
  that one group, its buffered records replay on the new owner, and the
  group is live again.  Per-group cutover timing is recorded as
  :class:`~repro.rescale.migration.GroupCutover` entries on the
  :class:`~repro.rescale.migration.RescaleEvent`.

Fault handling composes with the stop-the-world rollback journal at
key-group granularity: a mid-transfer fault rolls back only the groups
that have *not* cut over (their state re-imports at the old owner and
their buffered records replay there); groups that already cut over keep
their new owner, leaving a mixed — but authoritative — routing table
that a later rescale can migrate from.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.cluster.topology import charge_link
from repro.errors import (
    DiskIOError,
    InjectedCrashError,
    PlanError,
    SnapshotCorruptError,
)
from repro.faults import CRASH_MIGRATE_EXPORT, CRASH_MIGRATE_IMPORT
from repro.kvstores.api import DEFAULT_CHUNK_BYTES, StateExport, StateExportStream
from repro.rescale.keygroups import (
    contiguous_owner_table,
    key_group_of,
    moved_groups_between,
    moved_groups_from_table,
    validate_parallelism,
)
from repro.rescale.migration import (
    GroupCutover,
    NodeMigration,
    RescaleEvent,
    _split_operator_state,
    _transfer,
)
from repro.simenv import CAT_RECOVERY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import LogicalNode
    from repro.engine.runtime import Executor, PhysicalInstance
    from repro.model import StreamRecord

# Per-(node, key-group) bound on records buffered while the group is in
# transit; hitting it forces the group's cutover (backpressure).
DEFAULT_QUEUE_LIMIT = 256


class LiveMigration:
    """One in-flight live rescale, driven by the executor's record loop.

    Constructing the object performs the drain (synchronous, like the
    stop-the-world export phase but without the transfer); after that the
    executor calls :meth:`advance` once per ingested record to move one
    chunk per transfer channel, and :meth:`intercept` from the routing
    path to buffer records aimed at in-transit groups.  ``done`` flips
    when every group has cut over (commit) or a fault rolled the
    remainder back (``event.aborted``).
    """

    def __init__(
        self,
        executor: "Executor",
        new_parallelism: int,
        arrival: float = 0.0,
        at_record: int = 0,
        chunk_bytes: int | None = None,
        queue_limit: int | None = None,
        seed: Any = None,
        target_table: list[int] | None = None,
        reason: str = "scale",
        hot_groups: list[int] | None = None,
    ) -> None:
        plan = executor.plan
        self._exec = executor
        # Optional seed (a repro.recovery.Checkpointer or a
        # repro.changelog.ChangelogReplication): moved key-groups that
        # are *clean* since the last checkpoint land at the destination
        # from its group_entries (a checkpoint shard or a warm replica)
        # instead of being streamed live; only dirtied groups pay
        # live-transfer bytes — O(state) becomes O(delta).
        self._seed = seed
        self._G = plan.max_key_groups
        validate_parallelism(new_parallelism, self._G)
        self._new_parallelism = new_parallelism
        self._chunk_bytes = chunk_bytes or DEFAULT_CHUNK_BYTES
        self._queue_limit = max(1, queue_limit or DEFAULT_QUEUE_LIMIT)
        self._faults = plan.faults
        old_parallelism = executor.current_parallelism
        # With an explicit target table (a skew split) the migration
        # lands on that exact — generally non-contiguous — assignment;
        # without one it normalizes to the contiguous layout at
        # ``new_parallelism``.
        self._target_table = list(target_table) if target_table is not None else None
        if self._target_table is not None:
            if len(self._target_table) != self._G:
                raise PlanError(
                    f"target table has {len(self._target_table)} entries, "
                    f"expected {self._G}"
                )
            for group, owner in enumerate(self._target_table):
                if not 0 <= owner < new_parallelism:
                    raise PlanError(
                        f"target table assigns group {group} to instance "
                        f"{owner}, outside parallelism {new_parallelism}"
                    )
            move_plan = moved_groups_between(executor.group_owner, self._target_table)
        else:
            move_plan = moved_groups_from_table(executor.group_owner, new_parallelism)
        self.event = RescaleEvent(
            at_record=at_record,
            old_parallelism=old_parallelism,
            new_parallelism=new_parallelism,
            moved_groups=sum(
                len(groups) for dsts in move_plan.values() for groups in dsts.values()
            ),
            mode="live",
            reason=reason,
            hot_groups=sorted(hot_groups or []),
        )
        self.done = False
        self._nodes = list(executor.stateful_nodes)
        self._group_src: dict[int, int] = {}
        self._group_dst: dict[int, int] = {}
        for src, dsts in move_plan.items():
            for dst, groups in dsts.items():
                for group in groups:
                    self._group_src[group] = src
                    self._group_dst[group] = dst
        self._in_transit: set[int] = set(self._group_src)
        # (node_id, src) -> export stream / queue of groups still sending.
        self._streams: dict[tuple[int, int], StateExportStream] = {}
        self._queues: dict[tuple[int, int], deque[int]] = {}
        # (node_id, group) -> keyed operator metadata awaiting import.
        self._pieces: dict[tuple[int, int], dict[str, Any]] = {}
        # group -> node_ids whose new owner finished importing the group.
        self._landed: dict[int, set[int]] = {g: set() for g in self._in_transit}
        # (node_id, group) -> buffered [(record, would-have-started stamp)].
        self._buffers: dict[tuple[int, int], list[tuple[Any, float]]] = {}
        self._cuts: dict[int, GroupCutover] = {}
        self._reports: dict[int, NodeMigration] = {}
        self._old_len = {
            node.node_id: len(executor.instances(node)) for node in self._nodes
        }

        for node in self._nodes:
            report = NodeMigration(node=node.name)
            self._reports[node.node_id] = report
            self.event.per_node.append(report)
            instances = executor.instances(node)
            for index in range(len(instances), new_parallelism):
                instances.append(executor.new_instance(node, index))

        def kg_of(key: bytes) -> int:
            return key_group_of(key, self._G)

        self._kg_of = kg_of
        try:
            self._drain(move_plan, arrival)
        except (InjectedCrashError, DiskIOError):
            self._abort(arrival)
            return
        # An all-seeded rescale may already have committed via the last
        # group's cutover during the drain.
        if not self.done and not self._in_transit:
            self._commit(arrival)

    # ------------------------------------------------------------------
    @staticmethod
    def _bump(instance: "PhysicalInstance", arrival: float, seconds: float) -> None:
        """Migration work occupies the instance: push its wall clock."""
        if seconds > 0.0:
            instance.wall_available = max(arrival, instance.wall_available) + seconds

    def _cut_of(self, group: int) -> GroupCutover:
        cut = self._cuts.get(group)
        if cut is None:
            cut = self._cuts[group] = GroupCutover(group=group)
        return cut

    def _drain(self, move_plan: dict[int, dict[int, list[int]]], arrival: float) -> None:
        """Extract every moved key-group from its source, up front.

        With a seed, moved groups that are *clean* since the last
        checkpoint (dirty set captured before the drain itself marks
        them) are landed at the destination straight from the seed's
        ``group_entries`` and skip the live transfer entirely; the
        drained copy still serves as the rollback journal.  A group the
        seed cannot serve — no shard or replica, or one that fails its
        checks or its delivery — silently demotes to the live path.
        """
        for node in self._nodes:
            instances = self._exec.instances(node)
            report = self._reports[node.node_id]
            for src, dsts in sorted(move_plan.items()):
                source = instances[src]
                backend = source.operator.backend
                if self._faults is not None:
                    self._faults.crash_point(
                        CRASH_MIGRATE_EXPORT, now_fn=lambda s=source: s.env.now
                    )
                groups = {g for group_list in dsts.values() for g in group_list}
                # Clean groups are seed candidates; the dirty set must be
                # read *before* export_state marks every drained key.
                candidates: set[int] = set()
                if self._seed is not None and backend.checkpoint_key_groups == self._G:
                    candidates = groups - set(backend.dirty_groups())
                before = source.env.clock.now
                stream = StateExportStream(
                    backend, groups, self._kg_of, self._chunk_bytes
                )
                state = source.operator.export_keyed_state(groups, self._kg_of)
                elapsed = source.env.clock.now - before
                report.export_seconds = max(report.export_seconds, elapsed)
                self._bump(source, arrival, elapsed)
                self._streams[(node.node_id, src)] = stream
                self._queues[(node.node_id, src)] = deque(stream.groups())
                for group, piece in _split_operator_state(
                    state, self._kg_of, groups
                ).items():
                    self._pieces[(node.node_id, group)] = piece
                seed_key = f"op{node.node_id}/p{src}"
                seed_entries: dict[int, list[Any]] = {}
                for group in sorted(candidates):
                    try:
                        entries = self._seed.group_entries(
                            seed_key, group, self._G,
                            self._exec.cluster_node_of(self._group_dst[group]),
                        )
                    except (SnapshotCorruptError, DiskIOError):
                        entries = None  # demoted to the live streaming path
                    if entries is not None:
                        seed_entries[group] = entries
                        stream.skip_transfer(group)
                for group in groups:
                    entries = stream.entries_of(group)
                    report.entries_moved += len(entries)
                    size = sum(e.payload_bytes for e in entries)
                    if group in seed_entries:
                        report.seeded_groups += 1
                        report.seeded_bytes += size
                    else:
                        report.bytes_moved += size
                for group in sorted(seed_entries):
                    self._land_entries(node, group, arrival, seed_entries[group])

    # ------------------------------------------------------------------
    def advance(self, arrival: float) -> None:
        """Move one chunk on every transfer channel (called per record)."""
        if self.done:
            return
        try:
            for (node_id, src), queue in self._queues.items():
                stream = self._streams[(node_id, src)]
                while queue and not stream.has_more(queue[0]):
                    queue.popleft()  # completed out of order (forced cutover)
                if queue:
                    self._send_chunk(node_id, src, queue[0], arrival)
        except (InjectedCrashError, DiskIOError):
            self._abort(arrival)

    def intercept(self, node: "LogicalNode", record: "StreamRecord", arrival: float) -> bool:
        """Routing hook: buffer a record aimed at an in-transit group.

        Returns True when the record was buffered (the caller must not
        process it now).  A full transfer queue forces the group's
        remaining chunks through synchronously and returns False — the
        record then routes to wherever the (updated) table points.
        """
        if self.done:
            return False
        group = self._kg_of(record.key)
        if group not in self._in_transit:
            return False
        buffer = self._buffers.setdefault((node.node_id, group), [])
        if len(buffer) >= self._queue_limit:
            self._cut_of(group).forced = True
            try:
                self._force_cutover(group, arrival)
            except (InjectedCrashError, DiskIOError):
                self._abort(arrival)
            return False
        # Stamp with the migration work already done for this group: the
        # delay a buffered record observes is the group's *remaining*
        # transfer+import work (foreground processing would queue in
        # front of it either way, so only migration-caused stall counts
        # — the per-group analogue of the stop-the-world gap).
        cut = self._cut_of(group)
        buffer.append((record, cut.transfer_seconds + cut.import_seconds))
        return True

    def drain_to_completion(self, arrival: float) -> None:
        """Finish the transfer synchronously (end-of-input)."""
        while not self.done:
            self.advance(arrival)

    # ------------------------------------------------------------------
    def _send_chunk(self, node_id: int, src: int, group: int, arrival: float) -> None:
        stream = self._streams[(node_id, src)]
        chunk = stream.next_chunk(group)
        node = next(n for n in self._nodes if n.node_id == node_id)
        instances = self._exec.instances(node)
        source = instances[src]
        dst = self._group_dst[group]
        destination = instances[dst]
        cut = self._cut_of(group)
        before = source.env.clock.now
        _transfer(
            source.env, f"{node.name}/src{src}", chunk.total_bytes,
            len(chunk), self._faults,
        )
        elapsed = source.env.clock.now - before
        self._bump(source, arrival, elapsed)
        cut.transfer_seconds += elapsed
        before = destination.env.clock.now
        cluster = self._exec.plan.cluster
        if cluster is not None:
            # Cross-node chunk: the receiver waits out the link time.  A
            # dropped link raises DiskIOError here, escalating to the
            # partial rollback exactly like a failed transfer charge.
            charge_link(
                destination.env, cluster.network,
                source.cluster_node, destination.cluster_node,
                chunk.total_bytes, f"net/migrate/{node.name}/g{group}",
                self._faults,
            )
        _transfer(
            destination.env, f"{node.name}/dst{dst}", chunk.total_bytes,
            len(chunk), self._faults,
        )
        elapsed = destination.env.clock.now - before
        self._bump(destination, arrival, elapsed)
        cut.transfer_seconds += elapsed
        if chunk.last:
            self._land(node, group, arrival)

    def _land(self, node: "LogicalNode", group: int, arrival: float) -> None:
        """All chunks of ``group`` arrived for ``node``: import the
        streamed entries at the new owner."""
        stream = self._streams[(node.node_id, self._group_src[group])]
        self._land_entries(node, group, arrival, list(stream.entries_of(group)))

    def _land_entries(
        self, node: "LogicalNode", group: int, arrival: float, entries: list[Any]
    ) -> None:
        """Import one group's entries (streamed or checkpoint-seeded) at
        the new owner; cut the group over once every node has landed it."""
        destination = self._exec.instances(node)[self._group_dst[group]]
        if self._faults is not None:
            self._faults.crash_point(
                CRASH_MIGRATE_IMPORT, now_fn=lambda d=destination: d.env.now
            )
        before = destination.env.clock.now
        destination.operator.backend.import_state(StateExport(list(entries)))
        piece = self._pieces.pop((node.node_id, group), None)
        if piece is not None:
            destination.operator.import_keyed_state(piece)
        elapsed = destination.env.clock.now - before
        self._bump(destination, arrival, elapsed)
        report = self._reports[node.node_id]
        report.import_seconds = max(report.import_seconds, elapsed)
        cut = self._cut_of(group)
        cut.import_seconds += elapsed
        landed = self._landed[group]
        landed.add(node.node_id)
        if len(landed) == len(self._nodes):
            self._cutover(group, arrival)

    def _cutover(self, group: int, arrival: float) -> None:
        """Flip routing for one group and replay its buffered records."""
        self._in_transit.discard(group)
        dst = self._group_dst[group]
        self._exec.group_owner[group] = dst
        cut = self._cut_of(group)
        cut.cutover_at = arrival
        src = self._group_src[group]
        migration_work = cut.transfer_seconds + cut.import_seconds
        for node in self._nodes:
            self._streams[(node.node_id, src)].commit(group)
            buffered = self._buffers.pop((node.node_id, group), [])
            cut.buffered_records += len(buffered)
            for _record, stamp in buffered:
                cut.max_record_delay = max(
                    cut.max_record_delay, max(0.0, migration_work - stamp)
                )
            self._exec.replay(
                node, dst, group, [record for record, _stamp in buffered], arrival
            )
        self.event.cutovers.append(cut)
        if not self._in_transit:
            self._commit(arrival)

    def _force_cutover(self, group: int, arrival: float) -> None:
        """Backpressure: complete one group's transfer synchronously."""
        src = self._group_src[group]
        for node in self._nodes:
            stream = self._streams[(node.node_id, src)]
            while stream.has_more(group):
                self._send_chunk(node.node_id, src, group, arrival)

    # ------------------------------------------------------------------
    def _commit(self, arrival: float) -> None:
        """Every group cut over: retire emptied instances, normalize."""
        executor = self._exec
        executor.retire_instances(self._new_parallelism)
        executor.current_parallelism = self._new_parallelism
        if self._target_table is not None:
            executor.group_owner[:] = self._target_table
        else:
            executor.group_owner[:] = contiguous_owner_table(
                self._G, self._new_parallelism
            )
        self.done = True

    def _abort(self, arrival: float) -> None:
        """Roll back every group that has not cut over.

        The old owner re-imports each such group from the stream's
        rollback copy (plus the keyed operator metadata — pulled back out
        of any destination that already imported it) and the group's
        buffered records replay at the old owner.  Cut-over groups are
        untouched: their new ownership survives the abort.
        """
        executor = self._exec
        remaining = sorted(self._in_transit)
        self.event.aborted = True
        self.event.rolled_back_groups = len(remaining)
        for group in remaining:
            src = self._group_src.get(group, 0)
            for node in self._nodes:
                instances = executor.instances(node)
                stream = self._streams.get((node.node_id, src))
                if stream is None:
                    continue  # this node never drained: state never left
                source = instances[src]
                piece = self._pieces.pop((node.node_id, group), None)
                if node.node_id in self._landed.get(group, set()):
                    # The destination already imported this group:
                    # export-and-discard there, re-import the (fresher)
                    # keyed metadata it hands back.
                    destination = instances[self._group_dst[group]]
                    undone = destination.operator.backend.export_state(
                        {group}, self._kg_of
                    )
                    piece = destination.operator.export_keyed_state(
                        {group}, self._kg_of
                    )
                    destination.env.charge_cpu(
                        CAT_RECOVERY,
                        destination.env.cpu.syscall
                        + undone.total_bytes * destination.env.cpu.copy_per_byte,
                    )
                entries = stream.rollback_entries(group)
                source.env.charge_cpu(
                    CAT_RECOVERY,
                    source.env.cpu.syscall
                    + sum(e.payload_bytes for e in entries)
                    * source.env.cpu.copy_per_byte,
                )
                source.operator.backend.import_state(StateExport(entries))
                if piece is not None:
                    source.operator.import_keyed_state(piece)
                # The group serves at its old owner again; its buffered
                # records were never processed — replay them there.
                buffered = self._buffers.pop((node.node_id, group), [])
                executor.replay(
                    node, src, group, [record for record, _stamp in buffered], arrival
                )
            self._in_transit.discard(group)
        if self.event.cutovers:
            # Partial cutover survived: keep every instance that now owns
            # groups; the mixed routing table stays authoritative.
            executor.current_parallelism = max(
                len(executor.instances(node)) for node in self._nodes
            ) if self._nodes else self.event.old_parallelism
        else:
            # Nothing cut over: drop the instances created for the new
            # topology and restore the pre-migration shape exactly.
            for node in self._nodes:
                instances = executor.instances(node)
                old_len = self._old_len[node.node_id]
                for created in instances[old_len:]:
                    created.operator.backend.close()
                del instances[old_len:]
            executor.current_parallelism = self.event.old_parallelism
        self.done = True
