"""Stop-the-world key-group migration.

The executor's rescale path: **drain** (flush in-flight store buffers —
export does this per backend), **export** the moved key-groups from every
old owner, **redeploy** the physical plan at the new parallelism,
**import** at the new owners, **resume**.  All export/transfer/import
work is charged to the per-instance simulated clocks under the
``migration`` category, and the recorded downtime is the stop-the-world
pause: the slowest export plus the slowest import per operator (each
phase runs across instances in parallel), summed over stateful operators
(operators migrate one at a time so peak transfer memory stays bounded).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.topology import charge_link
from repro.errors import DiskIOError, InjectedCrashError
from repro.faults import CRASH_MIGRATE_EXPORT, CRASH_MIGRATE_IMPORT, with_retries
from repro.kvstores.api import StateExport
from repro.rescale.keygroups import (
    contiguous_owner_table,
    key_group_of,
    moved_groups_from_table,
    owner_of,
    validate_parallelism,
)
from repro.simenv import CAT_MIGRATION, CAT_RECOVERY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.runtime import Executor


@dataclass
class NodeMigration:
    """Migration accounting for one stateful operator."""

    node: str
    entries_moved: int = 0
    bytes_moved: int = 0
    export_seconds: float = 0.0  # slowest source instance
    import_seconds: float = 0.0  # slowest destination instance
    # Live rescale only: groups seeded at the destination from the last
    # checkpoint's shards instead of streamed; ``seeded_bytes`` is the
    # live-transfer traffic those groups would otherwise have cost.
    seeded_groups: int = 0
    seeded_bytes: int = 0

    @property
    def downtime_seconds(self) -> float:
        return self.export_seconds + self.import_seconds


@dataclass
class GroupCutover:
    """Cutover record of one key-group in a *live* rescale.

    A live migration cuts the job over group-by-group; each cutover
    records when the group landed on its new owner (``cutover_at``, on
    the simulated arrival axis), how long its transfer and import took on
    the busy clocks, and how long records destined for the group waited
    in the transfer queue (``max_record_delay`` — the per-group downtime
    a record actually observed).  ``forced`` marks groups whose transfer
    was completed synchronously because their bounded transfer queue
    filled up (backpressure).
    """

    group: int
    cutover_at: float = 0.0
    transfer_seconds: float = 0.0
    import_seconds: float = 0.0
    buffered_records: int = 0
    max_record_delay: float = 0.0
    forced: bool = False


@dataclass
class RescaleEvent:
    """One rescale attempt of the whole job.

    ``mode`` is ``"stw"`` (stop-the-world) or ``"live"`` (asynchronous
    per-key-group cutover); live rescales record one :class:`GroupCutover`
    per key-group that completed its cutover.

    ``aborted`` marks an attempt that hit a fault mid-migration and was
    rolled back.  A stop-the-world abort restores the full pre-migration
    topology (no partial cutover).  A *live* abort rolls back only the
    not-yet-cut-over key-groups (``rolled_back_groups``): groups that
    already cut over keep their new owner, the routing table stays mixed
    but authoritative, and a later rescale moves state from wherever the
    table says it lives.

    ``reason`` is ``"scale"`` for a parallelism change and
    ``"skew-split"`` for a hot-group re-placement at unchanged
    parallelism (:class:`~repro.rescale.skew.SkewController`);
    ``hot_groups`` then lists the key-groups the split targeted.
    """

    at_record: int
    old_parallelism: int
    new_parallelism: int
    moved_groups: int
    per_node: list[NodeMigration] = field(default_factory=list)
    aborted: bool = False
    mode: str = "stw"
    cutovers: list[GroupCutover] = field(default_factory=list)
    rolled_back_groups: int = 0
    reason: str = "scale"
    hot_groups: list[int] = field(default_factory=list)

    @property
    def bytes_moved(self) -> int:
        return sum(node.bytes_moved for node in self.per_node)

    @property
    def entries_moved(self) -> int:
        return sum(node.entries_moved for node in self.per_node)

    @property
    def seeded_groups(self) -> int:
        return sum(node.seeded_groups for node in self.per_node)

    @property
    def seeded_bytes(self) -> int:
        """Live-transfer bytes avoided by checkpoint seeding."""
        return sum(node.seeded_bytes for node in self.per_node)

    @property
    def downtime_seconds(self) -> float:
        """The pause a record could observe.

        Stop-the-world: the whole job froze for the export+import window,
        summed over stateful operators.  Live: no global freeze exists —
        the observable stall is the longest any buffered record waited
        for its key-group to cut over (all other groups kept serving).
        """
        if self.mode == "live":
            return self.max_record_delay
        return sum(node.downtime_seconds for node in self.per_node)

    @property
    def max_record_delay(self) -> float:
        return max((c.max_record_delay for c in self.cutovers), default=0.0)


def _transfer_charge(env: Any, payload_bytes: int, n_entries: int) -> None:
    """One side of the state hand-off (serialize-copy-send or receive)."""
    env.charge_cpu(
        CAT_MIGRATION,
        env.cpu.syscall + payload_bytes * env.cpu.copy_per_byte + n_entries * env.cpu.hash_probe,
    )


def _transfer(env: Any, label: str, payload_bytes: int, n_entries: int, faults: Any) -> None:
    """A transfer with injected-fault handling: transient ``DiskIOError``
    faults (op ``transfer``) retry with capped deterministic backoff; a
    fault outliving the retries escalates to the migration rollback."""

    def attempt() -> None:
        if faults is not None:
            faults.on_transfer(label, env.now)
        _transfer_charge(env, payload_bytes, n_entries)

    if faults is None:
        attempt()
    else:
        with_retries(env, attempt)


def _split_operator_state(
    state: dict[str, Any], part_of, part_ids: Iterable[int]
) -> dict[int, dict[str, Any]]:
    """Partition exported operator metadata by ``part_of(key)``.

    A part is a destination instance (stop-the-world) or a key-group
    (live).  Keyed pieces (sessions, window keys, count ordinals) follow
    their key; ``pending_aligned`` windows and the max timestamp are
    replicated to every part (both are key-independent trigger metadata;
    importing them twice is idempotent).
    """
    parts = {
        part: {
            "sessions": {},
            "window_keys": [],
            "count_state": {},
            "pending_aligned": set(state["pending_aligned"]),
            "max_timestamp": state["max_timestamp"],
        }
        for part in part_ids
    }
    for key, sessions in state["sessions"].items():
        parts[part_of(key)]["sessions"][key] = sessions
    for window, keys in state["window_keys"]:
        per_part: dict[int, set[bytes]] = {}
        for key in keys:
            per_part.setdefault(part_of(key), set()).add(key)
        for part, moved in per_part.items():
            parts[part]["window_keys"].append((window, moved))
    for key, value in state["count_state"].items():
        parts[part_of(key)]["count_state"][key] = value
    return parts


def migrate(
    executor: "Executor", new_parallelism: int, arrival: float = 0.0, at_record: int = 0
) -> RescaleEvent:
    """Rescale a running job to ``new_parallelism`` (stop-the-world).

    Returns the :class:`RescaleEvent`; an identity rescale moves zero
    key-groups and records zero downtime.
    """
    plan = executor.plan
    max_groups = plan.max_key_groups
    validate_parallelism(new_parallelism, max_groups)
    old_parallelism = executor.current_parallelism
    # The routing table is the authority on current ownership: a prior
    # aborted live rescale may have left a non-contiguous assignment.
    move_plan = moved_groups_from_table(executor.group_owner, new_parallelism)
    event = RescaleEvent(
        at_record=at_record,
        old_parallelism=old_parallelism,
        new_parallelism=new_parallelism,
        moved_groups=sum(
            len(groups) for dsts in move_plan.values() for groups in dsts.values()
        ),
    )
    def kg_of(key: bytes) -> int:
        return key_group_of(key, max_groups)

    def destination_of(key: bytes) -> int:
        return owner_of(kg_of(key), max_groups, new_parallelism)

    faults = plan.faults
    all_groups = {
        group
        for dsts in move_plan.values()
        for group_list in dsts.values()
        for group in group_list
    }
    # Per-node rollback journal: the original exports (by source index)
    # and which destinations have already imported.  Retirement is
    # deferred to a commit phase after every node migrated, so a fault
    # anywhere can still return state to the old owners.
    journal: list[tuple[Any, dict[int, tuple[StateExport, dict[str, Any]]], list[int]]] = []
    try:
        for node in executor.stateful_nodes:
            instances = executor.instances(node)
            report = NodeMigration(node=node.name)
            # Redeploy: grow the instance list before transfers so imports
            # have somewhere to land; retiring instances stay until drained.
            for index in range(old_parallelism, new_parallelism):
                instances.append(executor.new_instance(node, index))
            exported: dict[int, tuple[StateExport, dict[str, Any]]] = {}
            imported: list[int] = []
            journal.append((node, exported, imported))
            pending: dict[int, tuple[StateExport, dict[str, Any]]] = {}
            # dst -> [(src, bytes)] shares that must cross the network.
            remote_in: dict[int, list[tuple[int, int]]] = {}
            # Export phase: every source drains & extracts its moved groups.
            for src, dsts in sorted(move_plan.items()):
                source = instances[src]
                if faults is not None:
                    faults.crash_point(
                        CRASH_MIGRATE_EXPORT, now_fn=lambda s=source: s.env.now
                    )
                groups = {group for group_list in dsts.values() for group in group_list}
                before = source.env.clock.now
                export = source.operator.backend.export_state(groups, kg_of)
                operator_state = source.operator.export_keyed_state(groups, kg_of)
                exported[src] = (export, operator_state)
                _transfer(
                    source.env, f"{node.name}/src{src}", export.total_bytes,
                    len(export), faults,
                )
                report.export_seconds = max(
                    report.export_seconds, source.env.clock.now - before
                )
                report.entries_moved += len(export)
                report.bytes_moved += export.total_bytes
                # Partition the export by new owner.
                per_dst_export: dict[int, StateExport] = {}
                for entry in export.entries:
                    per_dst_export.setdefault(
                        destination_of(entry.key), StateExport()
                    ).entries.append(entry)
                per_dst_state = _split_operator_state(
                    operator_state, destination_of, sorted(dsts)
                )
                for dst in dsts:
                    part = per_dst_export.get(dst, StateExport())
                    remote_in.setdefault(dst, []).append((src, part.total_bytes))
                    if dst in pending:
                        merged_export, merged_state = pending[dst]
                        merged_export.entries.extend(part.entries)
                        _merge_operator_state(merged_state, per_dst_state[dst])
                    else:
                        pending[dst] = (part, per_dst_state[dst])
            # Import phase: every destination loads its share.
            for dst, (export, operator_state) in sorted(pending.items()):
                destination = instances[dst]
                if faults is not None:
                    faults.crash_point(
                        CRASH_MIGRATE_IMPORT, now_fn=lambda d=destination: d.env.now
                    )
                before = destination.env.clock.now
                cluster = plan.cluster
                if cluster is not None:
                    # Each source's share crosses its own link; intra-node
                    # shares are free (charge_link no-ops on src == dst).
                    for src, n_bytes in remote_in.get(dst, []):
                        charge_link(
                            destination.env, cluster.network,
                            cluster.place(src), cluster.place(dst), n_bytes,
                            f"net/migrate/{node.name}/dst{dst}", faults,
                        )
                _transfer(
                    destination.env, f"{node.name}/dst{dst}", export.total_bytes,
                    len(export), faults,
                )
                destination.operator.backend.import_state(export)
                destination.operator.import_keyed_state(operator_state)
                imported.append(dst)
                report.import_seconds = max(
                    report.import_seconds, destination.env.clock.now - before
                )
            event.per_node.append(report)
    except (InjectedCrashError, DiskIOError):
        _rollback(executor, journal, all_groups, kg_of, old_parallelism)
        event.aborted = True
        return event
    # Commit phase: retire shrunk-away instances (state fully exported
    # and imported everywhere — the migration can no longer abort).
    executor.retire_instances(new_parallelism)

    # Resume: the whole job was paused for the stop-the-world window.
    survivors = [inst for _n, _i, inst, _k in executor.stateful_instances()]
    resume_at = (
        max([arrival] + [inst.wall_available for inst in survivors])
        + event.downtime_seconds
    )
    for inst in survivors:
        inst.wall_available = max(inst.wall_available, resume_at)
    executor.current_parallelism = new_parallelism
    executor.group_owner[:] = contiguous_owner_table(max_groups, new_parallelism)
    return event


def _rollback(
    executor: "Executor",
    journal: list[tuple[Any, dict[int, tuple[StateExport, dict[str, Any]]], list[int]]],
    all_groups: set[int],
    kg_of,
    old_parallelism: int,
) -> None:
    """Undo a faulted migration: restore the pre-migration topology.

    For every node touched so far, moved key-groups are pulled back out
    of any destination that already imported them (export-and-discard —
    the original exports are the source of truth), the original exports
    are re-imported at their old owners, and instances created for the
    new topology are dropped.  Stale timers left on surviving instances
    are harmless: the firing paths re-check state liveness.  Rollback
    work is charged to the ``recovery`` category.
    """
    for node, exported, imported in journal:
        instances = executor.instances(node)
        for dst in imported:
            if dst >= old_parallelism:
                continue  # created for the new topology; dropped below
            destination = instances[dst]
            undone = destination.operator.backend.export_state(all_groups, kg_of)
            destination.operator.export_keyed_state(all_groups, kg_of)
            destination.env.charge_cpu(
                CAT_RECOVERY,
                destination.env.cpu.syscall
                + undone.total_bytes * destination.env.cpu.copy_per_byte,
            )
        for src, (export, operator_state) in exported.items():
            source = instances[src]
            source.env.charge_cpu(
                CAT_RECOVERY,
                source.env.cpu.syscall
                + export.total_bytes * source.env.cpu.copy_per_byte,
            )
            source.operator.backend.import_state(export)
            source.operator.import_keyed_state(operator_state)
        for created in instances[old_parallelism:]:
            created.operator.backend.close()
        del instances[old_parallelism:]
    executor.current_parallelism = old_parallelism


def _merge_operator_state(target: dict[str, Any], extra: dict[str, Any]) -> None:
    """Fold a second source's operator-state share into ``target``."""
    for key, sessions in extra["sessions"].items():
        target["sessions"].setdefault(key, []).extend(sessions)
    target["window_keys"].extend(extra["window_keys"])
    target["count_state"].update(extra["count_state"])
    target["pending_aligned"] |= extra["pending_aligned"]
    target["max_timestamp"] = max(target["max_timestamp"], extra["max_timestamp"])
