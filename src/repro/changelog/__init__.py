"""Changelog replication and hot-standby failover.

Every state backend funnels its semantic mutations through the
:class:`repro.kvstores.api.KeyGroupDirtyTracker`; when a
:class:`ChangelogWriter` is attached there, the same mutations that mark
a key-group dirty also append an op record to a per-key-group, per-epoch
changelog segment.  On multi-node clusters a :class:`StandbyReplica` on
the owner's consecutive peer node tails the sealed segments over the
priced network into a warm copy of the owner's state (tracking a
``persisted_offset`` per group), so a node failure can *promote* the
standby — replaying only the changelog tail past the last applied offset
— instead of downloading and restoring the whole checkpoint chain.

The exactly-once argument is Carbone et al.'s: segments are sealed at
checkpoint-epoch cuts, so warm state at epoch E plus E's tail equals the
state at E's cut exactly, and the source rewind to E's record count
regenerates every later output identically.
"""

from repro.changelog.log import ChangelogWriter, pack_segment, unpack_segment
from repro.changelog.standby import ChangelogReplication, StandbyReplica

__all__ = [
    "ChangelogWriter",
    "ChangelogReplication",
    "StandbyReplica",
    "pack_segment",
    "unpack_segment",
]
