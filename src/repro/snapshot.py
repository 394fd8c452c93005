"""Checkpointing support (§8, Fault Tolerance).

Modern SPEs periodically snapshot their state stores into reliable
storage and, on failure, restore the latest snapshot and replay the
source from that point (Flink checkpointing).  The paper's discussion
prescribes the mechanism FlowKV should follow: *flush in-memory data to
disk first, then transfer the on-disk files asynchronously* — the same
strategy Flink uses for RocksDB.

A :class:`StoreSnapshot` captures one store instance:

* ``meta`` — the pickled in-memory tables that must survive (write
  buffers are flushed first, so meta is small),
* ``files`` — byte-exact copies of the store's on-disk files.

Costs: taking a snapshot charges the flush (synchronous, §8: "so that
on-disk data can be transferred asynchronously while all the write
operations are done in-memory") plus a sequential read of the copied
files; restoring charges the writes to repopulate the filesystem.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SnapshotCorruptError
from repro.kvstores.api import ExportedEntry
from repro.model import Window
from repro.simenv import (
    CAT_RECOVERY,
    CAT_SERDE,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    SimEnv,
)
from repro.storage.filesystem import SimFileSystem


@dataclass
class StoreSnapshot:
    """A point-in-time capture of one store instance.

    A *sealed* snapshot additionally carries per-file CRC32 checksums
    and a checksum over ``meta``, so corruption anywhere between seal
    and restore (torn checkpoint write, bit flip at rest) is detected
    by :func:`verify_snapshot` instead of being loaded as state.
    """

    kind: str
    meta: bytes
    files: dict[str, bytes] = field(default_factory=dict)
    checksums: dict[str, tuple[int, int]] | None = None  # name -> (length, crc32)
    meta_crc: int | None = None

    @property
    def total_bytes(self) -> int:
        return len(self.meta) + sum(len(data) for data in self.files.values())

    @property
    def sealed(self) -> bool:
        return self.meta_crc is not None


def seal_snapshot(env: SimEnv, snap: StoreSnapshot) -> StoreSnapshot:
    """Stamp per-file length+CRC32 checksums onto ``snap`` (in place).

    Checksum computation is charged to the ``recovery`` ledger category
    at ``crc_per_byte``.
    """
    total = len(snap.meta)
    snap.meta_crc = zlib.crc32(snap.meta)
    snap.checksums = {}
    for name, data in snap.files.items():
        snap.checksums[name] = (len(data), zlib.crc32(data))
        total += len(data)
    env.charge_cpu(CAT_RECOVERY, total * env.cpu.crc_per_byte)
    return snap


def verify_snapshot(env: SimEnv, snap: StoreSnapshot) -> None:
    """Re-checksum a sealed snapshot; raise :class:`SnapshotCorruptError`.

    Detects truncated/extended files, flipped bits, and missing or
    surplus files relative to the seal.  Unsealed snapshots (legacy or
    test-constructed) pass vacuously.
    """
    if not snap.sealed:
        return
    total = len(snap.meta)
    for data in snap.files.values():
        total += len(data)
    env.charge_cpu(CAT_RECOVERY, total * env.cpu.crc_per_byte)
    if zlib.crc32(snap.meta) != snap.meta_crc:
        raise SnapshotCorruptError(f"{snap.kind} snapshot meta failed CRC check")
    expected = snap.checksums or {}
    if set(expected) != set(snap.files):
        missing = sorted(set(expected) - set(snap.files))
        surplus = sorted(set(snap.files) - set(expected))
        raise SnapshotCorruptError(
            f"{snap.kind} snapshot file set mismatch: missing={missing} surplus={surplus}"
        )
    for name, (length, crc) in expected.items():
        data = snap.files[name]
        if len(data) != length:
            raise SnapshotCorruptError(
                f"{snap.kind} snapshot file {name}: {len(data)}B, expected {length}B"
            )
        if zlib.crc32(data) != crc:
            raise SnapshotCorruptError(f"{snap.kind} snapshot file {name} failed CRC check")


@dataclass(frozen=True)
class ShardRef:
    """Where one key-group's shard of one store lives in checkpoint storage.

    Incremental manifests reference unchanged shards from *earlier*
    epochs by (epoch, path, length, crc) instead of re-copying them;
    restore re-verifies the length and CRC against the referenced file,
    so a corrupt shard anywhere in a chain invalidates every manifest
    that references it.
    """

    epoch: int
    path: str
    length: int
    crc: int


def pack_group_shard(env: SimEnv, entries: list[ExportedEntry]) -> bytes:
    """Serialize one key-group's exported entries into a shard payload.

    The layout is explicit tuples — ``(key, window_start, window_end,
    kind, values, ett)`` — rather than pickled :class:`ExportedEntry`
    objects, so the on-disk format is independent of the dataclass
    definition.  Serde time is charged as for any snapshot meta.
    """
    rows = [
        (e.key, e.window.start, e.window.end, e.kind, e.values, e.ett)
        for e in entries
    ]
    data = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    env.charge_cpu(CAT_SERDE, env.cpu.serde(len(data)))
    return data


def unpack_group_shard(env: SimEnv, data: bytes) -> list[ExportedEntry]:
    """Inverse of :func:`pack_group_shard`."""
    env.charge_cpu(CAT_SERDE, env.cpu.serde(len(data)))
    return [
        ExportedEntry(key, Window(start, end), kind, values, ett)
        for key, start, end, kind, values, ett in pickle.loads(data)
    ]


def pack_meta(env: SimEnv, state: Any) -> bytes:
    """Serialize in-memory tables, charging serde time."""
    data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    env.charge_cpu(CAT_SERDE, env.cpu.serde(len(data)))
    return data


def unpack_meta(env: SimEnv, data: bytes) -> Any:
    env.charge_cpu(CAT_SERDE, env.cpu.serde(len(data)))
    return pickle.loads(data)


def copy_files_out(fs: SimFileSystem, prefix: str) -> dict[str, bytes]:
    """Read every file under ``prefix`` (the upload's local read)."""
    return {name: fs.read(name, category=CAT_STORE_READ) for name in fs.list_files(prefix)}


def copy_files_in(env: SimEnv, fs: SimFileSystem, files: dict[str, bytes]) -> None:
    """Repopulate the filesystem from a snapshot (recovery download)."""
    for name, data in files.items():
        if fs.exists(name):
            fs.delete(name)
        fs.append(name, data, category=CAT_STORE_WRITE)
