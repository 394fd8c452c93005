"""Exception hierarchy for the FlowKV reproduction.

Every failure mode the paper's evaluation exercises (out-of-memory heap
state, simulated-time job timeouts, misuse of store APIs) maps to a typed
exception so that the benchmark harness can distinguish "crossed bar"
failures (Figure 8/9) from genuine bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class StoreError(ReproError):
    """Base class for state-store failures."""


class StoreClosedError(StoreError):
    """An operation was attempted on a store that has been closed."""


class StoreOOMError(StoreError):
    """A store exceeded its memory capacity.

    Raised by the in-memory (heap) backend when live state outgrows the
    configured heap, mirroring the JVM OutOfMemoryError failures the paper
    reports for Flink's in-memory store on large windows.
    """


class SnapshotCorruptError(StoreError):
    """A snapshot failed checksum/length verification at restore time.

    Raised instead of silently loading garbage when a checkpoint file was
    torn (truncated tail), bit-flipped, or lost entirely.
    """


class UnknownBatchOpError(StoreError, ValueError):
    """A committed write batch carried an op other than put/append/delete.

    Also a :class:`ValueError`: the op tag is a bad argument value, and
    callers that caught the former bare ``ValueError`` keep working.
    """

    def __init__(self, op: object) -> None:
        super().__init__(f"unknown write-batch op {op!r}")
        self.op = op


class ExportExhaustedError(StoreError, ValueError):
    """A state-export stream was asked for a chunk of a key-group that it
    is not transferring or whose last chunk was already sent."""


class StoreRestoreError(StoreError):
    """A snapshot restore was attempted on a store that already holds state.

    Restore is only defined into a freshly constructed (empty) store; a
    double-restore or a restore over live state would silently mix two
    histories, so it is rejected instead.
    """


class SimTimeoutError(ReproError):
    """A simulated job exceeded its simulated-time budget.

    The paper terminates jobs that run past 7200 s (Figure 4); the harness
    raises this to mark such runs as did-not-finish.
    """


class FileSystemError(ReproError):
    """Base class for simulated-filesystem failures."""


class FileNotFoundInStoreError(FileSystemError):
    """The named file does not exist in the simulated filesystem."""


class FileExistsInStoreError(FileSystemError):
    """A file with the given name already exists."""


class DiskIOError(FileSystemError):
    """A device read or write failed (injected disk fault).

    Transient by contract: callers on the snapshot and migration paths
    retry with capped deterministic backoff (:func:`repro.faults.
    with_retries`); a fault that outlives the retries escalates to a
    crash handled by the :class:`repro.recovery.RecoveryManager`.
    """


class RetriesExhaustedError(DiskIOError):
    """A transient-I/O retry budget was spent without a success.

    Raised by :func:`repro.faults.with_retries` instead of re-raising the
    last bare :class:`DiskIOError`, so callers that escalate can see the
    whole attempt history (one entry per failed attempt).  Subclasses
    :class:`DiskIOError` so every existing ``except DiskIOError`` crash
    path handles it unchanged.
    """

    def __init__(self, attempts: int, history: list[str]) -> None:
        super().__init__(
            f"I/O still failing after {attempts} attempts: "
            + "; ".join(history)
        )
        self.attempts = attempts
        self.history = list(history)


class StandbyNotReadyError(StoreError):
    """No standby replica can serve a promotion at any usable epoch.

    Raised inside the :class:`repro.recovery.RecoveryManager` standby
    lane when the replica for a failed node is absent (never
    bootstrapped), lagging (its changelog tail had not fully arrived by
    the failure time), or corrupt (a segment failed its CRC).  The
    manager catches it and degrades to plain checkpoint-restore.
    """


class InjectedCrashError(ReproError):
    """The process was killed at an instrumented crash point.

    Carries the crash-point ``site`` and the simulated time at which the
    fault fired.  Everything not yet checkpointed is lost; recovery
    restores the latest complete checkpoint and replays.
    """

    def __init__(self, site: str, now: float = 0.0) -> None:
        super().__init__(f"injected crash at {site} (t={now:.6f}s)")
        self.site = site
        self.now = now


class NodeFailureError(InjectedCrashError):
    """A whole simulated cluster node died (fault domain = machine).

    Killing a node takes down every physical instance it hosts *and* the
    checkpoint-shard replicas on its local disk.  Subclasses
    :class:`InjectedCrashError` so every existing crash-handling path
    (recovery manager, migration rollback) treats it as a crash; carries
    the failed ``node`` id so cluster-aware checkpoint storage can drop
    that node's replicas before the restore.
    """

    def __init__(self, node: int, site: str, now: float = 0.0) -> None:
        super().__init__(site, now)
        self.node = node
        self.args = (f"injected node {node} failure at {site} (t={now:.6f}s)",)


class PlanError(ReproError):
    """A streaming job graph is malformed or cannot be compiled."""


class PatternError(ReproError):
    """A window operation could not be mapped to a FlowKV store pattern."""
