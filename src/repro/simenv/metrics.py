"""Metrics ledger: where simulated time and I/O volume are accounted.

The paper's analysis (Figures 4 and 10) hinges on *attributing* execution
time: query computation vs. store CPU (write / read / compaction) vs. I/O
wait.  The ledger keeps one bucket per category so the benchmark harness
can print the same breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# CPU-time categories.  These mirror the paper's breakdown labels.
CAT_QUERY = "query"  # user aggregate / window function computation
CAT_STORE_WRITE = "store_write"  # Put/Append paths inside a store
CAT_STORE_READ = "store_read"  # Get/Scan/trigger-read paths
CAT_COMPACTION = "compaction"  # background merging / log rewriting
CAT_SERDE = "serde"  # (de)serialization at the store boundary
CAT_SYNC = "sync"  # synchronization primitives (Faster epochs)
CAT_ENGINE = "engine"  # routing, window assignment, timers
CAT_GC = "gc"  # JVM garbage collection (heap backend model)
CAT_MIGRATION = "migration"  # key-group export/transfer/import during rescaling
CAT_RECOVERY = "recovery"  # checksums, checkpoint verify/replay reads, rollback, retry backoff
CAT_NETWORK = "network"  # cross-node link time: shuffles, chunk transfers, shard up/downloads
CAT_CHANGELOG = "changelog"  # changelog record framing, standby apply/replay work
CAT_PREFETCH = "prefetch"  # background prefetch I/O, overlapped with operator CPU

CPU_CATEGORIES = (
    CAT_QUERY,
    CAT_STORE_WRITE,
    CAT_STORE_READ,
    CAT_COMPACTION,
    CAT_SERDE,
    CAT_SYNC,
    CAT_ENGINE,
    CAT_GC,
    CAT_MIGRATION,
    CAT_RECOVERY,
    CAT_NETWORK,
    CAT_CHANGELOG,
    CAT_PREFETCH,
)

# Charge-time validation set: a typo'd category must fail loudly instead
# of silently accumulating in a bucket no report ever reads.
_KNOWN_CATEGORIES = frozenset(CPU_CATEGORIES)


def _unknown_category(category: str) -> ValueError:
    return ValueError(f"unknown CPU category {category!r}; one of {CPU_CATEGORIES}")


@dataclass
class MetricsSnapshot:
    """An immutable copy of a ledger's totals, used for reporting."""

    cpu_seconds: dict[str, float]
    io_wait_seconds: float
    bytes_read: int
    bytes_written: int
    read_requests: int
    write_requests: int
    counters: dict[str, int]
    # Portion of io_wait_seconds that is *residual* prefetch wait: the
    # part of a prefetched read's device time that operator CPU did not
    # cover.  io_wait_seconds - prefetch_wait_seconds is demand I/O.
    prefetch_wait_seconds: float = 0.0

    @property
    def total_cpu_seconds(self) -> float:
        return sum(self.cpu_seconds.values())

    @property
    def store_cpu_seconds(self) -> float:
        """CPU spent inside the store (the paper's "Store" bars)."""
        return (
            self.cpu_seconds.get(CAT_STORE_WRITE, 0.0)
            + self.cpu_seconds.get(CAT_STORE_READ, 0.0)
            + self.cpu_seconds.get(CAT_COMPACTION, 0.0)
            + self.cpu_seconds.get(CAT_SYNC, 0.0)
            + self.cpu_seconds.get(CAT_GC, 0.0)
        )

    @property
    def network_seconds(self) -> float:
        """Simulated time spent on cross-node network links."""
        return self.cpu_seconds.get(CAT_NETWORK, 0.0)

    @property
    def network_bytes(self) -> int:
        return self.counters.get("net_bytes", 0)

    @property
    def total_seconds(self) -> float:
        return self.total_cpu_seconds + self.io_wait_seconds


@dataclass
class MetricsLedger:
    """Mutable accumulator of CPU time, I/O time, volume and event counts."""

    cpu_seconds: dict[str, float] = field(
        default_factory=lambda: {cat: 0.0 for cat in CPU_CATEGORIES}
    )
    io_wait_seconds: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    read_requests: int = 0
    write_requests: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    prefetch_wait_seconds: float = 0.0

    def add_cpu(self, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative CPU charge: {seconds}")
        if category not in _KNOWN_CATEGORIES:
            raise _unknown_category(category)
        self.cpu_seconds[category] = self.cpu_seconds.get(category, 0.0) + seconds

    def add_read(self, n_bytes: int, seconds: float, n_requests: int = 1) -> None:
        self.bytes_read += n_bytes
        self.read_requests += n_requests
        self.io_wait_seconds += seconds

    def add_write(self, n_bytes: int, seconds: float, n_requests: int = 1) -> None:
        self.bytes_written += n_bytes
        self.write_requests += n_requests
        self.io_wait_seconds += seconds

    def add_prefetch_wait(self, seconds: float) -> None:
        """Book residual prefetch wait: io_wait that overlap could not hide."""
        if seconds < 0:
            raise ValueError(f"negative prefetch wait: {seconds}")
        self.io_wait_seconds += seconds
        self.prefetch_wait_seconds += seconds

    def bump(self, counter: str, delta: int = 1) -> None:
        """Increment a named event counter (prefetch hits, compactions...)."""
        self.counters[counter] = self.counters.get(counter, 0) + delta

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            cpu_seconds=dict(self.cpu_seconds),
            io_wait_seconds=self.io_wait_seconds,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            read_requests=self.read_requests,
            write_requests=self.write_requests,
            counters=dict(self.counters),
            prefetch_wait_seconds=self.prefetch_wait_seconds,
        )

    def merge(self, other: "MetricsLedger | MetricsSnapshot") -> None:
        """Fold another ledger/snapshot into this one (cross-instance totals)."""
        for cat, secs in other.cpu_seconds.items():
            self.cpu_seconds[cat] = self.cpu_seconds.get(cat, 0.0) + secs
        self.io_wait_seconds += other.io_wait_seconds
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.read_requests += other.read_requests
        self.write_requests += other.write_requests
        self.prefetch_wait_seconds += getattr(other, "prefetch_wait_seconds", 0.0)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def reset(self) -> None:
        self.cpu_seconds = {cat: 0.0 for cat in CPU_CATEGORIES}
        self.io_wait_seconds = 0.0
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_requests = 0
        self.write_requests = 0
        self.counters = {}
        self.prefetch_wait_seconds = 0.0
