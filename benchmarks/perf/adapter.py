"""The benchmark's contract with ``src/``: the only module importing ``repro``.

Everything the benchmark calls in the program is called from here, so a
refactor of ``src/`` that breaks the benchmark breaks it in this file.
The surface used (keep it working, or change it here):

* ``repro.bench.harness.run_query`` / ``output_digest`` and the
  ``RunRecord`` fields read in :func:`_collect`
* ``repro.bench.profiles.ScaleProfile`` (constructed from
  ``workloads.SCALE``; ``backend_factory`` / ``generator``)
* ``repro.bench.storebench.StoreWorkload`` / ``run_store_comparison``
  and ``repro.core.patterns.StorePattern``
* ``repro.nexmark.queries.build_query`` + ``StreamEnvironment.execute``
  (open-loop cells need ``JobResult.latencies``, which ``run_query``
  reduces to one percentile)
* ``repro.nexmark.generator.generate_events``
* ``repro.engine.batch.RecordBatch`` (``take`` / ``with_keys``)
* ``repro.storage.SimFileSystem`` (``append`` / ``read``)
* ``repro.simenv.SimEnv.charge_cpu`` and ``CPU_CATEGORIES``
* ``repro.serde`` codec functions
* ``repro.faults.FaultPlan`` (``crash`` / ``kill_node``) and
  ``CRASH_RUNTIME_RECORD``
* ``repro.cluster.ClusterTopology.uniform``
* ``repro.kvstores.api.WindowStateBackend`` (its public method names
  define the engine/store boundary for ``engine.store_boundary_share``)
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import repro
from repro import serde
from repro.bench.harness import output_digest, run_query
from repro.bench.profiles import ScaleProfile
from repro.bench.storebench import StoreWorkload, run_store_comparison
from repro.cluster import ClusterTopology
from repro.core.patterns import StorePattern
from repro.engine.batch import RecordBatch
from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan
from repro.kvstores.api import WindowStateBackend
from repro.nexmark.generator import generate_events
from repro.nexmark.queries import build_query
from repro.simenv import CPU_CATEGORIES, SimEnv
from repro.storage import SimFileSystem

import workloads as wl

SOURCE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
CPU_CATEGORIES = tuple(CPU_CATEGORIES)
PROFILE = ScaleProfile(**wl.SCALE)

_PATTERNS = {"aar": StorePattern.AAR, "aur": StorePattern.AUR, "rmw": StorePattern.RMW}


@dataclass
class CellResult:
    """What one cell produced, in plain Python types."""

    records: int  # input records, or store operations for a direct drive
    failure: str | None
    digest: str | None
    job_seconds: float  # simulated
    results: int = 0
    cpu_seconds: dict[str, float] = field(default_factory=dict)
    io_wait_seconds: float = 0.0
    prefetch_wait_seconds: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    read_requests: int = 0
    write_requests: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    memory_bytes: int = 0
    disk_bytes: int = 0
    prefetch_loads: int = 0
    prefetch_hits: int = 0
    instance_busy: list[float] = field(default_factory=list)
    latencies: list[float] | None = None  # sorted; open-loop cells only
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    recoveries: list[tuple[str, float]] = field(default_factory=list)  # (kind, sim s)
    rescales: list[dict[str, float]] = field(default_factory=list)
    net_bytes: int = 0


def _collect(run: Any, digest: str | None, results: int) -> CellResult:
    """Flatten a ``RunRecord`` or ``JobResult`` (same field names)."""
    out = CellResult(
        records=run.input_records, failure=run.failure, digest=digest,
        job_seconds=run.job_seconds, results=results,
    )
    _fill_ledger(out, run.metrics)
    for stats in run.operator_stats.values():
        out.memory_bytes += stats.get("memory_bytes", 0)
        out.disk_bytes += stats.get("disk_bytes", 0)
        out.prefetch_loads += stats.get("prefetch_loads", 0)
        out.prefetch_hits += stats.get("prefetch_hits", 0)
    out.instance_busy = [
        entry["busy_seconds"] for entry in run.group_load.get("instances", {}).values()
    ]
    out.checkpoints = run.checkpoints
    out.checkpoint_bytes = sum(stat.bytes_written for stat in run.checkpoint_stats)
    out.recoveries = [(event.kind, event.sim_seconds) for event in run.recoveries]
    out.rescales = [
        {
            "downtime_seconds": event.downtime_seconds,
            "moved_groups": event.moved_groups,
            "bytes_moved": event.bytes_moved,
            "buffered_records": sum(c.buffered_records for c in event.cutovers),
        }
        for event in run.rescales
    ]
    return out


def _fill_ledger(out: CellResult, metrics: Any) -> None:
    if metrics is None:
        return
    out.cpu_seconds = dict(metrics.cpu_seconds)
    out.io_wait_seconds = metrics.io_wait_seconds
    out.prefetch_wait_seconds = metrics.prefetch_wait_seconds
    out.bytes_read = metrics.bytes_read
    out.bytes_written = metrics.bytes_written
    out.read_requests = metrics.read_requests
    out.write_requests = metrics.write_requests
    out.counters = dict(metrics.counters)
    out.net_bytes = metrics.counters.get("net_bytes", 0)


@functools.lru_cache(maxsize=None)
def _input_count(seed: int, duration: float, rate: float) -> int:
    config = PROFILE.generator(seed=seed, duration=duration, events_per_second=rate)
    return sum(1 for _ in generate_events(config))


def prepare(cell: wl.Cell, seed: int, scale: float = 1.0) -> Callable[[], CellResult]:
    """Everything a cell needs that is not the cell's own work.

    The returned callable is what gets timed.  ``seed`` reaches only the
    input generator; ``scale`` shortens the input (warm-up, traced pass,
    smoke test).
    """
    if cell.kind == "store":
        return functools.partial(_run_store, cell, seed, scale)
    duration = cell.duration * scale
    if cell.kind == "open_loop":
        return functools.partial(_run_open_loop, cell, seed, duration)
    if cell.scenario:
        n = _input_count(seed, duration, cell.rate)
        return functools.partial(_run_state_movement, cell, seed, duration, n)
    return functools.partial(_run_query, cell, seed, duration)


def _run_query(cell: wl.Cell, seed: int, duration: float,
               profile: ScaleProfile = PROFILE, **extra: Any) -> CellResult:
    record = run_query(
        profile, cell.target, cell.backend, cell.window,
        duration=duration, events_per_second=cell.rate, seed=seed,
        batch_records=cell.batch_records, **extra,
    )
    if record.metrics is None:  # oom / unsupported: nothing ran to the end
        return CellResult(records=0, failure=record.failure, digest=None, job_seconds=0.0)
    return _collect(record, record.output_hash, record.results)


def _run_state_movement(cell: wl.Cell, seed: int, duration: float, n: int) -> CellResult:
    # Fault plans are stateful once built: a fresh one per run.
    crash_at = max(2, int(n * wl.CRASH_AT))
    extra: dict[str, Any] = {"checkpoint_interval": max(1, int(n * wl.CHECKPOINT_EVERY))}
    if cell.scenario == "live":
        extra["rescale_schedule"] = {max(1, int(n * wl.RESCALE_AT)): 4}
        extra["fault_plan"] = FaultPlan(wl.FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=crash_at)
    elif cell.scenario == "stw_full":
        extra["parallelism"] = 4
        extra["rescale_schedule"] = {max(1, int(n * wl.RESCALE_AT)): 2}
        extra["rescale_mode"] = "stw"
        extra["incremental_checkpoints"] = False
        extra["fault_plan"] = FaultPlan(wl.FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=crash_at)
    elif cell.scenario == "failover":
        extra["profile"] = replace(PROFILE, parallelism=wl.CLUSTER_NODES)
        extra["cluster"] = ClusterTopology.uniform(wl.CLUSTER_NODES)
        extra["recovery_mode"] = "standby"
        extra["fault_plan"] = FaultPlan(wl.FAULT_SEED).kill_node(wl.DEAD_NODE, on_hit=crash_at)
    else:
        raise ValueError(f"unknown scenario {cell.scenario!r}")
    result = _run_query(cell, seed, duration, **extra)
    if result.failure is None and not result.recoveries:
        result.failure = "no_recovery"  # the injected fault never fired
    return result


def _run_open_loop(cell: wl.Cell, seed: int, duration: float) -> CellResult:
    """``run_query``'s latency branch, keeping the whole latency sample."""
    env = build_query(
        cell.target,
        PROFILE.backend_factory(cell.backend),
        PROFILE.generator(seed=seed, duration=duration, events_per_second=cell.rate),
        cell.window,
        parallelism=PROFILE.parallelism,
        workers=PROFILE.workers,
        session_gap=cell.window * PROFILE.session_gap_fraction,
        cost_scale=PROFILE.latency_cost_scale,
        batch_records=cell.batch_records,
    )
    job = env.execute(
        arrival_rate=cell.rate,
        watermark_interval=PROFILE.latency_watermark_interval,
        overload_backlog=PROFILE.overload_backlog,
    )
    results = sum(len(rows) for rows in job.sink_outputs.values())
    out = _collect(job, output_digest(job.sink_outputs), results)
    out.latencies = sorted(job.latencies)
    return out


def _run_store(cell: wl.Cell, seed: int, scale: float) -> CellResult:
    workload = StoreWorkload(
        _PATTERNS[cell.target],
        n_rounds=max(40, int(cell.n_rounds * scale)),
        n_keys=cell.n_keys,
        seed=seed,
    )
    factories = {cell.backend: PROFILE.backend_factory(cell.backend)}
    result = run_store_comparison(factories, workload)[cell.backend]
    out = CellResult(
        records=result.operations, failure=None,
        digest=f"ops:{result.operations}", job_seconds=result.sim_seconds,
    )
    _fill_ledger(out, result.metrics)
    return out


# ----------------------------------------------------------------------
# the engine/store boundary, for profile folding
# ----------------------------------------------------------------------
def store_boundary_functions() -> set[tuple[str, int, str]]:
    """``pstats`` keys of every loaded ``WindowStateBackend`` public method."""
    names = [n for n in vars(WindowStateBackend) if not n.startswith("_")]
    classes, todo = [], [WindowStateBackend]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    keys = set()
    for cls in classes:
        for name in names:
            member = vars(cls).get(name)
            member = getattr(member, "fget", member)  # properties
            if inspect.isfunction(member):
                code = member.__code__
                keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


# ----------------------------------------------------------------------
# direct drives of single layers (host clock; median of five)
# ----------------------------------------------------------------------
def _median_seconds(fn: Callable[[], Any], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def direct_drives(seed: int) -> dict[str, tuple[float, str]]:
    """Each layer called alone: ``{metric: (value, unit)}``."""
    out: dict[str, tuple[float, str]] = {}

    config = PROFILE.generator(seed=seed, duration=300.0)
    n_events = _input_count(seed, 300.0, PROFILE.events_per_second)
    seconds = _median_seconds(lambda: sum(1 for _ in generate_events(config)))
    out["nexmark.direct_events_per_s"] = (n_events / seconds, "events/s")

    rows, rounds = 256, 400
    keys = [b"k%04d" % (i % 64) for i in range(rows)]
    values = list(range(rows))
    stamps = [float(i) for i in range(rows)]
    origins = [0] * rows
    halves = [list(range(0, rows, 2)), list(range(1, rows, 2))]

    def regroup() -> None:
        for _ in range(rounds):
            batch = RecordBatch(list(keys), values, stamps, origins).with_keys(keys)
            for half in halves:
                batch.take(half)

    out["engine.direct_batch_rows_per_s"] = (rows * rounds / _median_seconds(regroup), "rows/s")

    block, blocks = bytes(4096), 2000

    def fs_append() -> SimFileSystem:
        fs = SimFileSystem(SimEnv())
        for _ in range(blocks):
            fs.append("direct", block)
        return fs

    filled = fs_append()

    def fs_read() -> None:
        for i in range(blocks):
            filled.read("direct", i * len(block), len(block))

    megabytes = len(block) * blocks / 1e6
    out["storage.direct_append_mb_per_s"] = (megabytes / _median_seconds(fs_append), "MB/s")
    out["storage.direct_read_mb_per_s"] = (megabytes / _median_seconds(fs_read), "MB/s")

    charges = 100_000

    def charge() -> None:
        env = SimEnv()
        for _ in range(charges):
            env.charge_cpu("query", 1e-9)

    out["simenv.direct_ns_per_charge"] = (_median_seconds(charge) / charges * 1e9, "ns")

    payload, trips = bytes(84), 50_000

    def roundtrip() -> None:
        for i in range(trips):
            serde.decode_bytes(serde.encode_bytes(payload))
            serde.decode_varint(serde.encode_varint(i))
            serde.decode_u64(serde.encode_u64(i))

    out["serde.direct_ns_per_roundtrip"] = (_median_seconds(roundtrip) / trips * 1e9, "ns")
    return out
