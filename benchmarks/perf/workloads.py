"""The pinned scale and the seven workloads, as plain data.

Nothing here imports ``repro``: :mod:`adapter` turns a :class:`Cell` into
calls.  The scale is written out field by field so that a change to the
``QUICK``/``TINY``/``DEFAULT`` profiles or to ``REPRO_BENCH_PROFILE`` can
never move a benchmark number.

Resizing rule: one pass over a workload's cells takes 1.5-3 s on the
2-core reference box, so a 12 s run holds four or more repeats of every
cell.  To make a workload cheaper shrink ``duration``; never drop a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

DEFAULT_SEED = 20230509
BACKENDS = ("flowkv", "rocksdb", "faster", "memory")
DISK_BASELINES = ("flowkv", "rocksdb")

WINDOW = 100.0
EVENTS_PER_SECOND = 40.0

# open_loop: arrival schedule and the latency limit of the sustainable rate.
OPEN_LOOP_RATES = (20.0, 40.0, 80.0)
OPEN_LOOP_WINDOW = 10.0
OPEN_LOOP_DURATION = 80.0
LATENCY_LIMIT_S = 10.0  # on P95, simulated seconds

# Every ScaleProfile field, pinned.  Store budgets are the quick
# profile's; the heap is 64 MiB so that the in-memory backend never OOMs
# (no cell is expected to fail); overload_backlog is effectively off so
# that an open-loop cell past saturation runs to the end and is judged by
# its latency, not aborted.
SCALE: dict[str, Any] = dict(
    name="perf",
    events_per_second=EVENTS_PER_SECOND,
    duration=300.0,  # every cell states its own
    active_people=200,
    active_auctions=50,
    seed=DEFAULT_SEED,
    window_sizes=(WINDOW,),
    paper_window_labels=("1000s",),
    session_gap_fraction=0.1,
    parallelism=2,
    workers=1,
    watermark_interval=50,
    timeout_multiplier=8.0,
    timeout_floor=0.05,
    heap_total_bytes=64 << 20,
    flowkv_write_buffer=32 << 10,
    flowkv_read_batch_ratio=0.2,
    flowkv_msa=1.5,
    flowkv_instances=2,
    flowkv_segment_bytes=256 << 10,
    flowkv_prefetch_bytes=512 << 10,
    lsm_write_buffer=32 << 10,
    lsm_block_cache=256 << 10,
    lsm_level1_bytes=512 << 10,
    lsm_max_file_bytes=128 << 10,
    faster_memory_log=128 << 10,
    latency_window=OPEN_LOOP_WINDOW,
    latency_duration=OPEN_LOOP_DURATION,
    latency_rates=OPEN_LOOP_RATES,
    overload_backlog=1e12,
    latency_cost_scale=4000.0,
    latency_watermark_interval=5,
)

# state_movement: where the disturbances land, as fractions of the input.
FAULT_SEED = 7
CHECKPOINT_EVERY = 1 / 8
RESCALE_AT = 1 / 3
CRASH_AT = 7 / 10
CLUSTER_NODES = 4
DEAD_NODE = 2


@dataclass(frozen=True)
class Cell:
    """One timed unit of work.

    ``kind`` selects the adapter entry point: ``query`` (closed loop,
    throughput mode), ``open_loop`` (fixed arrival rate, per-tuple),
    ``store`` (direct drive, no engine).  Cells of one ``group`` must
    produce the same output digest.  ``reference`` cells run once,
    untimed, only to give their group an undisturbed digest.
    """

    name: str
    kind: str
    target: str  # query name, or store pattern (aar / aur / rmw)
    backend: str
    group: str
    duration: float = 0.0
    rate: float = EVENTS_PER_SECOND
    window: float = WINDOW
    batch_records: int = 256
    scenario: str = ""  # state_movement: live / stw_full / failover
    reference: bool = False
    # store cells
    n_rounds: int = 0
    n_keys: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple[Cell, ...]


def _matrix(query: str, duration: float, batch: int = 256) -> tuple[Cell, ...]:
    return tuple(
        Cell(f"{query}/{backend}/b{batch}", "query", query, backend, query,
             duration=duration, batch_records=batch)
        for backend in BACKENDS
    )


def _open_loop() -> tuple[Cell, ...]:
    return tuple(
        Cell(f"{query}/{backend}/r{rate:g}", "open_loop", query, backend,
             f"{query}@{rate:g}", duration=OPEN_LOOP_DURATION, rate=rate,
             window=OPEN_LOOP_WINDOW, batch_records=1)
        for query in ("q7", "q11-median")
        for backend in BACKENDS
        for rate in OPEN_LOOP_RATES
    )


def _state_movement(duration: float) -> tuple[Cell, ...]:
    query = "q11-median"

    def cell(scenario: str, backend: str) -> Cell:
        # Crash ordinals count crash-point hits, which are per batch above
        # batch 1 -- hence batch 1.
        return Cell(f"{scenario}/{backend}", "query", query, backend, query,
                    duration=duration, batch_records=1, scenario=scenario)

    return (
        Cell("undisturbed/memory", "query", query, "memory", query,
             duration=duration, reference=True),
        *(cell("live", backend) for backend in BACKENDS),
        *(cell("stw_full", backend) for backend in DISK_BASELINES),
        *(cell("failover", backend) for backend in DISK_BASELINES),
    )


def _engine_only(duration: float) -> tuple[Cell, ...]:
    return tuple(
        Cell(f"{query}/rocksdb/b{batch}", "query", query, "rocksdb", query,
             duration=duration, batch_records=batch)
        for query in ("q8-interval", "q1", "q2")
        for batch in (1, 256)
    )


def _direct_drive(n_rounds: int, n_keys: int) -> tuple[Cell, ...]:
    return tuple(
        Cell(f"{pattern}/{backend}", "store", pattern, backend, pattern,
             n_rounds=n_rounds, n_keys=n_keys)
        for pattern in ("aar", "aur", "rmw")
        for backend in BACKENDS
    )


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "append_aligned",
        "Q7 on 4 backends, batch 256: append per tuple, whole-window aligned read; "
        "stresses core.aar, the LSM merge-operator write path and hash-store RCU append",
        _matrix("q7", duration=600.0),
    ),
    Workload(
        "append_session",
        "Q11-Median on 4 backends, batch 256: session merging and per-key unaligned reads; "
        "stresses core.aur, ETT/index scans and the engine's session paths",
        _matrix("q11-median", duration=450.0),
    ),
    Workload(
        "rmw_sliding",
        "Q5 on 4 backends, batch 256: get+put per tuple over sliding windows; the read side "
        "of the stores (core.rmw, LSM get/bloom/block cache), so a write-path gain that costs reads shows",
        _matrix("q5", duration=300.0),
    ),
    Workload(
        "open_loop",
        "Q7 and Q11-Median on 4 backends at 20/40/80 rec/s, open loop in simulated time; "
        "latency from intended arrival, sustainable rate, and the per-tuple (batch 1) engine path",
        _open_loop(),
    ),
    Workload(
        "state_movement",
        "Q11-Median with checkpoints, live and stop-the-world rescale, crash restore and node "
        "failover; the only workload where rescale, recovery, snapshot, changelog and cluster run",
        _state_movement(duration=150.0),
    ),
    Workload(
        "engine_only",
        "Q8-Interval, Q1, Q2 at batch 1 and 256: engine-managed or no state, so generator, routing "
        "and RecordBatch are the whole cost; a store optimisation must show no change here",
        _engine_only(duration=800.0),
    ),
    Workload(
        "direct_drive",
        "storebench AAR/AUR/RMW patterns straight against 4 backends, no engine or generator; "
        "an engine optimisation must show no change here",
        _direct_drive(n_rounds=200, n_keys=64),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
