"""Batch sweep: real wall-clock and charged work vs batch size, all backends.

Not a paper figure — it validates the batched hot path's contract.
``max_batch_records`` pushes columnar record batches through the engine
into each backend's ``multi_append``; the sweep runs one
AAR query (Q7) and one RMW query (Q11) per backend at batch sizes 1, 8,
64, and 256 and reports, per cell:

* **real wall-clock seconds** — the thing batching is allowed to change
  (expected to *drop* as batch size grows),
* **simulated CPU seconds and charged store ops** — the things batching
  must *not* change (flat, bit-exact columns),
* a digest check against the batch-1 run of the same cell.

A ``DIVERGED`` digest or a moving simulated column is a correctness bug
in the batch path, not a perf regression.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.bench.harness import RunRecord, run_query
from repro.bench.profiles import ScaleProfile, active_profile
from repro.bench.report import format_table

BACKENDS = ("flowkv", "rocksdb", "faster", "memory")
QUERIES = ("q7", "q11")
BATCH_SIZES = (1, 8, 64, 256)


def _charged_ops(record: RunRecord) -> int:
    """Charged device I/O requests plus counter events (batch-invariant).

    Batching must not change what reaches the simulated device: flush
    thresholds, SSTable boundaries, spills and prefetches all stay
    per-record decisions, so this count is flat across batch sizes.
    """
    if record.metrics is None:
        return 0
    metrics = record.metrics
    return (
        metrics.read_requests
        + metrics.write_requests
        + sum(metrics.counters.values())
    )


def run(
    profile: ScaleProfile,
    backends: tuple[str, ...] = BACKENDS,
    queries: tuple[str, ...] = QUERIES,
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
) -> list[RunRecord]:
    size = profile.window_sizes[0]
    records: list[RunRecord] = []
    for query in queries:
        for backend in backends:
            cell_profile = profile
            if backend == "memory":
                # The small profiles' heap deliberately OOMs the naive
                # in-heap backend (fig4's point); the subject here is
                # the batch path, so give it room to finish.
                cell_profile = replace(profile, heap_total_bytes=16 << 20)
            baseline_hash = None
            baseline_wall = 0.0
            baseline_cpu = 0.0
            for batch in batch_sizes:
                started = time.perf_counter()
                record = run_query(
                    cell_profile, query, backend, size, batch_records=batch
                )
                wall = time.perf_counter() - started
                cpu = (
                    sum(record.metrics.cpu_seconds.values())
                    if record.metrics else 0.0
                )
                if batch == batch_sizes[0]:
                    baseline_hash = record.output_hash
                    baseline_wall = wall
                    baseline_cpu = cpu
                sweep = record.operator_stats.setdefault("_sweep", {})
                sweep["batch"] = batch
                sweep["wall_seconds"] = wall
                sweep["speedup"] = baseline_wall / wall if wall > 0 else 0.0
                sweep["sim_cpu_seconds"] = cpu
                sweep["charged_ops"] = _charged_ops(record)
                sweep["digest_ok"] = bool(
                    record.ok and record.output_hash == baseline_hash
                )
                sweep["sim_cpu_ok"] = bool(record.ok and cpu == baseline_cpu)
                records.append(record)
    return records


def render(records: list[RunRecord]) -> str:
    rows = []
    for record in records:
        sweep = record.operator_stats.get("_sweep", {})
        ok = sweep.get("digest_ok") and sweep.get("sim_cpu_ok")
        rows.append([
            record.query,
            record.backend,
            f"{sweep.get('batch', 0)}",
            f"{sweep.get('wall_seconds', 0.0):.3f}",
            f"{sweep.get('speedup', 0.0):.2f}x",
            f"{sweep.get('sim_cpu_seconds', 0.0):.6f}",
            f"{sweep.get('charged_ops', 0):,}",
            ("=" if ok else "DIVERGED") if record.ok else record.failure,
        ])
    return format_table(
        ["query", "backend", "batch", "wall s", "speedup",
         "sim cpu s", "charged ops", "digest"],
        rows,
    )


def main() -> None:
    profile = active_profile()
    print(f"Batch sweep (profile={profile.name}): "
          f"wall-clock vs batch size; simulated columns must stay flat")
    print(render(run(profile)))


if __name__ == "__main__":
    main()

from repro.bench.registry import register_figure  # noqa: E402 - self-registration

register_figure("fig_batch", __doc__.strip().splitlines()[0], run, render)
