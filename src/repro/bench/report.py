"""Plain-text reporting: the same rows/series the paper's figures show."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.bench.harness import RunRecord

FAILURE_MARK = {"oom": "x (OOM)", "timeout": "x (DNF)", "overload": "x (overload)"}


def format_cell(record: RunRecord, normalize_to: float | None = None) -> str:
    if not record.ok:
        return FAILURE_MARK.get(record.failure or "", "x")
    if normalize_to:
        return f"{record.throughput / normalize_to:.2f}x"
    return f"{record.throughput:,.0f}"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width ASCII table."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        for idx, cell in enumerate(row):
            columns[idx].append(str(cell))
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def throughput_rows(
    records: list[RunRecord],
    queries: list[str],
    backends: list[str],
    window_sizes: list[float],
    labels: list[str] | None = None,
) -> list[list[str]]:
    """One row per (query, window): throughput per backend + FlowKV gain."""
    by_cell = {(r.query, r.backend, r.window_size): r for r in records}
    rows = []
    for query in queries:
        for idx, size in enumerate(window_sizes):
            label = labels[idx] if labels else f"{size:g}s"
            row: list[str] = [query, label]
            flow = by_cell.get((query, "flowkv", size))
            for backend in backends:
                record = by_cell.get((query, backend, size))
                row.append(format_cell(record) if record else "-")
            best_rival = min(
                (by_cell[(query, b, size)].job_seconds
                 for b in backends
                 if b not in ("flowkv", "memory")
                 and (query, b, size) in by_cell
                 and by_cell[(query, b, size)].ok),
                default=None,
            )
            if flow and flow.ok and best_rival:
                row.append(f"{best_rival / flow.job_seconds:.2f}x")
            else:
                row.append("-")
            rows.append(row)
    return rows


def breakdown_rows(records: list[RunRecord]) -> list[list[str]]:
    """Execution-time breakdown rows (Figures 4 and 10)."""
    rows = []
    for record in records:
        if not record.ok or record.metrics is None:
            rows.append(
                [record.query, record.backend,
                 FAILURE_MARK.get(record.failure or "", "x"), "-", "-", "-", "-", "-"]
            )
            continue
        # Ledger totals aggregate all parallel instances; divide by the
        # instance count so the stacked components sum to roughly the job
        # time (max busy instance), as in the paper's per-job bars.
        n = max(1, record.n_instances)
        cpu = record.metrics.cpu_seconds
        computation = (
            cpu.get("query", 0.0) + cpu.get("engine", 0.0) + cpu.get("serde", 0.0)
        ) / n
        store_write = (cpu.get("store_write", 0.0) + cpu.get("sync", 0.0) / 2) / n
        store_read = (cpu.get("store_read", 0.0) + cpu.get("sync", 0.0) / 2) / n
        compaction = (cpu.get("compaction", 0.0) + cpu.get("gc", 0.0)) / n
        rows.append(
            [
                record.query,
                record.backend,
                f"{record.job_seconds:.3f}",
                f"{computation:.3f}",
                f"{store_write:.3f}",
                f"{store_read:.3f}",
                f"{compaction:.3f}",
                f"{record.metrics.io_wait_seconds / n:.3f}",
            ]
        )
    return rows


def latency_rows(records: list[RunRecord]) -> list[list[str]]:
    rows = []
    for record in records:
        latency = (
            FAILURE_MARK.get(record.failure or "", "x")
            if not record.ok
            else f"{(record.p95_latency or 0.0) * 1000:.1f} ms"
        )
        rows.append([record.query, record.backend, f"{record.arrival_rate:g}/s", latency])
    return rows


def record_summary(record: RunRecord) -> dict[str, Any]:
    """One benchmark record as a JSON-stable flat dict.

    Optional sections (latency, checkpoints, rescales, recoveries,
    network, nodes, prefetch, a figure's ``operator_stats["_sweep"]``
    extras) appear only when the run produced them, so the schema is
    append-only across figures.
    """
    row: dict[str, Any] = {
        "query": record.query,
        "backend": record.backend,
        "window_size": record.window_size,
        "ok": record.ok,
        "failure": record.failure,
        "input_records": record.input_records,
        "job_seconds": record.job_seconds,
        "throughput": record.throughput,
        "results": record.results,
        "output_hash": record.output_hash,
    }
    if record.arrival_rate:
        row["arrival_rate"] = record.arrival_rate
        row["p95_latency"] = record.p95_latency
    if record.checkpoints:
        row["checkpoints"] = record.checkpoints
        row["checkpoint_bytes"] = record.checkpoint_bytes
        row["checkpoint_epochs"] = [
            {
                "epoch": s.epoch,
                "full": s.full,
                "bytes_written": s.bytes_written,
                "shards_written": s.shards_written,
                "shards_reused": s.shards_reused,
            }
            for s in record.checkpoint_stats
        ]
    if record.rescales:
        row["rescales"] = [
            {
                "at_record": e.at_record,
                "mode": e.mode,
                "reason": e.reason,
                "old_parallelism": e.old_parallelism,
                "new_parallelism": e.new_parallelism,
                "moved_groups": e.moved_groups,
                "bytes_moved": e.bytes_moved,
                "seeded_groups": e.seeded_groups,
                "seeded_bytes": e.seeded_bytes,
                "aborted": e.aborted,
                **({"hot_groups": list(e.hot_groups)} if e.hot_groups else {}),
            }
            for e in record.rescales
        ]
    if record.recoveries:
        row["recoveries"] = [
            {"kind": ev.kind, "epoch": ev.epoch, "at_record": ev.at_record}
            for ev in record.recoveries
        ]
    # Cluster runs: network totals and the per-machine utilization map.
    # Zero network bytes on a single node — omitted entirely there.
    if record.network_bytes:
        row["network_bytes"] = record.network_bytes
        row["network_seconds"] = record.network_seconds
    if record.node_stats:
        row["nodes"] = record.node_stats
    # Semantic prefetching: counters plus the io_wait split.  Only
    # present when the run issued any prefetches — the schema stays
    # append-only and depth-0 rows are byte-identical to older builds.
    metrics = record.metrics
    if metrics is not None:
        counters = metrics.counters
        issued = sum(
            counters.get(k, 0)
            for k in ("prefetch_hits", "prefetch_late", "prefetch_wasted",
                      "prefetch_dropped")
        )
        if issued:
            residual = metrics.prefetch_wait_seconds
            row["prefetch"] = {
                "hits": counters.get("prefetch_hits", 0),
                "late": counters.get("prefetch_late", 0),
                "wasted": counters.get("prefetch_wasted", 0),
                "dropped": counters.get("prefetch_dropped", 0),
                "throttled": counters.get("prefetch_throttled", 0),
                "io_seconds": metrics.cpu_seconds.get("prefetch", 0.0),
                "residual_wait_seconds": residual,
                "demand_wait_seconds": metrics.io_wait_seconds - residual,
            }
    sweep = record.operator_stats.get("_sweep")
    if sweep:
        row["sweep"] = {
            k: v for k, v in sweep.items() if isinstance(v, (int, float, str, bool))
        }
    return row


def prefetch_counter_columns(record: RunRecord) -> tuple[str, str, str]:
    """Prefetch effectiveness: ``(hits, late, wasted)`` counter columns.

    Runs that never issued a prefetch (depth 0, or a backend without the
    subsystem) render as ``-``.
    """
    if record.metrics is None:
        return ("-", "-", "-")
    counters = record.metrics.counters
    hits = counters.get("prefetch_hits", 0)
    late = counters.get("prefetch_late", 0)
    wasted = counters.get("prefetch_wasted", 0)
    if not (hits or late or wasted or counters.get("prefetch_dropped", 0)):
        return ("-", "-", "-")
    return (str(hits), str(late), str(wasted))


def summary_payload(
    profile_name: str, figures: dict[str, tuple[Any, ...]]
) -> dict[str, Any]:
    """The ``BENCH_summary.json`` document (schema_version 1).

    ``figures`` maps figure name to ``(description, records)`` or
    ``(description, records, elapsed_seconds)`` — the third element is
    the real wall-clock time the figure took to run, so the perf
    trajectory is tracked per PR.  The schema is stable: new figures
    and new per-record fields may be added, existing keys keep their
    meaning.
    """
    out: dict[str, Any] = {}
    for name, entry in figures.items():
        description, records = entry[0], entry[1]
        figure: dict[str, Any] = {
            "description": description,
            "rows": [record_summary(r) for r in records],
        }
        if len(entry) > 2 and entry[2] is not None:
            figure["elapsed_seconds"] = round(float(entry[2]), 3)
        out[name] = figure
    return {
        "schema_version": 1,
        "profile": profile_name,
        "figures": out,
    }


def lsm_counter_columns(record: RunRecord) -> tuple[str, str]:
    """LSM cache/bloom effectiveness: ``(hit ratio, negative rate)``.

    Backends that never touched an LSM store (FlowKV, Faster, heap) have
    no such counters and render as ``-``.
    """
    if record.metrics is None:
        return ("-", "-")
    counters = record.metrics.counters
    hits = counters.get("lsm_cache_hits", 0)
    misses = counters.get("lsm_cache_misses", 0)
    checks = counters.get("lsm_bloom_checks", 0)
    negatives = counters.get("lsm_bloom_negatives", 0)
    hit_ratio = f"{hits / (hits + misses):.2f}" if hits + misses else "-"
    negative_rate = f"{negatives / checks:.2f}" if checks else "-"
    return hit_ratio, negative_rate
