"""Untraced measurement of one workload: timing, output check, end-to-end metrics.

Runs inside the workload's own process (see ``run.py``), so peak RSS
and set-up time belong to this workload alone.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from collections import Counter
from typing import Any

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 3
WARMUP_FRACTION = 0.1
P95_MIN_SAMPLES = 200  # ten samples beyond the 95th percentile

Metric = dict[str, Any]  # {"value": float, "unit": str, ...}


def summary(values: list[float]) -> dict[str, float]:
    """Minimum, median, quartiles (as ``statistics.quantiles(n=4)`` gives them) and count."""
    if len(values) < 2:
        return {"min": values[0], "median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(ordered: list[float], share: float) -> float:
    """Same index rule as ``JobResult.p95_latency``."""
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def warm_up(adapter: Any, workload: wl.Workload, seed: int, scale: float) -> None:
    """One pass at a tenth of the stream, so lazy set-up is paid before timing."""
    for cell in workload.cells:
        adapter.prepare(cell, seed, scale * WARMUP_FRACTION)()


def run_pass(adapter: Any, cells: list[wl.Cell], seed: int, scale: float,
             times: dict[str, list[float]] | None = None) -> dict[str, Any]:
    """Run every cell once; a cell that raises is recorded, not propagated."""
    results = {}
    for cell in cells:
        run = adapter.prepare(cell, seed, scale)
        gc.collect()
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # the suite must report the cell as failed and go on
            result = adapter.CellResult(
                records=0, failure=f"raised:{type(exc).__name__}:{exc}", digest=None, job_seconds=0.0,
            )
        elapsed = time.perf_counter() - start
        if times is not None:
            times.setdefault(cell.name, []).append(elapsed)
        results[cell.name] = result
    return results


def expected_digests(workload: str) -> dict[str, str]:
    with open(os.path.join(HERE, "expected_digests.json")) as handle:
        return json.load(handle).get(workload, {})


def check_outputs(workload: wl.Workload, results: dict[str, Any], repeats: list[dict[str, Any]],
                  seed: int, scale: float) -> dict[str, str]:
    """``{cell: why}`` for every cell that failed.

    A cell fails if it reported a failure, if a repeat of it disagreed on
    digest or simulated time, or if its digest differs from its group's:
    the committed digest at the default seed and full scale, else the
    undisturbed reference cell's where there is one, else the majority's.
    """
    failed: dict[str, str] = {}
    for name, result in results.items():
        if result.failure is not None:
            failed[name] = result.failure
        elif any(
            (again[name].digest, again[name].job_seconds) != (result.digest, result.job_seconds)
            for again in repeats if name in again
        ):
            failed[name] = "nondeterministic"
    pinned = expected_digests(workload.name) if (seed, scale) == (wl.DEFAULT_SEED, 1.0) else {}
    groups: dict[str, list[wl.Cell]] = {}
    for cell in workload.cells:
        groups.setdefault(cell.group, []).append(cell)
    for group, cells in groups.items():
        digests = {c.name: results[c.name].digest for c in cells if c.name not in failed}
        if not digests:
            continue
        reference = next((digests[c.name] for c in cells if c.reference and c.name in digests), None)
        want = pinned.get(group) or reference or Counter(digests.values()).most_common(1)[0][0]
        for name, digest in digests.items():
            if digest != want:
                failed[name] = f"digest {digest[:12]} != {want[:12]} of group {group}"
    return failed


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def simulated_metrics(workload: wl.Workload, results: dict[str, Any]) -> dict[str, Metric]:
    """The ``sim_*`` end-to-end metrics defined on this workload (exact)."""
    timed = [(c, results[c.name]) for c in workload.cells if not c.reference]
    records = sum(r.records for _, r in timed)
    out: dict[str, Metric] = {}
    # Geometric mean, so that every cell weighs the same however slow its
    # backend.  Stateless cells (Q1/Q2) charge no simulated time and are left out.
    rates = [r.records / r.job_seconds for _, r in timed if r.job_seconds > 0 and r.records]
    if rates:
        out["sim_records_per_s"] = {
            "value": math.exp(sum(math.log(rate) for rate in rates) / len(rates)),
            "unit": "records/s", "cells": len(rates)}
    if records:
        out["sim_write_bytes_per_record"] = {
            "value": sum(r.bytes_written for _, r in timed) / records, "unit": "bytes/record"}
        out["sim_read_bytes_per_record"] = {
            "value": sum(r.bytes_read for _, r in timed) / records, "unit": "bytes/record"}

    open_loop = [(c, r) for c, r in timed if c.kind == "open_loop" and r.latencies]
    if open_loop:
        lowest = min(c.rate for c, _ in open_loop)
        calm = [r.latencies for c, r in open_loop if c.rate == lowest]
        out["sim_latency_p50_s"] = {
            "value": _mean([percentile(s, 0.50) for s in calm]), "unit": "s",
            "cells": len(calm), "samples_per_cell": [len(s) for s in calm], "rate": lowest}
        supported = [s for s in calm if len(s) >= P95_MIN_SAMPLES]
        if supported:
            out["sim_latency_p95_s"] = {
                "value": _mean([percentile(s, 0.95) for s in supported]), "unit": "s",
                "cells": len(supported), "samples_per_cell": [len(s) for s in supported], "rate": lowest}
        best: dict[tuple[str, str], float] = {}
        for cell, result in open_loop:
            pair = (cell.target, cell.backend)
            best.setdefault(pair, 0.0)
            meets = result.failure is None and percentile(result.latencies, 0.95) <= wl.LATENCY_LIMIT_S
            if meets and cell.rate > best[pair]:
                best[pair] = cell.rate
        out["sim_sustainable_rate"] = {
            "value": _mean(list(best.values())), "unit": "records/s", "pairs": len(best),
            "limit": f"P95 <= {wl.LATENCY_LIMIT_S:g} simulated s",
            "per_pair": {f"{q}/{b}": rate for (q, b), rate in sorted(best.items())}}

    moved = [(c, r) for c, r in timed if c.scenario]
    if moved:
        downtime = [
            sum(s for kind, s in r.recoveries if kind in ("restore", "promote", "degraded"))
            for _, r in moved
        ]
        out["sim_recovery_downtime_ms"] = {
            "value": _mean(downtime) * 1e3, "unit": "ms", "cells": len(moved)}
        rescales = [event["downtime_seconds"] for _, r in moved for event in r.rescales]
        if rescales:
            out["sim_rescale_downtime_ms"] = {
                "value": _mean(rescales) * 1e3, "unit": "ms", "events": len(rescales)}
        out["sim_checkpoint_bytes_per_record"] = {
            "value": sum(r.checkpoint_bytes for _, r in moved) / records, "unit": "bytes/record"}
    return out


def measure(adapter: Any, workload: wl.Workload, seed: int, seconds: float, reps: int | None,
            scale: float) -> dict[str, Any]:
    """Timed repeats of the workload's cells, checked, as a report section.

    Repeats are outermost so that drift hits every cell alike.  With no
    ``reps`` given, passes repeat until ``seconds`` are used up, and at
    least ``MIN_REPS`` times.
    """
    timed = [c for c in workload.cells if not c.reference]
    times: dict[str, list[float]] = {}
    passes: list[dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        passes.append(run_pass(adapter, timed, seed, scale, times))
        now = time.perf_counter()
        if reps is not None:
            if len(passes) >= reps:
                break
        elif len(passes) >= MIN_REPS and now + (now - before) > start + seconds:
            break
    results = dict(passes[0])
    results.update(run_pass(adapter, [c for c in workload.cells if c.reference], seed, scale))
    failed = check_outputs(workload, results, passes[1:], seed, scale)

    records = sum(results[c.name].records for c in timed)
    per_rep = [records / sum(times[c.name][i] for c in timed) for i in range(len(passes))]
    # Host noise on a shared box only ever slows a cell down, in bursts of
    # seconds: the fastest repeat of each cell is four times steadier from
    # run to run than the median (measured), so that is what is summed.
    host_seconds = sum(min(times[c.name]) for c in timed)
    end_to_end: dict[str, Metric] = {
        "host_records_per_s": {
            "value": records / host_seconds, "unit": "records/s",
            "per_rep": summary(per_rep), "records": records},
        "host_peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "failed_share": {"value": len(failed) / len(workload.cells), "unit": "share"},
    }
    end_to_end.update(simulated_metrics(workload, results))
    section: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "reps": len(passes),
        "attempted": len(workload.cells),
        "failed": len(failed),
        "failures": failed,
        "end_to_end": end_to_end,
        "cells": [
            {
                "cell": c.name,
                "records": results[c.name].records,
                "host_s": summary(times[c.name]) if c.name in times else None,
                "sim_job_s": results[c.name].job_seconds,
                "digest": results[c.name].digest,
            }
            for c in workload.cells
        ],
    }
    if workload.name == "open_loop":
        section["open_loop"] = {
            "loop": "open, in simulated time: arrival = count / rate",
            "generator_lateness_s": 0.0,
            "rates": sorted({c.rate for c in timed}),
            "seconds_of_input": wl.OPEN_LOOP_DURATION * scale,
        }
    return section
