"""Per-layer metrics: a profiled pass folded by module, plus the simulated ledger.

Layers are this repo's modules.  Host attribution comes from ``cProfile``
around an unmodified run (spans inside the program are a later change);
simulated attribution comes from the program's own ledger and counters,
which repeat exactly.  End-to-end numbers never come from here: the
profiler multiplies the cost of every Python call.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import statistics
import time
from typing import Any

import workloads as wl
from measure import HERE, Metric, run_pass

TRACE_FRACTION = 0.25

LAYERS = (
    "nexmark", "engine", "model", "core.aar", "core.aur", "core.rmw", "core.composite",
    "kvstores.api", "kvstores.lsm", "kvstores.hashkv", "kvstores.memory", "storage", "serde",
    "simenv", "prefetch", "rescale", "recovery", "changelog", "cluster", "bench", "other",
)

# Source path (relative to the ``repro`` package) -> layer; first match wins.
_PATHS = (
    ("nexmark/serde.py", "serde"),
    ("nexmark/", "nexmark"),
    # GenericKVBackend, the WindowStateBackend over a KVStore: store glue, and
    # the direct drives run it with no engine present.
    ("engine/state.py", "kvstores.api"),
    ("engine/", "engine"),
    ("model.py", "model"),
    ("core/aar.py", "core.aar"),
    ("core/aur.py", "core.aur"),
    ("core/ett.py", "core.aur"),
    ("core/rmw.py", "core.rmw"),
    ("core/", "core.composite"),
    ("kvstores/lsm/", "kvstores.lsm"),
    ("kvstores/hashkv/", "kvstores.hashkv"),
    ("kvstores/memory.py", "kvstores.memory"),
    ("kvstores/", "kvstores.api"),
    ("backends.py", "kvstores.api"),
    ("errors.py", "kvstores.api"),
    ("storage/", "storage"),
    ("serde/", "serde"),
    ("simenv/", "simenv"),
    ("prefetch/", "prefetch"),
    ("rescale/", "rescale"),
    ("recovery.py", "recovery"),
    ("snapshot.py", "recovery"),
    ("faults.py", "recovery"),
    ("changelog/", "changelog"),
    ("cluster/", "cluster"),
    ("bench/", "bench"),
)

# The four stores a direct drive reaches, by the backend that wraps them.
DIRECT_STORES = {"flowkv": "core", "rocksdb": "kvstores.lsm", "faster": "kvstores.hashkv",
                 "memory": "kvstores.memory"}

FuncKey = tuple[str, int, str]


class Folder:
    """Folds ``pstats`` rows into layers.

    Time spent in C builtins and the standard library is the caller's:
    each such function's self time goes to the ``repro`` module that
    called it, through the caller edges (transitively, weighted by the
    cumulative time of each edge).  What no ``repro`` module called goes
    to ``other``.
    """

    def __init__(self, stats: dict[FuncKey, tuple], source_root: str) -> None:
        self.stats = stats
        self.root = source_root.rstrip(os.sep) + os.sep
        self._owners: dict[FuncKey, dict[str, float]] = {}

    def layer_of(self, func: FuncKey) -> str | None:
        path = func[0]
        if path.startswith(self.root):
            relative = path[len(self.root):].replace(os.sep, "/")
            for prefix, layer in _PATHS:
                if relative.startswith(prefix):
                    return layer
            return "other"
        if path.startswith(HERE + os.sep):
            return "bench"
        return None

    def owners(self, func: FuncKey, stack: tuple[FuncKey, ...] = ()) -> dict[str, float]:
        """Shares of the layers that (transitively) called a foreign function."""
        known = self._owners.get(func)
        if known is not None:
            return known
        weights: dict[str, float] = {}
        callers = self.stats[func][4] if func in self.stats else {}
        for caller, (_cc, _nc, edge_tt, edge_ct) in callers.items():
            weight = edge_ct or edge_tt
            layer = self.layer_of(caller)
            if layer is not None:
                weights[layer] = weights.get(layer, 0.0) + weight
            elif caller not in stack:
                for name, share in self.owners(caller, stack + (func,)).items():
                    weights[name] = weights.get(name, 0.0) + weight * share
        total = sum(weights.values())
        shares = {k: v / total for k, v in weights.items()} if total > 0 else {"other": 1.0}
        if not stack:  # a result computed inside a cycle is partial: do not keep it
            self._owners[func] = shares
        return shares

    def fold(self) -> tuple[dict[str, float], dict[str, int], float]:
        """``(self seconds per layer, calls per layer, total seconds)``."""
        seconds = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for func, (_cc, nc, tt, _ct, callers) in self.stats.items():
            layer = self.layer_of(func)
            if layer is not None:
                seconds[layer] += tt
                calls[layer] += nc
                continue
            left = tt
            for caller, (_ecc, _enc, edge_tt, _ect) in callers.items():
                caller_layer = self.layer_of(caller)
                shares = {caller_layer: 1.0} if caller_layer is not None else self.owners(caller)
                for name, share in shares.items():
                    seconds[name] += edge_tt * share
                left -= edge_tt
            seconds["other"] += max(left, 0.0)
        return seconds, calls, sum(row[2] for row in self.stats.values())

    def boundary_seconds(self, boundary: set[FuncKey]) -> float:
        """Cumulative time in store-boundary functions entered from the engine."""
        total = 0.0
        for func in boundary & self.stats.keys():
            for caller, (_cc, _nc, _tt, edge_ct) in self.stats[func][4].items():
                if caller not in boundary and self.layer_of(caller) == "engine":
                    total += edge_ct
        return total

    def hot_spots(self, count: int = 5) -> list[dict[str, Any]]:
        rows = sorted(self.stats.items(), key=lambda item: item[1][2], reverse=True)[:count]
        return [
            {
                "function": f"{f[0][len(self.root):] if f[0].startswith(self.root) else os.path.basename(f[0])}"
                            f":{f[1]}:{f[2]}",
                "layer": self.layer_of(f) or "builtin/stdlib",
                "self_s": row[2],
                "calls": row[1],
            }
            for f, row in rows
        ]


def profiled_pass(adapter: Any, workload: wl.Workload, seed: int, scale: float) -> dict[str, Any]:
    """Run the timed cells once at a quarter length under one profiler."""
    profiler = cProfile.Profile()
    cells = [c for c in workload.cells if not c.reference]
    runs = [adapter.prepare(cell, seed, scale * TRACE_FRACTION) for cell in cells]
    first_traced = 0.0
    for index, run in enumerate(runs):
        gc.collect()
        start = time.perf_counter()
        profiler.enable()
        try:
            run()
        finally:
            profiler.disable()
        if index == 0:
            first_traced = time.perf_counter() - start
    plain = []
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        runs[0]()
        plain.append(time.perf_counter() - start)
    folder = Folder(pstats.Stats(profiler).stats, adapter.SOURCE_ROOT)
    seconds, calls, total = folder.fold()
    return {
        "seconds": seconds,
        "calls": calls,
        "total": total,
        "boundary": folder.boundary_seconds(adapter.store_boundary_functions()),
        "overhead": first_traced / statistics.median(plain),
        "hot_spots": folder.hot_spots(),
    }


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


def ledger_metrics(adapter: Any, workload: wl.Workload, results: dict[str, Any]) -> dict[str, Metric]:
    """Simulated ledger, counters and state-movement totals, summed over cells (exact)."""
    timed = [c for c in workload.cells if not c.reference]
    cells = [results[c.name] for c in timed]
    counters: dict[str, int] = {}
    for r in cells:
        for name, value in r.counters.items():
            counters[name] = counters.get(name, 0) + value

    def total(attr: str) -> float:
        return sum(getattr(r, attr) for r in cells)

    out: dict[str, Metric] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for category in adapter.CPU_CATEGORIES:
        put(f"simenv.sim_cpu_s.{category}", sum(r.cpu_seconds.get(category, 0.0) for r in cells), "s")
    put("simenv.sim_io_wait_s", total("io_wait_seconds"), "s")
    put("simenv.sim_prefetch_wait_s", total("prefetch_wait_seconds"), "s")
    put("storage.sim_bytes_read", total("bytes_read"), "bytes")
    put("storage.sim_bytes_written", total("bytes_written"), "bytes")
    put("storage.sim_read_requests", total("read_requests"), "count")
    put("storage.sim_write_requests", total("write_requests"), "count")
    put("storage.disk_bytes_end", total("disk_bytes"), "bytes")

    put("kvstores.lsm.compactions", counters.get("lsm_compactions", 0), "count")
    put("kvstores.lsm.cache_hit_ratio", _ratio(
        counters.get("lsm_cache_hits", 0),
        counters.get("lsm_cache_hits", 0) + counters.get("lsm_cache_misses", 0)), "ratio")
    put("kvstores.lsm.bloom_negative_ratio", _ratio(
        counters.get("lsm_bloom_negatives", 0), counters.get("lsm_bloom_checks", 0)), "ratio")
    put("kvstores.hashkv.compactions", counters.get("faster_compactions", 0), "count")
    put("core.aur.index_scans", counters.get("aur_index_scans", 0), "count")
    put("core.aur.compactions", counters.get("aur_compactions", 0), "count")
    put("core.aur.prefetch_hit_ratio", _ratio(total("prefetch_hits"), total("prefetch_loads")), "ratio")
    put("core.rmw.compactions", counters.get("rmw_compactions", 0), "count")

    engine_cells = [results[c.name] for c in timed if c.kind != "store"]
    put("engine.records_in", sum(r.records for r in engine_cells), "count")
    put("engine.results_out", sum(r.results for r in engine_cells), "count")
    put("engine.state_memory_bytes", total("memory_bytes"), "bytes")
    skews = [max(r.instance_busy) / (sum(r.instance_busy) / len(r.instance_busy))
             for r in engine_cells if r.instance_busy and sum(r.instance_busy) > 0]
    put("engine.instance_busy_skew", sum(skews) / len(skews) if skews else 0.0, "ratio")

    put("recovery.checkpoints", total("checkpoints"), "count")
    put("recovery.checkpoint_bytes", total("checkpoint_bytes"), "bytes")
    put("recovery.sim_restore_ms", 1e3 * sum(
        s for r in cells for kind, s in r.recoveries if kind == "restore"), "ms")
    put("recovery.retries", counters.get("retries", 0), "count")
    rescales = [event for r in cells for event in r.rescales]
    put("rescale.moved_groups", sum(e["moved_groups"] for e in rescales), "count")
    put("rescale.bytes_moved", sum(e["bytes_moved"] for e in rescales), "bytes")
    put("rescale.buffered_records", sum(e["buffered_records"] for e in rescales), "count")
    put("changelog.sim_promote_ms", 1e3 * sum(
        s for r in cells for kind, s in r.recoveries if kind == "promote"), "ms")
    put("cluster.net_bytes", total("net_bytes"), "bytes")
    return out


def store_drive_metrics(workload: wl.Workload, results: dict[str, Any],
                        times: dict[str, list[float]]) -> dict[str, Metric]:
    """Both clocks of each store cell of the direct-drive workload (one pass)."""
    out: dict[str, Metric] = {}
    for cell in workload.cells:
        if cell.kind != "store":
            continue
        result = results[cell.name]
        prefix = f"{DIRECT_STORES[cell.backend]}.direct_{cell.target}"
        out[f"{prefix}_host_ops_per_s"] = {
            "value": result.records / times[cell.name][0], "unit": "ops/s"}
        out[f"{prefix}_sim_ops_per_s"] = {
            "value": result.records / result.job_seconds if result.job_seconds else 0.0, "unit": "ops/s"}
    return out


def trace(adapter: Any, workload: wl.Workload, seed: int, scale: float) -> dict[str, Any]:
    """All per-layer metrics of one workload, with the results they came from.

    One untraced full-length pass gives the simulated numbers (equal to
    those of the untraced run), one profiled quarter-length pass gives
    the host attribution.
    """
    times: dict[str, list[float]] = {}
    results = run_pass(adapter, list(workload.cells), seed, scale, times)
    profile = profiled_pass(adapter, workload, seed, scale)
    out: dict[str, Metric] = {}
    for layer in LAYERS:
        out[f"{layer}.host_self_share"] = {
            "value": profile["seconds"][layer] / profile["total"], "unit": "share"}
        out[f"{layer}.calls"] = {"value": profile["calls"][layer], "unit": "count"}
    out.update(ledger_metrics(adapter, workload, results))
    out["engine.store_boundary_share"] = {
        "value": profile["boundary"] / profile["total"], "unit": "share"}
    out["bench.trace_overhead_ratio"] = {"value": profile["overhead"], "unit": "ratio"}
    if any(cell.kind == "store" for cell in workload.cells):
        out.update(store_drive_metrics(workload, results, times))
        for name, (value, unit) in adapter.direct_drives(seed).items():
            out[name] = {"value": value, "unit": unit}
    return {"metrics": out, "results": results, "hot_spots": profile["hot_spots"]}
