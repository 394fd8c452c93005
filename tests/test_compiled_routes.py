"""Compiled record routes: every node kind, every batch size, no cycles.

The executor compiles each logical node once per run into a per-record
and a batch route (DESIGN.md, "Compiled record routes").  Two contracts
are pinned here:

* **Route coverage** — one plan exercising every node kind (two merged
  sources, map, filter, flat_map, key_by, union, window, interval join,
  two sinks) on a 2-node cluster, so shuffle charges apply, produces the
  same sink outputs and the same per-category ledger at batch 1, 7 and
  "infinite".
* **No cycles** — the route tables live only while ``run()`` does: with
  the cyclic garbage collector off, every :class:`Executor` a job built
  is freed by reference counting once the job returns.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.backends import memory_backend
from repro.bench.harness import output_digest, run_query
from repro.bench.profiles import TINY_PROFILE
from repro.cluster import ClusterTopology
from repro.engine import StreamEnvironment, TumblingWindowAssigner
from repro.engine.functions import CountAggregate
from repro.engine.runtime import Executor
from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan

PROFILE = replace(TINY_PROFILE, heap_total_bytes=16 << 20)
WINDOW = TINY_PROFILE.window_sizes[0]


def _every_kind_plan(batch: int) -> StreamEnvironment:
    env = StreamEnvironment(
        parallelism=2, backend_factory=memory_backend(), max_batch_records=batch,
        cluster=ClusterTopology.uniform(2),
    )
    # Interleaved timestamps: the two sources alternate through the
    # heap merge, so every batched flush holds many one-record runs.
    evens = env.from_source(
        [((f"k{i % 5}", i), float(i)) for i in range(0, 240, 2)], name="evens"
    )
    odds = env.from_source(
        [((f"k{i % 7}", i), float(i)) for i in range(1, 240, 2)], name="odds"
    )
    doubled = evens.map(lambda v: (v[0], 2 * v[1]), name="double")
    split = odds.filter(lambda v: v[1] % 3 != 0, name="not_thirds").flat_map(
        lambda v: [v, (v[0], v[1] + 1000)] if v[1] % 2 else [v], name="split"
    )

    def by_name(v):
        return v[0].encode()

    (
        doubled.union(split, name="both")
        .key_by(by_name, name="by_name")
        .window(TumblingWindowAssigner(20.0))
        .aggregate(CountAggregate(), name="count_per_name", with_window=True)
        .sink("counts")
    )
    doubled.key_by(by_name, name="left_key").interval_join(
        split.key_by(by_name, name="right_key"), -6.0, 6.0,
        lambda a, b: (a[0], a[1], b[1]), name="join",
    ).sink("pairs")
    return env


def _run_fingerprint(batch: int) -> tuple:
    result = _every_kind_plan(batch).execute(watermark_interval=16)
    assert result.failure is None
    assert all(result.sink_outputs[name] for name in ("counts", "pairs"))
    metrics = result.metrics
    return (
        output_digest(result.sink_outputs),
        sorted(result.latencies),
        dict(metrics.cpu_seconds),
        dict(metrics.counters),
        {name: dict(snap.cpu_seconds) for name, snap in result.per_operator.items()},
        # Batched units split their service time over groups, so only
        # the keyed record and byte counts are exact across batch sizes.
        {g: (v["records"], v["bytes"]) for g, v in result.group_load["groups"].items()},
    )


class TestRouteCoverage:
    def test_cross_node_shuffle_is_charged(self):
        result = _every_kind_plan(1).execute(watermark_interval=16)
        assert result.metrics.network_bytes > 0

    @pytest.mark.parametrize("batch", (7, 10**9))
    def test_every_node_kind_agrees_across_batch_sizes(self, batch):
        assert _run_fingerprint(batch) == _run_fingerprint(1)


def _executors_built(monkeypatch) -> list[weakref.ref]:
    """Record a weak reference to every Executor constructed from now on."""
    refs: list[weakref.ref] = []
    original = Executor.__init__

    def tracking_init(self, plan_env):
        original(self, plan_env)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Executor, "__init__", tracking_init)
    return refs


def _assert_freed_without_gc(monkeypatch, run) -> None:
    refs = _executors_built(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        record = run()
        assert record.ok, record.failure
        assert refs
        alive = [ref for ref in refs if ref() is not None]
        assert not alive, f"{len(alive)} of {len(refs)} executors still referenced"
    finally:
        gc.enable()


class TestNoExecutorCycles:
    @pytest.mark.parametrize("batch", (1, 64))
    @pytest.mark.parametrize("query", ("q8-interval", "q1", "q7"))
    def test_executor_freed_once_the_job_returns(self, monkeypatch, query, batch):
        _assert_freed_without_gc(
            monkeypatch,
            lambda: run_query(PROFILE, query, "memory", WINDOW, batch_records=batch),
        )

    def test_executor_freed_after_crash_and_restore(self, monkeypatch):
        def crashed_run():
            record = run_query(
                PROFILE, "q11-median", "flowkv", WINDOW,
                fault_plan=FaultPlan(seed=7).crash(CRASH_RUNTIME_RECORD, on_hit=700),
                checkpoint_interval=300,
            )
            assert [event.kind for event in record.recoveries] == ["crash", "restore"]
            return record

        _assert_freed_without_gc(monkeypatch, crashed_run)
