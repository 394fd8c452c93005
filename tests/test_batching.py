"""Batched hot path: equivalence, boundary placement, and atomicity.

The batch API's contract (DESIGN.md, Batched hot path) has three legs:

1. **Charge parity** — a job run with any ``max_batch_records`` produces
   the same sink outputs, the same per-category simulated CPU ledger,
   and the same counters as the per-tuple run.  Batching buys real
   wall-clock time only.
2. **Boundary invariance** — batch boundaries are an artifact of the
   ingest loop (record limit, watermark splits) and must
   never show through: a watermark due mid-batch flushes the partial
   batch first so timer firing order is identical.
3. **Write-batch atomicity** — ``write_batch()`` stages ops and commits
   them in one store call: nothing reaches the store before commit, an
   abandoned batch applies nothing, and a torn or failed device write
   during commit can never leave a partial prefix of the batch applied.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import memory_backend
from repro.bench.harness import output_digest, run_query
from repro.bench.profiles import TINY_PROFILE
from repro.engine import StreamEnvironment, TumblingWindowAssigner
from repro.engine.functions import CountAggregate, MaxProcessFunction
from repro.engine.operators import WindowOperator
from repro.errors import DiskIOError, PlanError, StoreError
from repro.faults import CRASH_RUNTIME_RECORD, FaultPlan
from repro.kvstores.hashkv import FasterConfig, FasterStore
from repro.kvstores.lsm import LsmConfig, LsmStore
from repro.simenv import SimEnv
from repro.storage import SimFileSystem

FAULT_SEED = int(os.environ.get("FAULT_SEED", "7"))

# The tiny profile's heap deliberately OOMs the naive in-heap backend on
# several queries; equivalence needs every cell to finish.
PROFILE = replace(TINY_PROFILE, heap_total_bytes=16 << 20)
WINDOW = TINY_PROFILE.window_sizes[0]
BACKENDS = ("memory", "flowkv", "rocksdb", "faster")
BATCH_SIZES = (7, 64, 10**9)


def fingerprint(record):
    """Everything that must not move when only the batch size changes.

    ``job_seconds`` is deliberately excluded: it is a single float
    accumulator, so regrouping per-record charges may drift it by FP
    ulps.  The per-category ledger and counters are exact sums per
    category and must match bit-for-bit.
    """
    assert record.ok, record.failure
    return (
        record.output_hash,
        record.results,
        dict(record.metrics.cpu_seconds),
        dict(record.metrics.counters),
    )


_BASELINES: dict[tuple[str, str], tuple] = {}


def per_tuple_baseline(query: str, backend: str) -> tuple:
    key = (query, backend)
    if key not in _BASELINES:
        _BASELINES[key] = fingerprint(run_query(PROFILE, query, backend, WINDOW))
    return _BASELINES[key]


class TestCrossBackendEquivalence:
    """Leg 1: digest- and ledger-equal at every batch size, every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("query", ("q7", "q11"))
    def test_batched_run_matches_per_tuple(self, query, backend, batch):
        batched = run_query(PROFILE, query, backend, WINDOW, batch_records=batch)
        assert fingerprint(batched) == per_tuple_baseline(query, backend)

    @pytest.mark.parametrize(
        "query",
        ("q7-session", "q11-median", "q12", "q6-count", "q8-interval", "q5", "q1", "q2"),
    )
    def test_every_operator_shape_agrees(self, query):
        # Session merge, non-associative process, global window, count
        # trigger, interval join, two-stage pipeline: each exercises a
        # different operator batching rule (deferral vs per-record loop).
        # The stateless q1 (map) and q2 (filter + map) run only the
        # compiled stateless routes and the sink.
        batched = run_query(PROFILE, query, "flowkv", WINDOW, batch_records=64)
        assert fingerprint(batched) == per_tuple_baseline(query, "flowkv")

    def test_latency_mode_ignores_batch_knob(self):
        # Open-loop (arrival_rate) runs are per-tuple by contract: the
        # batch knob must be inert, including on the latency percentiles.
        kwargs = dict(
            arrival_rate=10.0,
            events_per_second=10.0,
            duration=PROFILE.latency_duration,
        )
        base = run_query(PROFILE, "q7", "flowkv", PROFILE.latency_window, **kwargs)
        batched = run_query(
            PROFILE, "q7", "flowkv", PROFILE.latency_window,
            batch_records=64, **kwargs,
        )
        assert fingerprint(batched) == fingerprint(base)
        assert batched.p95_latency == base.p95_latency

    def test_batch_knob_is_validated(self):
        with pytest.raises(PlanError):
            StreamEnvironment(max_batch_records=0)


# ----------------------------------------------------------------------
# Leg 2: boundary invariance
# ----------------------------------------------------------------------
def _two_stage_plan(batch: int) -> StreamEnvironment:
    env = StreamEnvironment(
        parallelism=2, backend_factory=memory_backend(), max_batch_records=batch
    )
    source = env.from_source([((f"k{i % 7}", i), float(i)) for i in range(80)])
    keyed = source.key_by(lambda v: v[0].encode())
    keyed.window(TumblingWindowAssigner(8.0)).aggregate(CountAggregate()).sink("counts")
    keyed.window(TumblingWindowAssigner(8.0)).process(
        MaxProcessFunction(extract=lambda v: v[1])
    ).sink("maxes")
    return env


def _result_fingerprint(result) -> tuple:
    return (
        output_digest(result.sink_outputs),
        dict(result.metrics.cpu_seconds),
        dict(result.metrics.counters),
    )


_PROP_BASELINES: dict[int, tuple] = {}


class TestBatchBoundaryPlacement:
    @given(
        batch=st.integers(min_value=2, max_value=41),
        interval=st.integers(min_value=3, max_value=17),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_boundary_placement_is_equivalent(self, batch, interval):
        # Record limit and watermark interval jointly place the batch
        # boundaries; none of the placements may show through.
        if interval not in _PROP_BASELINES:
            result = _two_stage_plan(1).execute(watermark_interval=interval)
            _PROP_BASELINES[interval] = _result_fingerprint(result)
        batched = _two_stage_plan(batch).execute(
            watermark_interval=interval
        )
        assert _result_fingerprint(batched) == _PROP_BASELINES[interval]


class TestWatermarkMidBatch:
    """Satellite bugfix pin: a watermark due mid-batch flushes the
    partial batch *before* broadcasting, so every operator has seen
    exactly the same records at every watermark as in per-tuple mode."""

    @staticmethod
    def _instrument(monkeypatch, events: list) -> None:
        orig_batch = WindowOperator.process_batch
        orig_watermark = WindowOperator.on_watermark

        def process_batch(self, records):
            # process() is a batch of one, so this counts every record once.
            self._test_seen = getattr(self, "_test_seen", 0) + len(records)
            orig_batch(self, records)

        def on_watermark(self, watermark):
            events.append((round(watermark, 9), getattr(self, "_test_seen", 0)))
            orig_watermark(self, watermark)

        monkeypatch.setattr(WindowOperator, "process_batch", process_batch)
        monkeypatch.setattr(WindowOperator, "on_watermark", on_watermark)

    @staticmethod
    def _plan(batch: int) -> StreamEnvironment:
        env = StreamEnvironment(
            parallelism=2, backend_factory=memory_backend(), max_batch_records=batch
        )
        (
            env.from_source([((f"k{i % 5}", i), float(i)) for i in range(120)])
            .key_by(lambda v: v[0].encode())
            .window(TumblingWindowAssigner(10.0))
            .process(MaxProcessFunction(extract=lambda v: v[1]))
            .sink("out")
        )
        return env

    def test_partial_batch_flushes_before_watermark(self, monkeypatch):
        events: list = []
        self._instrument(monkeypatch, events)

        # Interval 7 never divides batch 50: every watermark lands
        # mid-batch.  Timer firing order is pinned by the (watermark,
        # records-seen-so-far) trace per physical instance.
        per_tuple = self._plan(1).execute(watermark_interval=7)
        trace = list(events)
        events.clear()
        batched = self._plan(50).execute(watermark_interval=7)

        assert trace  # the instrumentation actually fired
        assert events == trace
        assert output_digest(batched.sink_outputs) == output_digest(
            per_tuple.sink_outputs
        )

        # Explicitly: at the first watermark the two instances together
        # had already seen all 7 ingested records, not 0 of them.
        first_wm = trace[0][0]
        first = [seen for wm, seen in trace if wm == first_wm]
        assert sum(first) == 7


# ----------------------------------------------------------------------
# Leg 3: write-batch atomicity
# ----------------------------------------------------------------------
LSM_SMALL = LsmConfig(
    write_buffer_bytes=512,
    block_bytes=256,
    block_cache_bytes=4096,
    l0_compaction_trigger=3,
    level1_bytes=8192,
    max_file_bytes=4096,
)
FASTER_SMALL = FasterConfig(memory_log_bytes=4096, spill_chunk_bytes=1024)
KEYS = [f"k{i:02d}".encode() for i in range(12)]
VALUE = b"v" * 48  # 12 * ~64 B records >> the 512 B write buffer


def faulty(plan: FaultPlan) -> tuple[SimEnv, SimFileSystem]:
    env = SimEnv(faults=plan.build())
    return env, SimFileSystem(env)


class TestWriteBatchAtomicity:
    def test_nothing_reaches_device_before_commit(self, env, fs):
        # The staged ops exceed the write buffer many times over, yet no
        # flush may happen until commit hands them over in one call.
        store = LsmStore(env, fs, "lsm", LSM_SMALL)
        batch = store.write_batch()
        for key in KEYS:
            batch.put(key, VALUE)
        assert fs.list_files() == []
        assert [store.get(k) for k in KEYS] == [None] * len(KEYS)
        batch.commit()
        assert fs.list_files() != []
        assert [store.get(k) for k in KEYS] == [VALUE] * len(KEYS)

    def test_abandoned_batch_applies_nothing(self, env, fs):
        store = LsmStore(env, fs, "lsm", LSM_SMALL)
        with pytest.raises(RuntimeError, match="abandon"):
            with store.write_batch() as batch:
                for key in KEYS:
                    batch.put(key, VALUE)
                raise RuntimeError("abandon")
        assert [store.get(k) for k in KEYS] == [None] * len(KEYS)
        assert fs.list_files() == []

    def test_failed_commit_flush_keeps_whole_batch_readable(self):
        # DiskIOError during the commit-time flush: the flush aborts but
        # every op had already been staged in the memtable — the batch
        # stays whole, nothing half-applied, nothing on disk.
        env, fs = faulty(FaultPlan(seed=FAULT_SEED).fail_io(op="write", on_io=1, times=99))
        store = LsmStore(env, fs, "lsm", LSM_SMALL)
        with pytest.raises(DiskIOError):
            with store.write_batch() as batch:
                for key in KEYS:
                    batch.put(key, VALUE)
        assert [store.get(k) for k in KEYS] == [VALUE] * len(KEYS)
        assert fs.list_files() == []

    def test_torn_commit_flush_cannot_half_apply(self):
        # A torn write truncates the SSTable silently at device level;
        # the store detects it when it re-opens the table at flush time.
        # Either way the batch never splits: all ops remain readable.
        env, fs = faulty(FaultPlan(seed=3).torn_write(on_io=1))
        store = LsmStore(env, fs, "lsm", LSM_SMALL)
        with pytest.raises(StoreError):
            with store.write_batch() as batch:
                for key in KEYS:
                    batch.put(key, VALUE)
        assert [store.get(k) for k in KEYS] == [VALUE] * len(KEYS)

    def test_faster_batch_commits_whole_in_mutable_tail(self, env, fs):
        # FasterStore's staged commit: new records land in the mutable
        # tail, which is never spilled, so a mid-commit head spill can
        # only evict *older* records — the batch itself stays whole.
        store = FasterStore(env, fs, "f", FASTER_SMALL)
        for i in range(64):  # pre-fill so the head region has spill fodder
            store.put(f"old{i:03d}".encode(), b"x" * 32)
        batch = store.write_batch()
        for key in KEYS:
            batch.put(key, VALUE)
        assert [store.get(k) for k in KEYS] == [None] * len(KEYS)
        batch.commit()
        assert [store.get(k) for k in KEYS] == [VALUE] * len(KEYS)

    def test_mixed_ops_apply_in_order(self, env, fs):
        store = LsmStore(env, fs, "lsm", LSM_SMALL)
        store.put(b"gone", b"soon")
        with store.write_batch() as batch:
            batch.put(b"a", b"1")
            batch.append(b"list", b"x")
            batch.append(b"list", b"y")
            batch.delete(b"gone")
            batch.put(b"a", b"2")  # later op in the same batch wins
        assert store.get(b"a") == b"2"
        assert store.get(b"gone") is None
        assert store.get(b"list") is not None


class TestBatchedPathUnderFaults:
    """The CI fault matrix holds with batching on: crash + restore and
    disk faults replay to the same outputs as the per-tuple path."""

    def test_crash_recovery_with_batched_ingest(self):
        base = per_tuple_baseline("q11-median", "flowkv")
        plan = FaultPlan(seed=FAULT_SEED).crash(CRASH_RUNTIME_RECORD, on_hit=700)
        crashed = run_query(
            PROFILE, "q11-median", "flowkv", WINDOW,
            fault_plan=plan, checkpoint_interval=300, batch_records=64,
        )
        assert crashed.ok
        assert [e.kind for e in crashed.recoveries] == ["crash", "restore"]
        assert crashed.output_hash == base[0]
        assert crashed.results == base[1]

    def test_disk_faults_hit_batched_and_per_tuple_runs_identically(self):
        # Batching buffers records in memory only — it must not reorder
        # device I/O, so the same fault plan fires at the same ios and
        # both runs converge to the same outputs and ledger.
        def plan():
            return (
                FaultPlan(seed=FAULT_SEED)
                .torn_write(on_io=40, path_prefix="chk/")
                .fail_io(op="write", on_io=80, times=2)
            )

        per_tuple = run_query(
            PROFILE, "q11-median", "flowkv", WINDOW,
            fault_plan=plan(), checkpoint_interval=300,
        )
        batched = run_query(
            PROFILE, "q11-median", "flowkv", WINDOW,
            fault_plan=plan(), checkpoint_interval=300, batch_records=64,
        )
        assert fingerprint(batched) == fingerprint(per_tuple)
