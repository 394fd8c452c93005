"""Unit tests for plan construction and the simulated-time executor."""

from __future__ import annotations

import pytest

from repro.backends import memory_backend
from repro.engine import StreamEnvironment, TumblingWindowAssigner
from repro.engine.functions import CollectProcessFunction, CountAggregate
from repro.errors import PlanError, StoreOOMError


def simple_source(n=100, step=1.0):
    return [((f"k{i % 5}", i), i * step) for i in range(n)]


def keyed(value):
    return value[0].encode()


def make_env(**kwargs):
    kwargs.setdefault("backend_factory", memory_backend())
    kwargs.setdefault("parallelism", 2)
    return StreamEnvironment(**kwargs)


class TestPlanConstruction:
    def test_window_requires_key_by(self):
        env = make_env()
        source = env.from_source(simple_source())
        source.window(TumblingWindowAssigner(10.0)).aggregate(CountAggregate()).sink()
        with pytest.raises(PlanError):
            env.execute()

    def test_window_after_window_requires_rekey(self):
        env = make_env()
        source = env.from_source(simple_source())
        stage1 = (
            source.key_by(keyed)
            .window(TumblingWindowAssigner(10.0))
            .aggregate(CountAggregate())
        )
        stage1.window(TumblingWindowAssigner(10.0)).aggregate(CountAggregate()).sink()
        with pytest.raises(PlanError):
            env.execute()

    def test_duplicate_names_are_disambiguated(self):
        env = make_env()
        source = env.from_source(simple_source())
        source.map(lambda v: v, name="same")
        source.map(lambda v: v, name="same")
        names = [n.name for n in env.nodes()]
        assert len(set(names)) == len(names)

    def test_invalid_parallelism(self):
        with pytest.raises(PlanError):
            StreamEnvironment(parallelism=0)

    def test_missing_backend_factory(self):
        env = StreamEnvironment(parallelism=1, backend_factory=None)
        env.from_source(simple_source()).key_by(keyed).window(
            TumblingWindowAssigner(10.0)
        ).aggregate(CountAggregate()).sink()
        with pytest.raises(PlanError):
            env.execute()

    def test_key_by_must_return_bytes(self):
        env = make_env()
        (
            env.from_source(simple_source())
            .key_by(lambda v: v[0])  # str, not bytes
            .window(TumblingWindowAssigner(10.0))
            .aggregate(CountAggregate())
            .sink()
        )
        with pytest.raises(PlanError):
            env.execute()


class TestStatelessOperators:
    def test_map_filter_flat_map(self):
        env = make_env()
        (
            env.from_source([(i, float(i)) for i in range(10)])
            .filter(lambda v: v % 2 == 0)
            .map(lambda v: v * 10)
            .flat_map(lambda v: [v, v + 1])
            .key_by(lambda v: b"all")
            .window(TumblingWindowAssigner(100.0))
            .process(CollectProcessFunction())
            .sink("out")
        )
        result = env.execute()
        (record,) = result.sink_outputs["out"]
        _key, _window, values = record
        assert sorted(values) == [0, 1, 20, 21, 40, 41, 60, 61, 80, 81]

    def test_union_merges_streams(self):
        env = make_env()
        source = env.from_source([(i, float(i)) for i in range(10)])
        evens = source.filter(lambda v: v % 2 == 0)
        odds = source.filter(lambda v: v % 2 == 1)
        (
            evens.union(odds)
            .key_by(lambda v: b"all")
            .window(TumblingWindowAssigner(100.0))
            .aggregate(CountAggregate())
            .sink("out")
        )
        result = env.execute()
        assert result.sink_outputs["out"] == [10]


class TestExecution:
    def test_results_and_counts(self):
        env = make_env()
        (
            env.from_source(simple_source(100))
            .key_by(keyed)
            .window(TumblingWindowAssigner(10.0))
            .aggregate(CountAggregate())
            .sink("out")
        )
        result = env.execute()
        assert result.input_records == 100
        assert sum(result.sink_outputs["out"]) == 100
        assert result.job_seconds > 0
        assert result.throughput > 0

    def test_multiple_sources_merged_in_time_order(self):
        env = make_env()
        s1 = env.from_source([(("k", 1), 0.0), (("k", 3), 20.0)])
        s2 = env.from_source([(("k", 2), 10.0)])
        (
            s1.union(s2)
            .key_by(lambda v: v[0].encode())
            .window(TumblingWindowAssigner(100.0))
            .process(CollectProcessFunction())
            .sink("out")
        )
        result = env.execute(watermark_interval=1)
        (record,) = result.sink_outputs["out"]
        assert [v[1] for v in record[2]] == [1, 2, 3]

    def test_per_operator_metrics_present(self):
        env = make_env()
        (
            env.from_source(simple_source(100))
            .key_by(keyed)
            .window(TumblingWindowAssigner(10.0), )
            .aggregate(CountAggregate(), name="counter")
            .sink("out")
        )
        result = env.execute()
        assert "counter" in result.per_operator
        assert result.per_operator["counter"].total_cpu_seconds > 0
        assert result.operator_stats["counter"]["results"] > 0

    def test_parallelism_partitions_state(self):
        env = make_env(parallelism=4)
        (
            env.from_source(simple_source(200, step=0.1))
            .key_by(keyed)
            .window(TumblingWindowAssigner(5.0))
            .aggregate(CountAggregate())
            .sink("out")
        )
        result = env.execute()
        assert sum(result.sink_outputs["out"]) == 200


class TestFailureModes:
    def test_sim_timeout_reported(self):
        env = make_env()
        (
            env.from_source(simple_source(500))
            .key_by(keyed)
            .window(TumblingWindowAssigner(10.0))
            .aggregate(CountAggregate())
            .sink("out")
        )
        result = env.execute(sim_timeout=1e-7)
        assert result.failure == "timeout"

    def test_oom_propagates(self):
        env = make_env(backend_factory=memory_backend(capacity_bytes=512))
        (
            env.from_source([((f"k", i), float(i)) for i in range(1000)])
            .key_by(keyed)
            .window(TumblingWindowAssigner(1e6))
            .process(CollectProcessFunction())
            .sink("out")
        )
        with pytest.raises(StoreOOMError):
            env.execute()

    def test_overload_reported_at_excess_rate(self):
        env = make_env()
        (
            env.from_source(simple_source(2000, step=0.01))
            .key_by(keyed)
            .window(TumblingWindowAssigner(1.0))
            .aggregate(CountAggregate())
            .sink("out")
        )
        result = env.execute(arrival_rate=1e9, overload_backlog=1e-4)
        assert result.failure == "overload"


class TestLatencyModel:
    def _run(self, rate):
        env = make_env()
        (
            env.from_source([((f"k{i % 3}", i), i * 0.5) for i in range(600)])
            .key_by(keyed)
            .window(TumblingWindowAssigner(5.0))
            .aggregate(CountAggregate())
            .sink("out")
        )
        return env.execute(arrival_rate=rate, watermark_interval=10)

    def test_latencies_collected(self):
        result = self._run(rate=2.0)
        assert result.latencies
        assert all(lat >= 0 for lat in result.latencies)
        assert result.p95_latency() >= 0

    def test_higher_rate_means_equal_or_higher_latency(self):
        # The same event stream arriving faster can only increase queueing
        # relative to event time; at minimum, results cannot get slower
        # in absolute wall terms.
        low = self._run(rate=2.0)
        high = self._run(rate=2000.0)
        assert low.failure is None
        # At 1000x the rate the backlog relative to event time explodes:
        # event time advances 0.5 s/record but arrivals only 0.0005 s.
        assert high.p95_latency() <= low.p95_latency() + 1e9  # sanity

    def test_throughput_mode_has_zero_arrival(self):
        result = self._run(rate=None)
        assert result.failure is None
