"""Unit tests for the window operator: triggers, sessions, count windows."""

from __future__ import annotations


from repro.engine.functions import CollectProcessFunction, CountAggregate
from repro.engine.operators import WindowOperator
from repro.engine.windows import (
    CountWindowAssigner,
    GlobalWindowAssigner,
    SessionWindowAssigner,
    SlidingWindowAssigner,
    TumblingWindowAssigner,
)
from repro.kvstores.memory import HeapWindowBackend
from repro.model import StreamRecord
from repro.simenv import SimEnv


def make_operator(assigner, function, with_window=False):
    env = SimEnv()
    backend = HeapWindowBackend(env, capacity_bytes=64 << 20)
    operator = WindowOperator(assigner=assigner, function=function,
                              with_window=with_window)
    outputs: list[StreamRecord] = []
    operator.open(env, backend, outputs.append)
    return operator, outputs


def feed(operator, key: bytes, value, ts: float):
    operator.process(StreamRecord(key, value, ts))


class TestAlignedAppendTriggers:
    def test_window_fires_once_watermark_passes_end(self):
        operator, outputs = make_operator(
            TumblingWindowAssigner(10.0), CollectProcessFunction()
        )
        feed(operator, b"a", 1, 3.0)
        feed(operator, b"a", 2, 7.0)
        operator.on_watermark(9.9)
        assert outputs == []
        operator.on_watermark(10.0)
        assert len(outputs) == 1
        key, window, values = outputs[0].value
        assert values == [1, 2]
        assert outputs[0].timestamp == 10.0

    def test_multiple_keys_fire_together(self):
        operator, outputs = make_operator(
            TumblingWindowAssigner(10.0), CollectProcessFunction()
        )
        for key in (b"a", b"b", b"c"):
            feed(operator, key, 1, 5.0)
        operator.on_watermark(10.0)
        assert sorted(record.value[0] for record in outputs) == [b"a", b"b", b"c"]

    def test_window_fires_only_once(self):
        operator, outputs = make_operator(
            TumblingWindowAssigner(10.0), CollectProcessFunction()
        )
        feed(operator, b"a", 1, 5.0)
        operator.on_watermark(10.0)
        operator.on_watermark(20.0)
        assert len(outputs) == 1

    def test_sliding_replicates(self):
        operator, outputs = make_operator(
            SlidingWindowAssigner(20.0, 10.0), CollectProcessFunction()
        )
        feed(operator, b"a", 1, 15.0)  # windows [0,20) and [10,30)
        operator.on_watermark(30.0)
        assert len(outputs) == 2
        windows = sorted(record.value[1] for record in outputs)
        assert windows[0].start == 0.0 and windows[1].start == 10.0


class TestAlignedIncrementalTriggers:
    def test_counts_per_key_per_window(self):
        operator, outputs = make_operator(TumblingWindowAssigner(10.0), CountAggregate())
        for ts in (1.0, 2.0, 3.0):
            feed(operator, b"a", "x", ts)
        feed(operator, b"b", "x", 4.0)
        feed(operator, b"a", "x", 12.0)  # next window
        operator.on_watermark(20.0)
        got = {(r.value, r.timestamp) for r in outputs}
        # a: 3 in first window, 1 in second; b: 1 in first.  Each result
        # is stamped with its window's end.
        assert got == {(3, 10.0), (1, 10.0), (1, 20.0)}
        counts = sorted(r.value for r in outputs)
        assert counts == [1, 1, 3]

    def test_with_window_wraps_output(self):
        operator, outputs = make_operator(
            TumblingWindowAssigner(10.0), CountAggregate(), with_window=True
        )
        feed(operator, b"a", "x", 1.0)
        operator.on_watermark(10.0)
        key, window, count = outputs[0].value
        assert key == b"a" and window.start == 0.0 and count == 1


class TestSessionWindows:
    def test_session_extends_until_gap(self):
        operator, outputs = make_operator(
            SessionWindowAssigner(5.0), CollectProcessFunction()
        )
        feed(operator, b"a", 1, 0.0)
        feed(operator, b"a", 2, 3.0)   # within gap: extends to 8.0
        feed(operator, b"a", 3, 7.0)   # extends to 12.0
        operator.on_watermark(11.9)
        assert outputs == []
        operator.on_watermark(12.0)
        assert len(outputs) == 1
        _key, window, values = outputs[0].value
        assert values == [1, 2, 3]
        assert window.start == 0.0 and window.end == 12.0

    def test_separate_sessions_after_gap(self):
        operator, outputs = make_operator(
            SessionWindowAssigner(5.0), CollectProcessFunction()
        )
        feed(operator, b"a", 1, 0.0)
        feed(operator, b"a", 2, 20.0)  # new session
        operator.on_watermark(100.0)
        assert len(outputs) == 2
        assert [r.value[2] for r in outputs] == [[1], [2]]

    def test_sessions_per_key_independent(self):
        operator, outputs = make_operator(SessionWindowAssigner(5.0), CountAggregate())
        feed(operator, b"a", 1, 0.0)
        feed(operator, b"b", 1, 2.0)
        feed(operator, b"a", 1, 4.0)
        operator.on_watermark(100.0)
        by_key = {r.key: r.value for r in outputs}
        assert by_key == {b"a": 2, b"b": 1}

    def test_stale_timer_after_extension_does_not_fire(self):
        operator, outputs = make_operator(
            SessionWindowAssigner(5.0), CollectProcessFunction()
        )
        feed(operator, b"a", 1, 0.0)   # timer armed at 5.0
        feed(operator, b"a", 2, 4.0)   # extended to 9.0
        operator.on_watermark(5.0)     # stale timer pops: must not fire
        assert outputs == []
        operator.on_watermark(9.0)
        assert len(outputs) == 1
        assert outputs[0].value[2] == [1, 2]

    def test_bridging_tuple_merges_sessions(self):
        operator, outputs = make_operator(
            SessionWindowAssigner(5.0), CollectProcessFunction()
        )
        feed(operator, b"a", 1, 0.0)    # session [0, 5)
        feed(operator, b"a", 2, 8.0)    # session [8, 13)
        feed(operator, b"a", 3, 4.0)    # late tuple bridges both
        operator.on_watermark(100.0)
        assert len(outputs) == 1
        _key, window, values = outputs[0].value
        assert sorted(values) == [1, 2, 3]
        assert window.start == 0.0 and window.end == 13.0

    def test_session_incremental_merge_across_initials(self):
        operator, outputs = make_operator(SessionWindowAssigner(5.0), CountAggregate())
        feed(operator, b"a", 1, 0.0)
        feed(operator, b"a", 1, 8.0)
        feed(operator, b"a", 1, 4.0)  # bridges: accumulators must merge
        operator.on_watermark(100.0)
        assert len(outputs) == 1
        assert outputs[0].value == 3


class TestGlobalWindows:
    def test_fires_only_at_finish(self):
        operator, outputs = make_operator(GlobalWindowAssigner(), CountAggregate())
        for i in range(10):
            feed(operator, b"a", "x", float(i))
        operator.on_watermark(1e9)
        assert outputs == []
        operator.finish()
        assert len(outputs) == 1
        assert outputs[0].value == 10
        # Result timestamp clamped to observed event time, not +inf.
        assert outputs[0].timestamp == 9.0


class TestCountWindows:
    def test_fires_every_n_tuples(self):
        operator, outputs = make_operator(CountWindowAssigner(3), CountAggregate())
        for i in range(7):
            feed(operator, b"a", "x", float(i))
        assert [r.value for r in outputs] == [3, 3]
        operator.finish()

    def test_per_key_counters(self):
        operator, outputs = make_operator(CountWindowAssigner(2), CollectProcessFunction())
        feed(operator, b"a", 1, 0.0)
        feed(operator, b"b", 2, 1.0)
        feed(operator, b"a", 3, 2.0)
        assert len(outputs) == 1  # only key a reached the count
        assert outputs[0].value[2] == [1, 3]
