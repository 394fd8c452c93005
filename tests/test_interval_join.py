"""Tests for the interval join (§8, Join Operations)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import memory_backend
from repro.engine import StreamEnvironment
from repro.engine.joins import (
    _JOIN_WINDOW,
    _SIDE_KIND,
    LEFT,
    RIGHT,
    IntervalJoinOperator,
    JoinStateBackend,
    _SideBuffer,
)
from repro.errors import PlanError
from repro.kvstores.api import ExportedEntry, StateExport, key_group_of
from repro.model import PickleSerde, StreamRecord
from repro.simenv import SimEnv


class TestSideBuffer:
    def test_sorted_insert_and_range(self):
        buffer = _SideBuffer()
        for ts in (5.0, 1.0, 3.0, 9.0):
            buffer.add(ts, f"v{ts}")
        assert [ts for ts, _v in buffer.entries] == [1.0, 3.0, 5.0, 9.0]
        assert [v for _ts, v in buffer.range(2.0, 6.0)] == ["v3.0", "v5.0"]
        assert buffer.range(10.0, 20.0) == []

    def test_range_is_inclusive(self):
        buffer = _SideBuffer()
        buffer.add(2.0, "x")
        assert buffer.range(2.0, 2.0) == [(2.0, "x")]

    def test_expire(self):
        buffer = _SideBuffer()
        for ts in (1.0, 2.0, 3.0):
            buffer.add(ts, ts)
        assert buffer.expire_before(2.5) == 2
        assert [ts for ts, _v in buffer.entries] == [3.0]

    def test_equal_timestamps_keep_arrival_order(self):
        buffer = _SideBuffer([(1.0, "a"), (4.0, "d")])
        assert buffer.add(4.0, "e") == 2  # in order: appended
        assert buffer.add(1.0, "b") == 1  # out of order: after equal stamps
        assert buffer.add(0.5, "z") == 0  # a new head
        assert buffer.entries == [
            (0.5, "z"), (1.0, "a"), (1.0, "b"), (4.0, "d"), (4.0, "e"),
        ]


def make_operator(lower=-5.0, upper=5.0):
    env = SimEnv()
    operator = IntervalJoinOperator(lower=lower, upper=upper,
                                    join_fn=lambda a, b: (a, b))
    outputs: list[StreamRecord] = []
    operator.open(env, None, outputs.append)
    return operator, outputs


def feed(operator, key, side, value, ts):
    operator.process(StreamRecord(key, (side, value), ts))


class TestOperator:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            IntervalJoinOperator(lower=1.0, upper=0.0, join_fn=lambda a, b: None)

    def test_matches_within_interval(self):
        operator, outputs = make_operator(lower=-2.0, upper=2.0)
        feed(operator, b"k", "L", "left@10", 10.0)
        feed(operator, b"k", "R", "right@11", 11.0)  # within [8, 12]
        feed(operator, b"k", "R", "right@13", 13.0)  # outside
        assert [record.value for record in outputs] == [("left@10", "right@11")]

    def test_join_is_symmetric_in_arrival_order(self):
        operator, outputs = make_operator(lower=-2.0, upper=2.0)
        feed(operator, b"k", "R", "right@11", 11.0)
        feed(operator, b"k", "L", "left@10", 10.0)
        # left arrives second but output is still (left, right)
        assert outputs[0].value == ("left@10", "right@11")

    def test_asymmetric_interval(self):
        operator, outputs = make_operator(lower=0.0, upper=3.0)
        feed(operator, b"k", "L", "left", 10.0)
        feed(operator, b"k", "R", "before", 9.0)   # no: right must be >= left
        feed(operator, b"k", "R", "at", 10.0)      # yes (inclusive)
        feed(operator, b"k", "R", "after", 13.0)   # yes (inclusive)
        feed(operator, b"k", "R", "late", 13.1)    # no
        assert [record.value[1] for record in outputs] == ["at", "after"]

    def test_keys_are_isolated(self):
        operator, outputs = make_operator()
        feed(operator, b"a", "L", "left", 10.0)
        feed(operator, b"b", "R", "right", 10.0)
        assert outputs == []

    def test_one_to_many(self):
        operator, outputs = make_operator(lower=-10.0, upper=10.0)
        for i in range(5):
            feed(operator, b"k", "R", f"r{i}", float(i))
        feed(operator, b"k", "L", "left", 5.0)
        assert len(outputs) == 5

    def test_watermark_expires_dead_entries(self):
        operator, outputs = make_operator(lower=-2.0, upper=2.0)
        feed(operator, b"k", "L", "old", 10.0)
        feed(operator, b"k", "R", "old-r", 10.0)
        assert operator.memory_entries == 2
        operator.on_watermark(100.0)
        assert operator.memory_entries == 0
        # A right record that could only match the expired left: no output.
        feed(operator, b"k", "R", "too-late", 11.0)
        assert len(outputs) == 1  # only the original match

    def test_output_timestamp_is_later_of_pair(self):
        operator, outputs = make_operator(lower=-5.0, upper=5.0)
        feed(operator, b"k", "L", "l", 10.0)
        feed(operator, b"k", "R", "r", 12.0)
        assert outputs[0].timestamp == 12.0


class TestEndToEndPlan:
    def _run(self, lower=-1.0, upper=1.0):
        env = StreamEnvironment(parallelism=2, backend_factory=memory_backend())
        orders = env.from_source(
            [((f"user{i % 3}", f"order{i}"), float(i)) for i in range(30)]
        ).key_by(lambda v: v[0].encode())
        payments = env.from_source(
            [((f"user{i % 3}", f"payment{i}"), float(i) + 0.5) for i in range(30)]
        ).key_by(lambda v: v[0].encode())
        orders.interval_join(
            payments, lower, upper, lambda o, p: (o[1], p[1])
        ).sink("joined")
        return env.execute(watermark_interval=7)

    def test_join_through_the_plan(self):
        result = self._run(lower=0.0, upper=1.0)
        joined = result.sink_outputs["joined"]
        # order i at t=i joins payment j at t=j+0.5 for the same user
        # (i % 3 == j % 3) with j + 0.5 in [i, i + 1] -> j == i.
        assert sorted(joined) == sorted(
            (f"order{i}", f"payment{i}") for i in range(30)
        )

    def test_wider_interval_joins_more(self):
        narrow = self._run(lower=0.0, upper=1.0)
        wide = self._run(lower=-4.0, upper=4.0)
        assert len(wide.sink_outputs["joined"]) > len(narrow.sink_outputs["joined"])

    def test_unkeyed_interval_join_rejected(self):
        env = StreamEnvironment(parallelism=1, backend_factory=memory_backend())
        left = env.from_source([(1, 1.0)])
        right = env.from_source([(2, 2.0)]).key_by(lambda v: b"k")
        left.interval_join(right, -1.0, 1.0, lambda a, b: (a, b)).sink("out")
        with pytest.raises(PlanError):
            env.execute()


# A randomized join schedule: records on both sides with non-decreasing
# timestamps, a key per record, and optional watermark advances between
# them (a watermark never exceeds the timestamps already processed, as
# in the runtime's heap-merged source order).
SCHEDULES = st.lists(
    st.tuples(
        st.integers(0, 40),              # timestamp offset (sorted below)
        st.sampled_from((LEFT, RIGHT)),  # side
        st.integers(0, 2),               # key index
        st.booleans(),                   # advance the watermark afterwards?
    ),
    min_size=1, max_size=40,
)
INTERVALS = st.tuples(st.integers(-6, 6), st.integers(0, 8)).map(
    lambda pair: (float(pair[0]), float(pair[0] + pair[1]))
)


def brute_force_pairs(records, lower, upper):
    """Every (left_index, right_index) pair the join semantics admit."""
    return {
        (i, j)
        for i, (lts, lside, lkey) in enumerate(records)
        for j, (rts, rside, rkey) in enumerate(records)
        if lside == LEFT and rside == RIGHT and lkey == rkey
        and lower <= rts - lts <= upper
    }


class TestExpiryProperties:
    @settings(max_examples=200, deadline=None)
    @given(interval=INTERVALS, schedule=SCHEDULES)
    def test_watermark_expiry_never_loses_matches(self, interval, schedule):
        # Oracle: with in-order arrivals, interleaved watermark expiry
        # must be invisible — the operator emits exactly the all-pairs
        # brute-force join, no matter when buffers are cleaned.
        lower, upper = interval
        schedule = sorted(schedule, key=lambda s: s[0])
        operator, outputs = make_operator(lower=lower, upper=upper)
        records = []
        for ts, side, key_index, advance in schedule:
            key = f"k{key_index}".encode()
            records.append((float(ts), side, key))
            operator.process(
                StreamRecord(key, (side, len(records) - 1), float(ts))
            )
            if advance:
                operator.on_watermark(float(ts))
        emitted = {record.value for record in outputs}
        assert emitted == brute_force_pairs(records, lower, upper)

    @settings(max_examples=200, deadline=None)
    @given(interval=INTERVALS, schedule=SCHEDULES, final_wm=st.integers(0, 60))
    def test_survivors_are_exactly_the_still_joinable(self, interval, schedule, final_wm):
        # After on_watermark(w) the buffers hold precisely the entries a
        # watermark-respecting future record could still pair with:
        # left ts >= w - upper, right ts >= w + lower (brute force).
        lower, upper = interval
        operator, _outputs = make_operator(lower=lower, upper=upper)
        inserted = {LEFT: [], RIGHT: []}
        for ts, side, key_index, _advance in sorted(schedule, key=lambda s: s[0]):
            key = f"k{key_index}".encode()
            inserted[side].append((float(ts), key))
            operator.process(StreamRecord(key, (side, ts), float(ts)))
        wm = float(max(final_wm, max(s[0] for s in schedule)))
        operator.on_watermark(wm)
        cuts = {LEFT: wm - upper, RIGHT: wm + lower}
        for side in (LEFT, RIGHT):
            survivors = {
                (ts, key)
                for key, buffer in operator.backend._sides[side].items()
                for ts, _value in buffer.entries
            }
            expected = {
                (ts, key) for ts, key in inserted[side] if ts >= cuts[side]
            }
            assert survivors == expected

    @settings(max_examples=100, deadline=None)
    @given(interval=INTERVALS, schedule=SCHEDULES)
    def test_memory_monotone_under_watermarks_without_input(self, interval, schedule):
        # Soak: with no new input, successive watermarks only ever
        # shrink the buffers, and they never emit anything.
        lower, upper = interval
        operator, outputs = make_operator(lower=lower, upper=upper)
        last_ts = 0.0
        for ts, side, key_index, _advance in sorted(schedule, key=lambda s: s[0]):
            last_ts = float(ts)
            operator.process(
                StreamRecord(f"k{key_index}".encode(), (side, ts), last_ts)
            )
        emitted = len(outputs)
        previous = operator.memory_entries
        for step in range(12):
            operator.on_watermark(last_ts + step * 5.0)
            assert operator.memory_entries <= previous
            previous = operator.memory_entries
        assert len(outputs) == emitted
        # The horizon passes every buffered entry eventually: drained.
        assert operator.memory_entries == 0


# ----------------------------------------------------------------------
# Expiry index vs a full scan
# ----------------------------------------------------------------------
class _ScanningBackend(JoinStateBackend):
    """Reference: expiry as a full dict-order scan over every buffer."""

    def expire(self, left_cut, right_cut):
        total = 0
        for side, cut in ((LEFT, left_cut), (RIGHT, right_cut)):
            buffers = self._sides[side]
            dead_keys = []
            for key, buffer in buffers.items():
                expired = buffer.expire_before(cut)
                if expired:
                    total += expired
                    self._dirty.log_trim(key, _SIDE_KIND[side], cut)
                if not buffer.entries:
                    dead_keys.append(key)
            for key in dead_keys:
                del buffers[key]
        return total


class _ChangelogRecorder:
    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def record(self, *args) -> None:
        self.calls.append(args)


GROUPS = 4
KEYS = [f"k{i}".encode() for i in range(6)]
SIDES = st.sampled_from((LEFT, RIGHT))
STAMPS = st.integers(0, 30).map(float)
EXPIRY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), SIDES, st.integers(0, 5), STAMPS),
        st.tuples(
            st.just("import"), SIDES, st.integers(0, 5),
            st.lists(STAMPS, max_size=4), st.booleans(),
        ),
        st.tuples(st.just("export"), st.integers(0, GROUPS - 1)),
        st.tuples(st.just("export_groups"), st.integers(0, GROUPS - 1)),
        st.tuples(st.just("expire"), st.integers(0, 6), st.integers(0, 6)),
    ),
    max_size=60,
)


def _kg(key: bytes) -> int:
    return key_group_of(key, GROUPS)


def _apply(backend: JoinStateBackend, op: tuple, cuts: list[float]):
    kind = op[0]
    if kind == "insert":
        _kind, side, key_index, ts = op
        backend.insert(side, KEYS[key_index], ts, (side, key_index, ts))
        return None
    if kind == "import":
        _kind, side, key_index, stamps, split = op
        rows = sorted((ts, ("imported", ts)) for ts in stamps)
        serde = PickleSerde()
        blobs = (
            [serde.serialize(rows[:1]), serde.serialize(rows[1:])]
            if split else [serde.serialize(rows)]
        )
        backend.import_state(
            StateExport([ExportedEntry(KEYS[key_index], _JOIN_WINDOW, _SIDE_KIND[side], blobs)])
        )
        return None
    if kind == "export":
        export = backend.export_state({op[1]}, _kg)
        return [(e.key, e.kind, e.values) for e in export.entries]
    if kind == "export_groups":
        export = backend.export_group_state({op[1]}, _kg)
        return [(e.key, e.kind, e.values) for e in export.entries]
    # Rising cuts, as successive watermarks produce.
    cuts[0] += op[1]
    cuts[1] += op[2]
    return backend.expire(cuts[0], cuts[1])


def _observe(backend: JoinStateBackend) -> tuple:
    return (
        {
            side: [(key, buffer.entries) for key, buffer in backend._sides[side].items()]
            for side in (LEFT, RIGHT)
        },
        backend.dirty_groups(),
        backend.memory_entries,
        dict(backend._env.ledger.cpu_seconds),
    )


class TestExpiryIndex:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=EXPIRY_OPS,
        # -inf: watermarks before any record; an empty imported buffer
        # must still be dropped by the first expiry.
        start=st.one_of(st.integers(-3, 10).map(float), st.just(float("-inf"))),
    )
    def test_index_matches_full_scan(self, ops, start):
        indexed = JoinStateBackend(SimEnv(), max_key_groups=GROUPS)
        scanning = _ScanningBackend(SimEnv(), max_key_groups=GROUPS)
        logs = (_ChangelogRecorder(), _ChangelogRecorder())
        indexed.attach_changelog(logs[0])
        scanning.attach_changelog(logs[1])
        cuts = ([start] * 2, [start] * 2)
        for op in ops:
            assert _apply(indexed, op, cuts[0]) == _apply(scanning, op, cuts[1])
            assert _observe(indexed) == _observe(scanning)
        # Every changelog row, log_trim included, in the scan's order.
        assert logs[0].calls == logs[1].calls

    def test_expired_counts_and_trim_order(self):
        backend = JoinStateBackend(SimEnv(), max_key_groups=GROUPS)
        log = _ChangelogRecorder()
        backend.attach_changelog(log)
        for key, ts in ((b"b", 5.0), (b"a", 1.0), (b"c", 9.0), (b"a", 7.0), (b"b", 2.0)):
            backend.insert(LEFT, key, ts, ts)
        log.calls.clear()
        assert backend.expire(6.0, float("-inf")) == 3
        # Dict order of first insertion (b, a), not head order (a, b).
        assert [call[2] for call in log.calls] == [b"b", b"a"]
        assert list(backend._sides[LEFT]) == [b"a", b"c"]

    def test_empty_import_is_dropped_by_any_expiry(self):
        empty = PickleSerde().serialize([])
        for backend in (JoinStateBackend(SimEnv()), _ScanningBackend(SimEnv())):
            backend.import_state(
                StateExport([ExportedEntry(b"k", _JOIN_WINDOW, _SIDE_KIND[LEFT], [empty])])
            )
            assert backend.buffer(LEFT, b"k") is not None
            assert backend.expire(float("-inf"), float("-inf")) == 0
            assert backend.buffer(LEFT, b"k") is None
