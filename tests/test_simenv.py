"""Unit tests for the simulation environment (clock, costs, ledger, env)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simenv import (
    CAT_COMPACTION,
    CAT_QUERY,
    CAT_STORE_READ,
    CAT_STORE_WRITE,
    CPU_CATEGORIES,
    CpuCostModel,
    MetricsLedger,
    SimClock,
    SimEnv,
    SsdCostModel,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == 4.0

    def test_advance_returns_new_time(self):
        clock = SimClock(1.0)
        assert clock.advance(2.0) == 3.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_reset(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.reset()
        assert clock.now == 0.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    def test_advance_is_sum(self, deltas):
        clock = SimClock()
        for delta in deltas:
            clock.advance(delta)
        assert clock.now == pytest.approx(sum(deltas))


class TestCpuCostModel:
    def test_sorted_search_grows_logarithmically(self):
        model = CpuCostModel()
        assert model.sorted_search(1) == model.key_compare
        assert model.sorted_search(1024) == pytest.approx(11 * model.key_compare)
        assert model.sorted_search(2048) > model.sorted_search(1024)

    def test_sorted_search_is_bit_exact_with_its_reference(self):
        """Every charge replays bit-exact: pin the float for each size."""
        model = CpuCostModel()
        for n in range(70001):
            steps = max(1, int.bit_length(n))
            expected = model.key_compare if n <= 1 else steps * model.key_compare
            assert model.sorted_search(n).hex() == expected.hex()

    def test_serde_linear_in_bytes(self):
        model = CpuCostModel()
        small = model.serde(100)
        large = model.serde(1000)
        assert large > small
        assert large - small == pytest.approx(900 * model.serde_per_byte)

    def test_serde_per_record_overhead(self):
        model = CpuCostModel()
        assert model.serde(0, n_records=3) == pytest.approx(3 * model.serde_per_record)

    def test_all_costs_positive(self):
        model = CpuCostModel()
        for field in (
            "hash_probe", "key_compare", "branch_step", "bloom_check",
            "copy_per_byte", "serde_per_byte", "merge_per_entry", "sync_op",
            "function_call", "syscall", "allocation",
        ):
            assert getattr(model, field) > 0


class TestSsdCostModel:
    def test_read_time_has_latency_floor(self):
        ssd = SsdCostModel()
        assert ssd.read_time(0) == pytest.approx(ssd.request_latency)

    def test_read_time_scales_with_bytes(self):
        ssd = SsdCostModel()
        one_mb = ssd.read_time(1 << 20)
        two_mb = ssd.read_time(2 << 20)
        assert two_mb - one_mb == pytest.approx((1 << 20) / ssd.read_bandwidth)

    def test_write_slower_than_read(self):
        ssd = SsdCostModel()
        assert ssd.write_time(1 << 20) > ssd.read_time(1 << 20)

    def test_multiple_requests_multiply_latency(self):
        ssd = SsdCostModel()
        assert ssd.read_time(4096, n_requests=10) == pytest.approx(
            10 * ssd.request_latency + 4096 / ssd.read_bandwidth
        )

    def test_negative_rejected(self):
        ssd = SsdCostModel()
        with pytest.raises(ValueError):
            ssd.read_time(-1)
        with pytest.raises(ValueError):
            ssd.write_time(10, n_requests=-1)


class TestMetricsLedger:
    def test_cpu_accumulates_per_category(self):
        ledger = MetricsLedger()
        ledger.add_cpu(CAT_QUERY, 1.0)
        ledger.add_cpu(CAT_QUERY, 0.5)
        ledger.add_cpu(CAT_STORE_WRITE, 2.0)
        assert ledger.cpu_seconds[CAT_QUERY] == pytest.approx(1.5)
        assert ledger.cpu_seconds[CAT_STORE_WRITE] == pytest.approx(2.0)

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            MetricsLedger().add_cpu(CAT_QUERY, -1.0)

    def test_io_accounting(self):
        ledger = MetricsLedger()
        ledger.add_read(1000, 0.1, n_requests=2)
        ledger.add_write(500, 0.05)
        assert ledger.bytes_read == 1000
        assert ledger.bytes_written == 500
        assert ledger.read_requests == 2
        assert ledger.write_requests == 1
        assert ledger.io_wait_seconds == pytest.approx(0.15)

    def test_counters(self):
        ledger = MetricsLedger()
        ledger.bump("compactions")
        ledger.bump("compactions", 2)
        assert ledger.counters["compactions"] == 3

    def test_snapshot_is_independent_copy(self):
        ledger = MetricsLedger()
        ledger.add_cpu(CAT_QUERY, 1.0)
        snapshot = ledger.snapshot()
        ledger.add_cpu(CAT_QUERY, 1.0)
        assert snapshot.cpu_seconds[CAT_QUERY] == pytest.approx(1.0)

    def test_snapshot_totals(self):
        ledger = MetricsLedger()
        ledger.add_cpu(CAT_STORE_READ, 1.0)
        ledger.add_cpu(CAT_COMPACTION, 2.0)
        ledger.add_read(10, 0.5)
        snapshot = ledger.snapshot()
        assert snapshot.store_cpu_seconds == pytest.approx(3.0)
        assert snapshot.total_cpu_seconds == pytest.approx(3.0)
        assert snapshot.total_seconds == pytest.approx(3.5)

    def test_merge(self):
        a = MetricsLedger()
        b = MetricsLedger()
        a.add_cpu(CAT_QUERY, 1.0)
        b.add_cpu(CAT_QUERY, 2.0)
        b.add_read(100, 0.1)
        b.bump("x")
        a.merge(b)
        assert a.cpu_seconds[CAT_QUERY] == pytest.approx(3.0)
        assert a.bytes_read == 100
        assert a.counters["x"] == 1

    def test_reset(self):
        ledger = MetricsLedger()
        ledger.add_cpu(CAT_QUERY, 1.0)
        ledger.add_write(10, 0.1)
        ledger.reset()
        assert ledger.cpu_seconds[CAT_QUERY] == 0.0
        assert ledger.bytes_written == 0
        assert all(ledger.cpu_seconds[c] == 0.0 for c in CPU_CATEGORIES)


class TestSimEnv:
    def test_charge_cpu_advances_clock_and_books(self):
        env = SimEnv()
        env.charge_cpu(CAT_QUERY, 0.25)
        assert env.now == pytest.approx(0.25)
        assert env.ledger.cpu_seconds[CAT_QUERY] == pytest.approx(0.25)

    def test_zero_charge_is_free(self):
        env = SimEnv()
        env.charge_cpu(CAT_QUERY, 0.0)
        assert env.now == 0.0

    def test_charge_read_uses_ssd_model(self):
        env = SimEnv()
        env.charge_read(1 << 20)
        expected = env.ssd.read_time(1 << 20)
        assert env.now == pytest.approx(expected)
        assert env.ledger.bytes_read == 1 << 20

    def test_charge_write_uses_ssd_model(self):
        env = SimEnv()
        env.charge_write(1 << 20, n_requests=2)
        assert env.now == pytest.approx(env.ssd.write_time(1 << 20, 2))

    def test_fork_shares_models_but_not_state(self):
        env = SimEnv()
        env.charge_cpu(CAT_QUERY, 1.0)
        child = env.fork()
        assert child.now == 0.0
        assert child.cpu is env.cpu
        assert child.ssd is env.ssd
        child.charge_cpu(CAT_QUERY, 0.5)
        assert env.ledger.cpu_seconds[CAT_QUERY] == pytest.approx(1.0)

    def test_bump_counter(self):
        env = SimEnv()
        env.bump("things", 4)
        env.bump("things")
        assert env.ledger.counters["things"] == 5


REJECTED_CHARGES = pytest.mark.parametrize("category,seconds,message", [
    (CAT_QUERY, -1.0, "negative CPU charge"),
    ("netwrok", 1.0, "unknown CPU category"),
])


class TestRejectedChargeMutatesNothing:
    """A charge that raises must leave clock, ledger and capture box as
    they were: validation happens before the first mutation."""

    @REJECTED_CHARGES
    def test_outside_capture(self, category, seconds, message):
        env = SimEnv()
        env.charge_cpu(CAT_QUERY, 0.5)
        before = env.ledger.snapshot()
        with pytest.raises(ValueError, match=message):
            env.charge_cpu(category, seconds)
        assert env.now == 0.5
        assert env.ledger.snapshot() == before

    @REJECTED_CHARGES
    def test_inside_prefetch_capture(self, category, seconds, message):
        env = SimEnv()
        with env.prefetch_capture() as box:
            env.charge_cpu(CAT_QUERY, 0.25)
            before = env.ledger.snapshot()
            with pytest.raises(ValueError, match=message):
                env.charge_cpu(category, seconds)
            assert box == [0.25]
            assert env.ledger.snapshot() == before
        assert env.now == 0.0

    def test_captured_charge_books_prefetch_without_advancing(self):
        env = SimEnv()
        with env.prefetch_capture() as box:
            env.charge_cpu(CAT_QUERY, 0.25)
        assert box == [0.25]
        assert env.now == 0.0
        assert env.ledger.cpu_seconds["prefetch"] == 0.25
        assert env.ledger.cpu_seconds[CAT_QUERY] == 0.0
