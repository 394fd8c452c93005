"""Unit tests for the NEXMark model, generator, serde and query builders."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import memory_backend
from repro.nexmark import (
    Auction,
    Bid,
    GeneratorConfig,
    NexmarkSerde,
    Person,
    QUERIES,
    build_query,
    generate_events,
)


class TestModel:
    def test_serialized_sizes_match_paper(self):
        """§6: person 16 B, auction 16 B, bid 84 B average."""
        serde = NexmarkSerde()
        # One tag byte on top of the paper's payload sizes.
        assert len(serde.serialize(Person(1, 2))) == 17
        assert len(serde.serialize(Auction(1, 2))) == 17
        assert len(serde.serialize(Bid(1, 2, 3))) == 85
        assert Person(1, 2).payload_bytes == 16
        assert Auction(1, 2).payload_bytes == 16
        assert Bid(1, 2, 3).payload_bytes == 84


def _dataclass_twin(event):
    """The same event built through the dataclass constructor."""
    return type(event)(*(getattr(event, f.name) for f in dataclasses.fields(event)))


def _reference_repr(event) -> str:
    """The dataclass-generated repr format, rebuilt from the fields."""
    fields = ", ".join(
        f"{f.name}={getattr(event, f.name)!r}" for f in dataclasses.fields(event)
    )
    return f"{type(event).__qualname__}({fields})"


class TestEventFastPath:
    """The generator builds events without the dataclass ``__init__``;
    every observable form must match a dataclass-built twin (serialized
    sizes feed simulated charges, reprs feed output digests)."""

    CONFIGS = (
        GeneratorConfig(events_per_second=40.0, duration=150.0, seed=11),
        GeneratorConfig(
            events_per_second=40.0, duration=150.0, seed=12,
            bidder_zipf=1.3, seller_zipf=1.1, flash_start=40.0, flash_duration=30.0,
            late_storm_start=80.0, late_storm_duration=20.0, late_storm_delay=5.0,
        ),
    )

    @pytest.mark.parametrize("config", CONFIGS, ids=("default", "skewed"))
    def test_generated_events_equal_their_dataclass_twins(self, config):
        serde = NexmarkSerde()
        kinds = set()
        for event, _ts in generate_events(config):
            twin = _dataclass_twin(event)
            kinds.add(type(event))
            assert type(event) is type(twin)
            assert event == twin and twin == event
            assert hash(event) == hash(twin)
            assert repr(event) == repr(twin)
            for protocol in (2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
                assert pickle.dumps(event, protocol) == pickle.dumps(twin, protocol)
            assert serde.serialize(event) == serde.serialize(twin)
            assert pickle.loads(pickle.dumps(event)) == event
        assert kinds == {Person, Auction, Bid}

    @pytest.mark.parametrize(
        "event",
        (Person(7, 3), Auction(5, 9), Bid(1, 2, 3), Bid(4, 5, 6, b"\x01" * 3)),
        ids=("person", "auction", "bid", "bid-extra"),
    )
    def test_reprs_follow_the_dataclass_format(self, event):
        assert repr(event) == _reference_repr(event)


class TestSerde:
    @given(st.integers(0, 2**40), st.integers(0, 63))
    def test_person_round_trip(self, pid, region):
        serde = NexmarkSerde()
        person = Person(pid, region)
        assert serde.deserialize(serde.serialize(person)) == person

    @given(st.integers(0, 2**40), st.integers(0, 2**40), st.integers(0, 2**40))
    def test_bid_round_trip(self, auction, bidder, price):
        serde = NexmarkSerde()
        bid = Bid(auction, bidder, price)
        assert serde.deserialize(serde.serialize(bid)) == bid

    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_auction_round_trip(self, aid, seller):
        serde = NexmarkSerde()
        auction = Auction(aid, seller)
        assert serde.deserialize(serde.serialize(auction)) == auction

    def test_int_fast_path(self):
        serde = NexmarkSerde()
        data = serde.serialize(12345)
        assert len(data) == 9
        assert serde.deserialize(data) == 12345

    def test_tagged_join_inputs(self):
        serde = NexmarkSerde()
        tagged = ("P", Person(5, 1))
        assert serde.deserialize(serde.serialize(tagged)) == tagged
        tagged = ("A", Auction(9, 5))
        assert serde.deserialize(serde.serialize(tagged)) == tagged

    @given(st.one_of(st.text(max_size=20), st.tuples(st.integers(), st.floats(allow_nan=False))))
    def test_pickle_fallback(self, obj):
        serde = NexmarkSerde()
        assert serde.deserialize(serde.serialize(obj)) == obj

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            NexmarkSerde().deserialize(bytes([250]) + b"junk")

    @pytest.mark.parametrize("obj,expected_hex", [
        (Person(1, 2), "00" "0100000000000000" "0200000000000000"),
        (Auction(3, 4), "01" "0300000000000000" "0400000000000000"),
        (Bid(5, 6, 7, b"xy"),
         "02" "0500000000000000" "0600000000000000" "0700000000000000" "7879"),
        ("abc", "03" "80059507000000000000008c03616263942e"),
        (12345, "04" "3930000000000000"),
        (("P", Person(8, 9)), "05" "0800000000000000" "0900000000000000"),
        (("A", Auction(10, 11)), "06" "0a00000000000000" "0b00000000000000"),
    ])
    def test_pinned_encoding_per_tag(self, obj, expected_hex):
        # Round trips and sizes cannot see a swapped tag prefix or a
        # reordered field; the exact bytes can.
        serde = NexmarkSerde()
        data = serde.serialize(obj)
        assert data.hex() == expected_hex
        assert serde.deserialize(data) == obj


class TestGenerator:
    CONFIG = GeneratorConfig(events_per_second=50.0, duration=400.0, seed=11)

    def test_deterministic(self):
        a = list(generate_events(self.CONFIG))
        b = list(generate_events(self.CONFIG))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(generate_events(self.CONFIG))
        b = list(generate_events(GeneratorConfig(
            events_per_second=50.0, duration=400.0, seed=12)))
        assert a != b

    def test_timestamps_ordered_and_bounded(self):
        events = list(generate_events(self.CONFIG))
        timestamps = [ts for _e, ts in events]
        assert timestamps == sorted(timestamps)
        assert all(0 <= ts < self.CONFIG.duration for ts in timestamps)

    def test_event_mix_close_to_paper(self):
        """2% persons / 6% auctions / 92% bids (§6)."""
        events = [e for e, _ts in generate_events(self.CONFIG)]
        n = len(events)
        persons = sum(isinstance(e, Person) for e in events)
        auctions = sum(isinstance(e, Auction) for e in events)
        bids = sum(isinstance(e, Bid) for e in events)
        assert persons + auctions + bids == n
        assert abs(persons / n - 0.02) < 0.01
        assert abs(auctions / n - 0.06) < 0.02
        assert abs(bids / n - 0.92) < 0.03

    def test_bids_reference_existing_auctions(self):
        auction_ids = set()
        for event, _ts in generate_events(self.CONFIG):
            if isinstance(event, Auction):
                auction_ids.add(event.auction_id)
            elif isinstance(event, Bid):
                # Pre-seeded auctions have ids below the first generated one.
                assert event.auction < max(auction_ids | {4}) + 1

    def test_expected_event_count(self):
        events = list(generate_events(self.CONFIG))
        expected = self.CONFIG.expected_events
        assert abs(len(events) - expected) < expected * 0.15

    def test_active_population_bounded(self):
        config = GeneratorConfig(
            events_per_second=50.0, duration=400.0, active_people=20, seed=5
        )
        bidders = {e.bidder for e, _ts in generate_events(config) if isinstance(e, Bid)}
        # Bidders are drawn from a sliding window of at most active_people
        # ids, but the window slides: total distinct is bounded by persons
        # generated plus the seed population.
        assert len(bidders) <= 20 + int(0.02 * 50 * 400) + 8


class TestQueryRegistry:
    def test_all_eight_queries_registered(self):
        assert set(QUERIES) == {
            "q5", "q5-append", "q7", "q7-session", "q8", "q11", "q11-median", "q12",
        }

    def test_patterns_match_paper_classification(self):
        assert QUERIES["q5"].patterns == ("RMW", "RMW")
        assert QUERIES["q5-append"].patterns == ("RMW", "AAR")
        assert QUERIES["q7"].patterns == ("AAR",)
        assert QUERIES["q7-session"].patterns == ("AUR",)
        assert QUERIES["q8"].patterns == ("AAR",)
        assert QUERIES["q11"].patterns == ("RMW",)
        assert QUERIES["q11-median"].patterns == ("AUR",)
        assert QUERIES["q12"].patterns == ("RMW",)

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            build_query("q99", memory_backend(), GeneratorConfig(duration=1.0), 10.0)


class TestQuerySemantics:
    GEN = GeneratorConfig(events_per_second=60.0, duration=150.0, seed=3)

    def _run(self, name, **kwargs):
        env = build_query(name, memory_backend(), self.GEN, window_size=30.0, **kwargs)
        return env.execute()

    def test_q7_emits_max_per_bidder_window(self):
        result = self._run("q7")
        for price, bid in result.sink_outputs["results"]:
            assert price == bid.price

    def test_q11_counts_sum_to_total_bids(self):
        result = self._run("q11")
        total_bids = sum(
            1 for e, _ts in generate_events(self.GEN) if isinstance(e, Bid)
        )
        assert sum(result.sink_outputs["results"]) == total_bids

    def test_q12_counts_sum_to_total_bids(self):
        result = self._run("q12")
        total_bids = sum(
            1 for e, _ts in generate_events(self.GEN) if isinstance(e, Bid)
        )
        assert sum(result.sink_outputs["results"]) == total_bids

    def test_q11_median_outputs_are_prices(self):
        result = self._run("q11-median")
        prices = {e.price for e, _ts in generate_events(self.GEN) if isinstance(e, Bid)}
        for median in result.sink_outputs["results"]:
            # A median of an odd-sized list is a real price; even-sized is
            # the mean of two prices.  Either way it lies within the bids.
            assert min(prices) <= median <= max(prices)

    def test_q8_join_emits_person_ids(self):
        result = self._run("q8")
        person_ids = {
            e.person_id for e, _ts in generate_events(self.GEN) if isinstance(e, Person)
        }
        seed_ids = set(range(8))
        for pid, _start, n_auctions in result.sink_outputs["results"]:
            assert pid in person_ids | seed_ids
            assert n_auctions >= 1

    def test_q5_emits_max_counts(self):
        result = self._run("q5")
        for metric, kwc in result.sink_outputs["results"]:
            assert metric == kwc[2]
            assert metric >= 1

    def test_q5_append_equals_q5(self):
        a = self._run("q5")
        b = self._run("q5-append")
        assert sorted(map(str, a.sink_outputs["results"])) == sorted(
            map(str, b.sink_outputs["results"])
        )

    def test_session_gap_parameter_changes_results(self):
        few = self._run("q11", session_gap=1000.0)  # one session per bidder
        many = self._run("q11", session_gap=0.5)
        assert len(few.sink_outputs["results"]) < len(many.sink_outputs["results"])
