"""Deterministic NEXMark event generator.

Mirrors the Beam NEXMark generator's behaviour at configurable scale:

* event mix 2% persons / 6% auctions / 92% bids (§6, Input dataset),
* exponential inter-arrival times at ``events_per_second`` (event time),
* bids reference a hot set of recent auctions and active bidders with a
  skewed (80/20-style) popularity distribution,
* fully deterministic for a given seed.

Skew axis (all knobs off by default — the default stream is
byte-identical to the pre-skew generator, pinned by test):

* **Zipf-skewed bidders/sellers** — ``bidder_zipf`` / ``seller_zipf``
  replace the hot-quartile pick with a Zipf(s) draw over the active
  population, rank 0 being the *oldest* member (``people[0]``), so the
  hottest key stays stable while the population slides.  A millions-of-
  users workload is Zipf-distributed; exponent >= 1.2 concentrates
  enough mass on one key to pin a single key-group.
* **Flash crowd** — during ``[flash_start, flash_start +
  flash_duration)`` each bid targets one fixed auction (latched as the
  newest auction when the burst begins) with probability
  ``flash_intensity``: the one-hot-seller scenario.
* **Late-data storm** — bids generated during ``[late_storm_start,
  late_storm_start + late_storm_duration)`` carry timestamps shifted
  *back* by ``late_storm_delay`` seconds (clamped at 0): a burst of
  out-of-order data.  The emission order and RNG draws are unchanged,
  so a storm run differs from its no-storm twin only in those bids'
  timestamps.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.nexmark.model import Auction, Bid, Person, new_auction, new_bid, new_person

Event = Person | Auction | Bid


@dataclass(frozen=True)
class GeneratorConfig:
    """Workload shape.

    Attributes:
        events_per_second: mean event rate in event-time seconds.
        duration: total event-time span to generate.
        person_ratio / auction_ratio: event mix (bids take the rest).
        active_people: size of the live bidder population; per-bidder bid
            rate is roughly ``0.92 * events_per_second / active_people``,
            which (with the session gap) controls session lengths.
        active_auctions: size of the hot auction set bids target.
        hot_fraction: probability a bid goes to the hot quartile of
            bidders/auctions (popularity skew).
        seed: RNG seed; identical configs generate identical streams.
        bidder_zipf: optional Zipf exponent for the bid's bidder pick
            (``None`` keeps the legacy hot-quartile draw, byte-identical).
        seller_zipf: optional Zipf exponent for the auction's seller pick.
        flash_start / flash_duration / flash_intensity: flash-crowd burst
            on one auction (see module docstring); off while
            ``flash_start`` is ``None``.
        late_storm_start / late_storm_duration / late_storm_delay:
            late-data storm — bids in the storm window arrive with
            timestamps ``late_storm_delay`` seconds in the past; off
            while ``late_storm_start`` is ``None``.
    """

    events_per_second: float = 100.0
    duration: float = 1000.0
    person_ratio: float = 0.02
    auction_ratio: float = 0.06
    active_people: int = 200
    active_auctions: int = 50
    hot_fraction: float = 0.5
    seed: int = 20230509
    # --- skew axis (defaults keep the stream byte-identical) ---
    bidder_zipf: float | None = None
    seller_zipf: float | None = None
    flash_start: float | None = None
    flash_duration: float = 0.0
    flash_intensity: float = 0.9
    late_storm_start: float | None = None
    late_storm_duration: float = 0.0
    late_storm_delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("bidder_zipf", "seller_zipf"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be > 0 when set: {value}")
        if not 0.0 <= self.flash_intensity <= 1.0:
            raise ValueError(f"flash_intensity must be in [0, 1]: {self.flash_intensity}")
        if self.flash_duration < 0.0 or self.late_storm_duration < 0.0:
            raise ValueError("flash/late-storm durations must be >= 0")
        if self.late_storm_delay < 0.0:
            raise ValueError(f"late_storm_delay must be >= 0: {self.late_storm_delay}")

    @property
    def expected_events(self) -> int:
        return int(self.events_per_second * self.duration)


class _ZipfPicker:
    """Zipf(s) index draws over a population of varying size.

    Rank ``r`` (0-based) carries weight ``(r + 1) ** -s``; rank 0 maps
    to the *front* of the population list (its oldest surviving member),
    so the hottest identity is stable until it ages out of the window.
    Cumulative weight tables are cached per population size — sizes only
    ever step by one, so the cache stays tiny.
    """

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self._cdf: dict[int, list[float]] = {}

    def pick(self, rng: random.Random, n: int) -> int:
        if n <= 1:
            return 0
        cdf = self._cdf.get(n)
        if cdf is None:
            total = 0.0
            cdf = []
            for rank in range(n):
                total += (rank + 1) ** -self.exponent
                cdf.append(total)
            self._cdf[n] = cdf
        draw = rng.random() * cdf[-1]
        return bisect.bisect_right(cdf, draw)


def generate_events(config: GeneratorConfig) -> Iterator[tuple[Event, float]]:
    """Yield ``(event, event_timestamp)`` pairs in generation order.

    Without a late-data storm the stream is timestamp-ordered; storm
    bids are emitted at their generation slot but stamped in the past.

    The loop binds ``rng.random`` and ``rng._randbelow`` and inlines
    ``expovariate`` and the hot-quartile pick (the newest quartile of
    ``n`` gets ``hot_fraction`` of the draws): the RNG sees exactly the
    calls ``expovariate(rate)`` and ``randrange(n)`` would make, in the
    same order.  The stream hashes in ``tests/test_skew_generator.py`` pin
    this on every supported interpreter.
    """
    rng = random.Random(config.seed)
    timestamp = 0.0
    next_person_id = 0
    next_auction_id = 0
    people: list[int] = []
    auctions: list[Auction] = []

    # Pre-seed the minimum population so the first bids have targets.
    for _ in range(8):
        people.append(next_person_id)
        next_person_id += 1
    for _ in range(4):
        auctions.append(new_auction(next_auction_id, rng.choice(people)))
        next_auction_id += 1

    uniform = rng.random
    randbelow = rng._randbelow  # what randrange(n) calls for n > 0
    log = math.log
    mean_gap = 1.0 / config.events_per_second
    rate = 1.0 / mean_gap  # expovariate's lambd
    duration = config.duration
    hot = config.hot_fraction
    active_people = config.active_people
    active_auctions = config.active_auctions
    person_cut = config.person_ratio
    auction_cut = config.person_ratio + config.auction_ratio
    bidder_zipf = (
        _ZipfPicker(config.bidder_zipf) if config.bidder_zipf is not None else None
    )
    seller_zipf = (
        _ZipfPicker(config.seller_zipf) if config.seller_zipf is not None else None
    )
    flash_start = config.flash_start
    flash_end = flash_start + config.flash_duration if flash_start is not None else None
    flash_auction: Auction | None = None
    storm_start = config.late_storm_start
    storm_end = (
        storm_start + config.late_storm_duration if storm_start is not None else None
    )

    while timestamp < duration:
        timestamp += -log(1.0 - uniform()) / rate
        if timestamp >= duration:
            return
        draw = uniform()
        if draw < person_cut:
            person = new_person(next_person_id, randbelow(64))
            next_person_id += 1
            people.append(person.person_id)
            if len(people) > active_people:
                people.pop(0)
            yield person, timestamp
        elif draw < auction_cut:
            n = len(people)
            if seller_zipf is not None:
                seller = people[seller_zipf.pick(rng, n)]
            elif n <= 1:
                seller = people[0]
            elif uniform() < hot:
                seller = people[n - 1 - randbelow(max(1, n // 4))]
            else:
                seller = people[randbelow(n)]
            auction = new_auction(next_auction_id, seller)
            next_auction_id += 1
            auctions.append(auction)
            if len(auctions) > active_auctions:
                auctions.pop(0)
            yield auction, timestamp
        else:
            auction = None
            if flash_start is not None and flash_start <= timestamp < flash_end:
                if flash_auction is None:
                    # Latch the burst target: the newest auction at the
                    # instant the flash crowd begins.
                    flash_auction = auctions[-1]
                if uniform() < config.flash_intensity:
                    auction = flash_auction
            if auction is None:
                n = len(auctions)
                if n <= 1:
                    auction = auctions[0]
                elif uniform() < hot:
                    auction = auctions[n - 1 - randbelow(max(1, n // 4))]
                else:
                    auction = auctions[randbelow(n)]
            n = len(people)
            if bidder_zipf is not None:
                bidder = people[bidder_zipf.pick(rng, n)]
            elif n <= 1:
                bidder = people[0]
            elif uniform() < hot:
                bidder = people[n - 1 - randbelow(max(1, n // 4))]
            else:
                bidder = people[randbelow(n)]
            price = 100 + randbelow(10_000)
            bid_ts = timestamp
            if storm_start is not None and storm_start <= timestamp < storm_end:
                bid_ts = max(0.0, timestamp - config.late_storm_delay)
            yield new_bid(auction.auction_id, bidder, price), bid_ts
