"""The paper's eight NEXMark evaluation queries (§6, Workload).

Each builder wires a :class:`~repro.engine.plan.StreamEnvironment` for one
query at a given window size.  The access patterns per query match the
paper's classification:

=============  ==========================================  ==============
query          shape                                       pattern(s)
=============  ==========================================  ==============
Q5             sliding count per auction -> sliding max    RMW, RMW
Q5-Append      sliding count per auction -> full-list max  RMW, AAR
Q7             max bid per bidder, fixed windows           AAR
Q7-Session     max bid per bidder, session windows         AUR
Q8             new persons joining new auctions, fixed     AAR (join)
Q11            bids per bidder, session windows            RMW
Q11-Median     median bid per bidder, session windows      AUR
Q12            bids per bidder, global window              RMW
=============  ==========================================  ==============

For session queries the paper's "window size" axis maps to the session
gap: ``gap = window_size * SESSION_GAP_FRACTION``, so larger configured
windows mean longer sessions and larger state, as in Figure 8.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.engine.functions import (
    CountAggregate,
    MaxAggregate,
    MaxProcessFunction,
    MedianProcessFunction,
    ProcessWindowFunction,
)
from repro.engine.plan import StreamEnvironment
from repro.engine.state import BackendFactory
from repro.engine.windows import (
    GlobalWindowAssigner,
    SessionWindowAssigner,
    SlidingWindowAssigner,
    TumblingWindowAssigner,
)
from repro.model import Window
from repro.nexmark.generator import GeneratorConfig, generate_events
from repro.nexmark.model import Auction, Bid, Person
from repro.simenv import scaled_cost_models

# Default fraction of the configured "window size" used as the session gap.
SESSION_GAP_FRACTION = 0.02

SINK = "results"


def _u64(value: int) -> bytes:
    return value.to_bytes(8, "little")


class JoinNewUsersFunction(ProcessWindowFunction):
    """Q8's windowed join: persons who opened an auction in the window."""

    def process(self, key: bytes, window: Window, values: list[Any]) -> Iterable[Any]:
        persons = [v for tag, v in values if tag == "P"]
        auctions = [v for tag, v in values if tag == "A"]
        if persons and auctions:
            yield (persons[0].person_id, window.start, len(auctions))


@dataclass(frozen=True)
class QuerySpec:
    """Metadata + builder for one evaluation query."""

    name: str
    description: str
    patterns: tuple[str, ...]
    build: Callable[[StreamEnvironment, Any, float, float], None]


def _bids(env: StreamEnvironment, source) -> Any:
    return source.filter(lambda e: isinstance(e, Bid), name="bids")


def _build_q5_stage1(env: StreamEnvironment, source, window_size: float):
    """Sliding count of bids per auction (RMW), emitting window info."""
    return (
        _bids(env, source)
        .key_by(lambda bid: _u64(bid.auction), name="by_auction")
        .window(SlidingWindowAssigner(window_size, window_size / 2))
        .aggregate(CountAggregate(), name="count_per_auction", with_window=True)
    )


def _rekey_by_window(stream):
    return stream.key_by(lambda kwc: kwc[1].key_bytes(), name="by_window")


def build_q5(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    counts = _build_q5_stage1(env, source, window_size)
    (
        _rekey_by_window(counts)
        .window(TumblingWindowAssigner(window_size / 2))
        .aggregate(MaxAggregate(extract=lambda kwc: kwc[2]), name="max_per_window")
        .sink(SINK)
    )


def build_q5_append(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    counts = _build_q5_stage1(env, source, window_size)
    (
        _rekey_by_window(counts)
        .window(TumblingWindowAssigner(window_size / 2))
        .process(MaxProcessFunction(extract=lambda kwc: kwc[2]), name="max_per_window")
        .sink(SINK)
    )


def build_q7(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    (
        _bids(env, source)
        .key_by(lambda bid: _u64(bid.bidder), name="by_bidder")
        .window(TumblingWindowAssigner(window_size))
        .process(MaxProcessFunction(extract=lambda bid: bid.price), name="max_bid")
        .sink(SINK)
    )


def build_q7_session(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    gap = session_gap
    (
        _bids(env, source)
        .key_by(lambda bid: _u64(bid.bidder), name="by_bidder")
        .window(SessionWindowAssigner(gap))
        .process(MaxProcessFunction(extract=lambda bid: bid.price), name="max_bid")
        .sink(SINK)
    )


def build_q8(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    persons = (
        source.filter(lambda e: isinstance(e, Person), name="persons")
        .map(lambda p: ("P", p), name="tag_p")
    )
    auctions = (
        source.filter(lambda e: isinstance(e, Auction), name="auctions")
        .map(lambda a: ("A", a), name="tag_a")
    )
    (
        persons.union(auctions, name="join_input")
        .key_by(lambda tv: _u64(tv[1].person_id if tv[0] == "P" else tv[1].seller),
                name="by_person")
        .window(TumblingWindowAssigner(window_size))
        .process(JoinNewUsersFunction(), name="join_new_users")
        .sink(SINK)
    )


def build_q11(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    gap = session_gap
    (
        _bids(env, source)
        .key_by(lambda bid: _u64(bid.bidder), name="by_bidder")
        .window(SessionWindowAssigner(gap))
        .aggregate(CountAggregate(), name="bids_per_session")
        .sink(SINK)
    )


def build_q11_median(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    gap = session_gap
    (
        _bids(env, source)
        .key_by(lambda bid: _u64(bid.bidder), name="by_bidder")
        .window(SessionWindowAssigner(gap))
        .process(MedianProcessFunction(extract=lambda bid: bid.price), name="median_bid")
        .sink(SINK)
    )


def build_q12(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    (
        _bids(env, source)
        .key_by(lambda bid: _u64(bid.bidder), name="by_bidder")
        .window(GlobalWindowAssigner())
        .aggregate(CountAggregate(), name="bids_per_user")
        .sink(SINK)
    )


def build_q1(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    """Currency conversion — stateless (excluded from the paper's eval)."""
    (
        _bids(env, source)
        .map(lambda bid: Bid(bid.auction, bid.bidder, int(bid.price * 0.908), bid.extra),
             name="to_euros")
        .sink(SINK)
    )


def build_q2(env: StreamEnvironment, source, window_size: float, session_gap: float) -> None:
    """Selection — stateless (excluded from the paper's eval)."""
    (
        _bids(env, source)
        .filter(lambda bid: bid.auction % 123 == 0, name="selection")
        .map(lambda bid: (bid.auction, bid.price), name="project")
        .sink(SINK)
    )


def build_q8_interval(
    env: StreamEnvironment, source, window_size: float, session_gap: float
) -> None:
    """Auctions interval-joined with their bids (stateful on both sides).

    The interval-join variant of Q8: an auction at ``ts`` pairs with
    every bid on it whose timestamp falls in ``[ts - window_size,
    ts + window_size]``.  Both sides key by the auction id, so the join
    buffers are ordinary keyed state that rescales and checkpoints along
    key-group boundaries; the negative lower bound keeps a full window
    of bids buffered (the popularity-skewed bulk of the state).
    """
    auctions = (
        source.filter(lambda e: isinstance(e, Auction), name="auctions")
        .key_by(lambda a: _u64(a.auction_id), name="by_auction_open")
    )
    bids = (
        _bids(env, source)
        .key_by(lambda b: _u64(b.auction), name="by_auction_bid")
    )
    (
        auctions.interval_join(
            bids, -window_size, window_size,
            lambda a, b: (a.auction_id, a.seller, b.bidder, b.price),
            name="auction_bids",
        )
        .sink(SINK)
    )


class AverageProcessFunction(ProcessWindowFunction):
    """Average over the full value list (non-incremental on purpose)."""

    def __init__(self, extract) -> None:
        self._extract = extract

    def process(self, key, window, values):
        if values:
            yield sum(self._extract(v) for v in values) / len(values)


def build_q6_count(
    env: StreamEnvironment, source, window_size: float, session_gap: float
) -> None:
    """Average of the last 10 bid prices per bidder — count windows.

    A stand-in for the paper's excluded Q6 (custom/count windows whose
    trigger times FlowKV cannot predict): exercises the AUR store's
    direct-read fallback for unpredictable windows (§4.2).
    """
    from repro.engine.windows import CountWindowAssigner

    (
        _bids(env, source)
        .key_by(lambda bid: _u64(bid.bidder), name="by_bidder")
        .window(CountWindowAssigner(10))
        .process(AverageProcessFunction(extract=lambda bid: bid.price),
                 name="avg_last_10")
        .sink(SINK)
    )


QUERIES: dict[str, QuerySpec] = {
    "q5": QuerySpec(
        "q5", "most-bid auctions over consecutive sliding windows", ("RMW", "RMW"), build_q5
    ),
    "q5-append": QuerySpec(
        "q5-append", "Q5 with non-incremental second stage", ("RMW", "AAR"), build_q5_append
    ),
    "q7": QuerySpec("q7", "highest bid per bidder, fixed windows", ("AAR",), build_q7),
    "q7-session": QuerySpec(
        "q7-session", "highest bid per bidder, session windows", ("AUR",), build_q7_session
    ),
    "q8": QuerySpec("q8", "persons opening auctions, windowed join", ("AAR",), build_q8),
    "q11": QuerySpec("q11", "bids per bidder, session windows", ("RMW",), build_q11),
    "q11-median": QuerySpec(
        "q11-median", "median bid per bidder, session windows", ("AUR",), build_q11_median
    ),
    "q12": QuerySpec("q12", "bids per bidder, global window", ("RMW",), build_q12),
}

# Queries outside the paper's evaluation set: stateless NEXMark queries
# and an unpredictable-window extension.  Available through build_query
# but not part of the Figure 8 matrix.
EXTRA_QUERIES: dict[str, QuerySpec] = {
    "q1": QuerySpec("q1", "currency conversion (stateless)", (), build_q1),
    "q2": QuerySpec("q2", "selection (stateless)", (), build_q2),
    "q6-count": QuerySpec(
        "q6-count", "average of last 10 bids per bidder (count windows)",
        ("AUR",), build_q6_count,
    ),
    "q8-interval": QuerySpec(
        "q8-interval", "auctions interval-joined with their bids",
        ("JOIN",), build_q8_interval,
    ),
}


def build_query(
    name: str,
    backend_factory: BackendFactory,
    generator_config: GeneratorConfig,
    window_size: float,
    parallelism: int = 2,
    workers: int = 1,
    session_gap: float | None = None,
    cost_scale: float = 1.0,
    faults: Any = None,
    cluster: Any = None,
    batch_records: int = 1,
    prefetch_depth: int = 0,
) -> StreamEnvironment:
    """Construct a ready-to-execute environment for one query.

    Returns an environment whose ``execute()`` runs the query over a
    freshly generated event stream; results land in the ``results`` sink.
    ``session_gap`` (session queries only) defaults to
    ``window_size * SESSION_GAP_FRACTION``.  ``cluster`` (a
    :class:`repro.cluster.ClusterTopology`) spreads the physical
    instances over simulated machines with a network between them.
    ``batch_records`` sizes the columnar record batches
    on the hot path (1 = exact per-tuple execution; simulated charges
    are per-record identical at any size).  ``prefetch_depth`` enables
    semantic state prefetching on the disk backends (0 = off,
    bit-identical to a build without the subsystem).
    """
    key = name.lower()
    spec = QUERIES.get(key) or EXTRA_QUERIES.get(key)
    if spec is None:
        raise KeyError(name)
    cpu = ssd = None
    if cost_scale != 1.0:
        cpu, ssd = scaled_cost_models(cost_scale)
    env = StreamEnvironment(
        parallelism=parallelism, backend_factory=backend_factory, workers=workers,
        cpu=cpu, ssd=ssd, faults=faults, cluster=cluster,
        max_batch_records=batch_records, prefetch_depth=prefetch_depth,
    )
    source = env.from_source(generate_events(generator_config), name="nexmark")
    gap = session_gap if session_gap is not None else window_size * SESSION_GAP_FRACTION
    spec.build(env, source, window_size, gap)
    return env
