"""NEXMark event types.

Field sets are trimmed to what the evaluated queries touch while keeping
the paper's average byte-serialized sizes: person and auction tuples
serialize to 16 B, bids to 84 B (§6, Input dataset).

The generator builds events through :func:`new_person`,
:func:`new_auction` and :func:`new_bid`, which set the fields directly
instead of running the frozen dataclass ``__init__``; the objects they
return equal dataclass-built ones in ``==``, ``hash``, ``repr`` and
``pickle.dumps``.  The ``__repr__``\\ s are written out (in the dataclass
format) because output digests call ``repr`` on every result.
"""

from __future__ import annotations

from dataclasses import dataclass

_new = object.__new__
_set = object.__setattr__

_BID_EXTRA = b"\x00" * 60  # the padding every default-built Bid shares


@dataclass(frozen=True, repr=False)
class Person:
    """A registering user.  Serializes to 16 B (two u64 fields)."""

    person_id: int
    region: int  # stands in for name/city/state fields

    @property
    def payload_bytes(self) -> int:
        return 16

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}"
            f"(person_id={self.person_id!r}, region={self.region!r})"
        )


@dataclass(frozen=True, repr=False)
class Auction:
    """A newly opened auction.  Serializes to 16 B."""

    auction_id: int
    seller: int

    @property
    def payload_bytes(self) -> int:
        return 16

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}"
            f"(auction_id={self.auction_id!r}, seller={self.seller!r})"
        )


@dataclass(frozen=True, repr=False)
class Bid:
    """A bid on an auction.  Serializes to 84 B (ids, price, 60 B extra)."""

    auction: int
    bidder: int
    price: int
    extra: bytes = _BID_EXTRA

    @property
    def payload_bytes(self) -> int:
        return 24 + len(self.extra)

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(auction={self.auction!r}, "
            f"bidder={self.bidder!r}, price={self.price!r}, extra={self.extra!r})"
        )


def new_person(person_id: int, region: int) -> Person:
    """``Person(person_id, region)``, fields set in declaration order."""
    person = _new(Person)
    _set(person, "person_id", person_id)
    _set(person, "region", region)
    return person


def new_auction(auction_id: int, seller: int) -> Auction:
    """``Auction(auction_id, seller)``, fields set in declaration order."""
    auction = _new(Auction)
    _set(auction, "auction_id", auction_id)
    _set(auction, "seller", seller)
    return auction


def new_bid(auction: int, bidder: int, price: int) -> Bid:
    """``Bid(auction, bidder, price)``, fields set in declaration order."""
    bid = _new(Bid)
    _set(bid, "auction", auction)
    _set(bid, "bidder", bidder)
    _set(bid, "price", price)
    _set(bid, "extra", _BID_EXTRA)
    return bid
