"""Compact struct-based serde for NEXMark values.

Keeps stored bytes at the paper's sizes (16 B / 16 B / 84 B) instead of
pickle overhead.  Non-event values (accumulators, tagged tuples, query
outputs) fall back to pickle with a tag byte.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any

from repro.nexmark.model import Auction, Bid, Person

_TAG_PERSON = 0
_TAG_AUCTION = 1
_TAG_BID = 2
_TAG_PICKLE = 3
_TAG_INT = 4
_TAG_TAGGED_PERSON = 5  # ("P", Person) join inputs
_TAG_TAGGED_AUCTION = 6  # ("A", Auction)

_TWO_U64 = struct.Struct("<QQ")
_BID_HEAD = struct.Struct("<QQQ")
_I64 = struct.Struct("<q")

_PREFIX_PERSON = bytes((_TAG_PERSON,))
_PREFIX_AUCTION = bytes((_TAG_AUCTION,))
_PREFIX_BID = bytes((_TAG_BID,))
_PREFIX_PICKLE = bytes((_TAG_PICKLE,))
_PREFIX_INT = bytes((_TAG_INT,))
_PREFIX_TAGGED_PERSON = bytes((_TAG_TAGGED_PERSON,))
_PREFIX_TAGGED_AUCTION = bytes((_TAG_TAGGED_AUCTION,))


class NexmarkSerde:
    """Object <-> bytes codec for NEXMark streams and aggregates."""

    def serialize(self, obj: Any) -> bytes:
        if isinstance(obj, Bid):
            return _PREFIX_BID + _BID_HEAD.pack(obj.auction, obj.bidder, obj.price) + obj.extra
        if isinstance(obj, Person):
            return _PREFIX_PERSON + _TWO_U64.pack(obj.person_id, obj.region)
        if isinstance(obj, Auction):
            return _PREFIX_AUCTION + _TWO_U64.pack(obj.auction_id, obj.seller)
        if isinstance(obj, int) and 0 <= obj.bit_length() <= 62:
            return _PREFIX_INT + _I64.pack(obj)
        if isinstance(obj, tuple) and len(obj) == 2 and obj[0] == "P" and isinstance(obj[1], Person):
            return _PREFIX_TAGGED_PERSON + _TWO_U64.pack(obj[1].person_id, obj[1].region)
        if isinstance(obj, tuple) and len(obj) == 2 and obj[0] == "A" and isinstance(obj[1], Auction):
            return _PREFIX_TAGGED_AUCTION + _TWO_U64.pack(obj[1].auction_id, obj[1].seller)
        return _PREFIX_PICKLE + pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def deserialize(self, data: bytes) -> Any:
        tag = data[0]
        if tag == _TAG_BID:
            auction, bidder, price = _BID_HEAD.unpack_from(data, 1)
            return Bid(auction, bidder, price, bytes(data[1 + _BID_HEAD.size:]))
        if tag == _TAG_INT:
            return _I64.unpack_from(data, 1)[0]
        if tag == _TAG_PERSON:
            person_id, region = _TWO_U64.unpack_from(data, 1)
            return Person(person_id, region)
        if tag == _TAG_AUCTION:
            auction_id, seller = _TWO_U64.unpack_from(data, 1)
            return Auction(auction_id, seller)
        if tag == _TAG_TAGGED_PERSON:
            person_id, region = _TWO_U64.unpack_from(data, 1)
            return ("P", Person(person_id, region))
        if tag == _TAG_TAGGED_AUCTION:
            auction_id, seller = _TWO_U64.unpack_from(data, 1)
            return ("A", Auction(auction_id, seller))
        if tag == _TAG_PICKLE:
            return pickle.loads(data[1:])
        raise ValueError(f"unknown serde tag: {tag}")
