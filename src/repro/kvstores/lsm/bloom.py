"""A simple double-hashing bloom filter for SSTable key membership."""

from __future__ import annotations

import hashlib


def hash_pair(key: bytes) -> tuple[int, int]:
    """The two hashes every probe of ``key`` derives its bit positions from;
    one pair serves the filters of every table a point read consults."""
    digest = hashlib.blake2b(key, digest_size=16).digest()
    return (
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little") | 1,  # odd step avoids cycles
    )


class BloomFilter:
    """Fixed-size bloom filter with Kirsch-Mitzenmacher double hashing."""

    def __init__(self, n_keys: int, bits_per_key: int = 10) -> None:
        # Round up to a whole byte so serialization round-trips exactly
        # (n_bits is recovered from the byte length on load).
        self._n_bits = (max(64, n_keys * bits_per_key) + 7) // 8 * 8
        self._n_hashes = max(1, min(12, int(round(bits_per_key * 0.69))))
        self._bits = bytearray((self._n_bits + 7) // 8)

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    @property
    def n_hashes(self) -> int:
        return self._n_hashes

    def add(self, key: bytes) -> None:
        # Probe i sets bit (h1 + i*h2) mod n_bits, stepped here in residues.
        h1, h2 = hash_pair(key)
        n_bits = self._n_bits
        bits = self._bits
        bit = h1 % n_bits
        step = h2 % n_bits
        for _ in range(self._n_hashes):
            bits[bit >> 3] |= 1 << (bit & 7)
            bit = (bit + step) % n_bits

    def may_contain(self, key: bytes) -> bool:
        return self.may_contain_hash(hash_pair(key))

    def may_contain_hash(self, key_hash: tuple[int, int]) -> bool:
        """:meth:`may_contain` for a key whose :func:`hash_pair` is known."""
        h1, h2 = key_hash
        n_bits = self._n_bits
        bits = self._bits
        bit = h1 % n_bits
        step = h2 % n_bits
        for _ in range(self._n_hashes):
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            bit = (bit + step) % n_bits
        return True

    def to_bytes(self) -> bytes:
        return bytes([self._n_hashes]) + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        filt = cls.__new__(cls)
        filt._n_hashes = data[0]
        filt._bits = bytearray(data[1:])
        filt._n_bits = len(filt._bits) * 8
        return filt
