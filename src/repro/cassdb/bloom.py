"""Bloom filter used by SSTables to skip reads for absent partitions.

Cassandra attaches a bloom filter to every SSTable so that a read for a
partition key only touches SSTables that *might* contain it.  The LSM
storage engine (``storage.py``) relies on the one guarantee a bloom
filter provides — **no false negatives** — which the property-based
tests pin down.

The implementation is a classic k-hash bit array.  The two hash values
are derived from a single MD5 digest (Kirsch–Mitzenmacher double
hashing: ``h_i = h1 + i * h2``), which matches how production filters
avoid k independent hash computations.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

__all__ = ["BloomFilter"]


class BloomFilter:
    """A fixed-size bloom filter sized for a target false-positive rate.

    Parameters
    ----------
    expected_items:
        Number of distinct keys the filter is sized for.
    fp_rate:
        Target false-positive probability at ``expected_items`` insertions.
    """

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items < 1:
            expected_items = 1
        if not (0.0 < fp_rate < 1.0):
            raise ValueError("fp_rate must be in (0, 1)")
        # Optimal parameters: m = -n ln p / (ln 2)^2 ; k = (m/n) ln 2
        ln2 = math.log(2.0)
        self.num_bits = max(8, int(-expected_items * math.log(fp_rate) / (ln2 * ln2)))
        self.num_hashes = max(1, round((self.num_bits / expected_items) * ln2))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0

    @classmethod
    def from_keys(cls, keys: Iterable[str], fp_rate: float = 0.01) -> "BloomFilter":
        """Build a filter sized to an already-materialized key set."""
        keys = list(keys)
        bf = cls(len(keys) or 1, fp_rate)
        for key in keys:
            bf.add(key)
        return bf

    def _hash_pair(self, key: str) -> tuple[int, int]:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full period
        return h1, h2

    def _positions(self, key: str):
        h1, h2 = self._hash_pair(key)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: str) -> None:
        """Insert *key*; afterwards ``key in self`` is always True."""
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self._count += 1

    def __contains__(self, key: str) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key)
        )

    def __len__(self) -> int:
        """Number of insertions performed (not distinct keys)."""
        return self._count
