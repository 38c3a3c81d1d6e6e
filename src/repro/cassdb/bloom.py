"""Bloom filter used by SSTables to skip reads for absent partitions.

Cassandra attaches a bloom filter to every SSTable so that a read for a
partition key only touches SSTables that *might* contain it.  The LSM
storage engine (``storage.py``) relies on the one guarantee a bloom
filter provides — **no false negatives** — which the property-based
tests pin down.

The implementation is a classic k-hash bit array.  The two hash values
are derived from a single MD5 digest (Kirsch–Mitzenmacher double
hashing: ``h_i = h1 + i * h2``), which matches how production filters
avoid k independent hash computations.  A partition key is a tuple of
values; the filter hashes its :func:`key_bytes` — never ``hash()``,
which ``PYTHONHASHSEED`` changes from run to run.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

__all__ = ["BloomFilter", "key_bytes"]


def key_bytes(key: tuple) -> bytes:
    """A partition key as a run's filter holds it: its ``repr``, which
    tells ``1`` from ``'1'``.  A read makes it once for every run."""
    return repr(key).encode("utf-8")


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
    def from_keys(cls, keys: Iterable[bytes | str], fp_rate: float = 0.01) -> "BloomFilter":
        """Build a filter sized to an already-materialized key set."""
        keys = list(keys)
        bf = cls(len(keys) or 1, fp_rate)
        for key in keys:
            bf.add(key)
        return bf

    def _hash_pair(self, key: bytes | str) -> tuple[int, int]:
        if isinstance(key, str):
            key = key.encode("utf-8")
        digest = hashlib.md5(key).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1  # odd => full period
        return h1, h2

    def _positions(self, key: bytes | str):
        h1, h2 = self._hash_pair(key)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: bytes | str) -> None:
        """Insert *key*; afterwards ``key in self`` is always True."""
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self._count += 1

    def __contains__(self, key: bytes | str) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(key)
        )

    def __len__(self) -> int:
        """Number of insertions performed (not distinct keys)."""
        return self._count
