"""Partitioners: how shuffled (key, value) records map to reduce tasks.

Mirrors Spark's ``HashPartitioner``, on the same stable MD5-derived
token as the cassdb ring so results are reproducible across runs
(Python's builtin ``hash`` is salted per process, which would make
shuffle placement — and therefore any placement-sensitive test —
nondeterministic).
"""

from __future__ import annotations

from typing import Any

from repro.cassdb.hashring import token_for_key

__all__ = ["Partitioner", "HashPartitioner"]


class Partitioner:
    """Base partitioner: maps a key to a reduce-partition index."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.num_partitions == other.num_partitions

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Stable hash partitioning of arbitrary (repr-able) keys."""

    def partition(self, key: Any) -> int:
        # One partition (every streaming window) has nothing to hash.
        if self.num_partitions == 1:
            return 0
        return token_for_key(repr(key)) % self.num_partitions

