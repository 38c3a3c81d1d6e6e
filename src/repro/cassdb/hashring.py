"""Consistent-hash token ring with virtual nodes.

Cassandra's "masterless ring design" (paper §II-A) maps every partition
key to a token on a fixed hash ring; each node owns a set of token ranges
and the ``replication_factor`` distinct nodes that follow a key's token
clockwise hold its replicas.  This module implements that placement logic
in isolation so that the F4 benchmark ("Event partitions mapped to
Cassandra nodes by hour and event types") can measure balance and
remapping properties directly.

Design notes
------------
* Tokens are 64-bit, derived from ``hashlib.md5`` (Cassandra's classic
  ``RandomPartitioner`` also used MD5; Murmur3 changes constants, not
  semantics).  MD5 gives us a stable, platform-independent ring so tests
  are deterministic across runs and machines.
* Virtual nodes (vnodes): each physical node owns ``vnodes`` tokens drawn
  deterministically from its identifier, which smooths ownership skew the
  same way Cassandra's ``num_tokens`` does.
* Lookups are O(log V) bisects over a sorted token array (V = total
  vnodes), the standard implementation idiom.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

__all__ = ["token_for_key", "HashRing"]

_TOKEN_BITS = 64
_TOKEN_MASK = (1 << _TOKEN_BITS) - 1


def token_for_key(key: str | bytes) -> int:
    """Map a partition key to a 64-bit token on the ring.

    Stable across processes and platforms (unlike ``hash()``, which is
    randomized per interpreter run).
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    digest = hashlib.md5(key).digest()
    return int.from_bytes(digest[:8], "big") & _TOKEN_MASK


class HashRing:
    """A consistent-hash ring assigning partition keys to replica sets.

    Parameters
    ----------
    nodes:
        Identifiers of the physical nodes initially in the ring.
    vnodes:
        Number of virtual tokens per physical node.  Higher values give a
        more even key distribution at slightly higher placement cost (the
        F4 ablation sweeps this).
    replication_factor:
        Number of *distinct physical nodes* holding each key.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        *,
        vnodes: int = 64,
        replication_factor: int = 1,
    ):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.vnodes = vnodes
        self.replication_factor = replication_factor
        self._tokens: list[int] = []          # sorted vnode tokens
        self._token_owner: dict[int, str] = {}  # token -> physical node id
        self._nodes: set[str] = set()
        for node in nodes:
            self.add_node(node)

    # -- membership ---------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        """The physical nodes currently in the ring."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def _vnode_tokens(self, node_id: str) -> list[int]:
        return [
            token_for_key(f"{node_id}#vnode{i}") for i in range(self.vnodes)
        ]

    def add_node(self, node_id: str) -> None:
        """Join a physical node; its vnode tokens are inserted in place."""
        if node_id in self._nodes:
            raise ValueError(f"node already in ring: {node_id!r}")
        self._nodes.add(node_id)
        for tok in self._vnode_tokens(node_id):
            # Token collisions across different node ids are possible in
            # principle (64-bit space); deterministic tie-break by owner id
            # keeps the ring well-defined.
            if tok in self._token_owner:
                if self._token_owner[tok] <= node_id:
                    continue
            else:
                bisect.insort(self._tokens, tok)
            self._token_owner[tok] = node_id

    # -- placement ----------------------------------------------------

    def primary(self, key: str | bytes) -> str:
        """The first replica (coordinator-preferred owner) for *key*."""
        return self.replicas(key)[0]

    def replicas(self, key: str | bytes, n: int | None = None) -> list[str]:
        """The ordered replica set for *key*.

        Walks the ring clockwise from the key's token collecting the first
        ``n`` (default: ``replication_factor``) *distinct* physical nodes —
        Cassandra's ``SimpleStrategy``.
        """
        if not self._nodes:
            raise RuntimeError("ring has no nodes")
        want = self.replication_factor if n is None else n
        want = min(want, len(self._nodes))
        tok = token_for_key(key)
        start = bisect.bisect_right(self._tokens, tok)
        out: list[str] = []
        seen: set[str] = set()
        total = len(self._tokens)
        for step in range(total):
            owner = self._token_owner[self._tokens[(start + step) % total]]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == want:
                    break
        return out

    # -- introspection (used by the F4 bench) -------------------------

    def ownership(self, sample_keys: Sequence[str]) -> dict[str, int]:
        """Count of sampled keys whose primary replica is each node."""
        counts: dict[str, int] = {node: 0 for node in self._nodes}
        for key in sample_keys:
            counts[self.primary(key)] += 1
        return counts
