"""A storage node: one member of the masterless ring.

Every node is identical in role (paper §II-A: "unlike a legacy
master-slave architecture gives an identical role to each node"); any
node can coordinate any request.  A node owns one :class:`TableStore`
per table for the replicas placed on it, plus a liveness flag the
cluster flips to simulate failures, and a hint buffer for writes it
must replay to peers that were down (hinted handoff).  Rows arrive one
way, :meth:`StorageNode.write_rows`, as a column
:class:`~repro.cassdb.memtable.Batch`, however many there are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro import obs

from .errors import NodeDownError
from .memtable import Batch
from .row import ClusteringBound, Row
from .storage import TableStore
from .vector import BlockView, ColumnBlock

__all__ = ["Hint", "StorageNode"]

# Node ops are the innermost hot path; handles are module-level so a
# read costs one counter increment, not a registry lookup.
_M_NODE_READS = obs.get_registry().counter("cassdb.node.reads")
_M_NODE_WRITES = obs.get_registry().counter("cassdb.node.writes")


@dataclass(frozen=True, slots=True)
class Hint:
    """A buffered write destined for a replica that was down."""

    target_node: str
    table: str
    partition_key: tuple
    row: Row


class StorageNode:
    """One simulated Cassandra node.

    Liveness is two distinct bits:

    * ``process_up`` — the node's process answers requests.  A crashed
      node refuses reads and writes immediately, and its replica's
      breaker opens on the failures.
    * ``routing_up`` — the cluster-visible liveness coordinators route
      by.  It goes down only on an explicit kill, and that is the
      moment hint buffering starts.

    ``up`` (the name every coordinator check uses) is the routing bit.
    """

    def __init__(self, node_id: str, *, flush_threshold: int = 50_000,
                 max_sstables: int = 8):
        self.node_id = node_id
        self.process_up = True
        self.routing_up = True
        self._flush_threshold = flush_threshold
        self._max_sstables = max_sstables
        self.tables: dict[str, TableStore] = {}
        self.hints: list[Hint] = []  # hinted handoff buffer (held as coordinator)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"<StorageNode {self.node_id} [{state}] tables={len(self.tables)}>"

    # -- liveness -------------------------------------------------------

    @property
    def up(self) -> bool:
        return self.routing_up

    def mark_down(self) -> None:
        """Full failure: process dead and cluster knows (explicit kill)."""
        self.process_up = False
        self.routing_up = False

    def mark_up(self) -> None:
        self.process_up = True
        self.routing_up = True

    def crash(self) -> None:
        """The process dies silently; routing state is untouched until
        an admin kills it."""
        self.process_up = False

    def recover_process(self) -> None:
        """The process restarts; routing state is untouched."""
        self.process_up = True

    def _check_up(self) -> None:
        if not self.process_up:
            raise NodeDownError(self.node_id)

    # -- replica-local operations -----------------------------------------

    def write_rows(self, table: str, batch: Batch) -> None:
        """Apply *batch* to this replica — its share of a write batch,
        the hints replayed to it, a repair's push: one table lookup, one
        store-lock acquisition and one trace span for all of them."""
        self._check_up()
        _M_NODE_WRITES.inc(len(batch))
        store = self.tables.get(table)
        if store is None:
            store = self.tables[table] = TableStore(
                flush_threshold=self._flush_threshold,
                max_sstables=self._max_sstables)
        with obs.get_tracer().span("cassdb.node.write_rows", node=self.node_id,
                                   table=table, rows=len(batch)):
            store.write_rows(batch)

    def read_partition_view(
        self,
        table: str,
        partition_key: tuple,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
        reverse: bool = False,
        limit: int | None = None,
    ) -> BlockView:
        """The rows of one partition within clustering bounds, as
        the view :meth:`TableStore.read_partition_view` answers (the
        empty view when this node has no such table)."""
        self._check_up()
        _M_NODE_READS.inc()
        store = self.tables.get(table)
        if store is None:
            return BlockView(ColumnBlock.over_rows([]))
        with obs.get_tracer().span("cassdb.node.read", node=self.node_id,
                                   table=table) as span:
            view = store.read_partition_view(partition_key, lower, upper,
                                             reverse, limit)
            span.set(rows=len(view))
        return view

    def partition_keys(self, table: str) -> set[tuple]:
        """Partitions of *table* replicated on this node (liveness ignored:
        used for placement introspection, not serving reads)."""
        store = self.tables.get(table)
        return store.partition_keys() if store else set()

    # -- hinted handoff ----------------------------------------------------

    def buffer_hints(self, hints: Iterable[Hint]) -> None:
        """Buffer a write group's hints for one replica that missed it
        (called on a replica that applied the group)."""
        self.hints.extend(hints)

    def drain_hints_for(self, target_node: str) -> Iterator[Hint]:
        """Pop and yield buffered hints destined for *target_node*."""
        kept: list[Hint] = []
        for hint in self.hints:
            if hint.target_node == target_node:
                yield hint
            else:
                kept.append(hint)
        self.hints = kept
