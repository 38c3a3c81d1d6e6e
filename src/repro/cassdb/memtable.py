"""In-memory write buffer: the first stop of Cassandra's write path.

"When data is written to Cassandra, each data record is sorted and
written sequentially to disk" (paper §II-A).  The memtable is where that
sort happens; a flush writes it out as one immutable SSTable.

A memtable is an append-only log of rows kept as column lists —
clustering keys, each cell column's values, write timestamps and
presence — plus, per partition, the log positions of its rows.
:meth:`Memtable.append`, the one write entry, gathers a
:class:`Batch`'s rows onto the log and extends each partition's
positions: no per-row object, and one object per list for the cyclic
collector.  One log, not lists per partition: a node's share of the
ingest batches spreads over many partitions of a few rows
each, and one gather per column per batch costs far less than one
extend per column per partition.  A hinted or repaired ``Row`` becomes
a batch first (:meth:`Batch.of_rows`).

Last-write-wins is resolved when a read or the seal needs a partition
(:meth:`Memtable.resolved`).  Logs arrive in time order, so appended
keys usually ascend already and nothing is sorted; otherwise one sort
of the positions by clustering key brings a key's writes together and
:func:`~repro.cassdb.row.merge_rows` — the tie rule of every other
merge — reconciles them into one row appended to the log.  Nothing
is removed from the log before the flush, so ``row_count`` — the
flush trigger — counts every row it holds.  A
partition keeps one read *face*, its resolved rows gathered into a
plain block, from the first read after a write until the next write;
:meth:`Memtable.slice_partition_view` bisects it as a run's block is
bisected.  A flush gathers every partition's resolved rows in partition
order and keeps no face.
"""

from __future__ import annotations

from array import array
from functools import reduce
from itertools import chain, groupby, islice
from operator import lt
from typing import Iterable, Iterator, Sequence

from .row import ClusteringBound, Row, merge_rows, slice_bounds_keys
from .vector import BlockView, Column, ColumnBlock

__all__ = ["Batch", "MemPartition", "Memtable"]


class Batch:
    """A write's rows for one store: a plain block of rows and, per
    partition key, the offsets of its rows in the block.  Iterating
    yields the ``(partition key, offsets)`` pairs; ``len()`` is the row
    count."""

    __slots__ = ("block", "parts", "_rows")

    def __init__(self, block: ColumnBlock,
                 parts: list[tuple[tuple, Sequence[int]]]):
        self.block = block
        self.parts = parts
        self._rows = sum(len(offsets) for _pk, offsets in parts)

    def __iter__(self) -> Iterator[tuple[tuple, Sequence[int]]]:
        return iter(self.parts)

    def __len__(self) -> int:
        return self._rows

    @classmethod
    def of_rows(cls, items: Iterable[tuple[tuple, Row]]) -> "Batch":
        """``(partition key, row)`` pairs as a batch: where a hinted or
        repaired row becomes columns."""
        rows: list[Row] = []
        parts: dict[tuple, list[int]] = {}
        for pk, row in items:
            parts.setdefault(pk, []).append(len(rows))
            rows.append(row)
        return cls(ColumnBlock.transposed(rows), list(parts.items()))


class _Stamps:
    """A log column's write timestamps at a block's positions, read on
    demand: only ``row_at`` and a run's encode read a face's stamps
    (the log is append-only, so they never change)."""

    __slots__ = ("log", "positions")

    def __init__(self, log: list, positions: Sequence[int]):
        self.log, self.positions = log, positions

    def __getitem__(self, i: int) -> int:
        return self.log[self.positions[i]]

    def __iter__(self) -> Iterator[int]:
        return map(self.log.__getitem__, self.positions)


class MemPartition:
    """One partition of a memtable: the log positions of its rows — in
    append order past ``resolved``, in clustering order, one per key,
    before it — and its kept read face."""

    __slots__ = ("positions", "resolved", "face")

    def __init__(self):
        self.positions = array("q")
        self.resolved = 0
        self.face: ColumnBlock | None = None

    def __len__(self) -> int:
        return len(self.positions)


class Memtable:
    """Write buffer for one table on one storage node.

    Concurrency: appends, reads of the active memtable and the seal
    run under the store lock.  The seal resolves every partition, so a
    sealed memtable is only read — by readers and its flush at once; a
    read sets a partition's face, one attribute store.
    """

    def __init__(self):
        self.partitions: dict[tuple, MemPartition] = {}
        # The log: one entry per row appended, as column lists; a batch's
        # stamps are gathered once and shared by its columns.
        self.clustering: list[tuple] = []
        self.columns: dict[str, Column] = {}

    def append(self, batch: Batch) -> None:
        """Append *batch*'s rows to the log, partition after partition,
        and their positions to each partition — the one write entry."""
        n = self._extend(batch.block, list(chain.from_iterable(
            offsets for _pk, offsets in batch)))
        partitions = self.partitions
        for pk, offsets in batch:
            part = partitions.get(pk)
            if part is None:
                part = partitions[pk] = MemPartition()
            part.positions.extend(range(n, n + len(offsets)))
            part.face = None
            n += len(offsets)

    def _extend(self, block: ColumnBlock, rows: Sequence[int]) -> int:
        """Put *block*'s *rows* at the end of the log; returns the first
        position.  A column the block lacks is absent in those rows, one
        it brings is absent in the rows before."""
        n, k = len(self.clustering), len(rows)
        self.clustering += [block.clustering[i] for i in rows]
        columns = self.columns
        stamps: dict[int, list] = {}  # one gather per stamp array
        for name, cells in block.columns.items():
            col = columns.get(name)
            if col is None:
                col = columns[name] = Column(name, [None] * n, [0] * n,
                                             bytearray(n) if n else None)
            values = cells.values
            col.values += [values[i] for i in rows]
            key = id(cells.write_ts)
            if key not in stamps:
                stamps[key] = [cells.write_ts[i] for i in rows]
            col.write_ts += stamps[key]
            if cells.present is not None:
                if col.present is None:
                    col.present = bytearray(b"\x01" * n)
                present = cells.present
                col.present += bytes([present[i] for i in rows])
            elif col.present is not None:
                col.present += b"\x01" * k
        for name, col in columns.items():
            if name not in block.columns:
                col.values += [None] * k
                col.write_ts += [0] * k
                if col.present is None:
                    col.present = bytearray(b"\x01" * n)
                col.present += bytes(k)
        return n

    def resolved(self, partition_key: tuple) -> array:
        """The log positions of a partition's rows, ascending by
        clustering key, one per key with each cell its last write."""
        part = self.partitions[partition_key]
        positions = part.positions
        if part.resolved < len(positions):
            log = self.clustering
            keys = [log[i] for i in positions[max(part.resolved - 1, 0):]]
            if not all(map(lt, keys, islice(keys, 1, None))):
                positions = part.positions = self._sort(positions)
            part.resolved = len(positions)
        return positions

    def seal(self) -> None:
        """Resolve every partition: from here on the memtable is only
        read."""
        for pk in self.partitions:
            self.resolved(pk)

    def _sort(self, positions: array) -> array:
        """*positions* in clustering order; a key written more than once
        is replaced by its writes merged, appended to the log."""
        keys = self.clustering
        order = sorted(positions, key=keys.__getitem__)
        ordered = [keys[i] for i in order]
        if all(map(lt, ordered, islice(ordered, 1, None))):
            return array("q", order)
        log = ColumnBlock(keys, self.columns)
        kept: list[int | None] = []
        merged: list[Row] = []
        for _key, group in groupby(order, keys.__getitem__):
            group = list(group)
            kept.append(group[0] if len(group) == 1 else None)
            if len(group) > 1:
                merged.append(reduce(merge_rows, map(log.row_at, group)))
        first = self._extend(ColumnBlock.transposed(merged),
                             range(len(merged)))
        fresh = iter(range(first, first + len(merged)))
        return array("q", [next(fresh) if at is None else at for at in kept])

    def gather(self, positions: Sequence[int]) -> ColumnBlock:
        """The log's rows at *positions*, in that order, as a plain
        block (a column absent from all of them is left out)."""
        columns: dict[str, Column] = {}
        for name, col in self.columns.items():
            present = None
            if col.present is not None:
                log = col.present
                present = bytearray([log[i] for i in positions])
                if 1 not in present:
                    continue
                if 0 not in present:
                    present = None
            values = col.values
            columns[name] = Column(name, [values[i] for i in positions],
                                   _Stamps(col.write_ts, positions), present)
        log = self.clustering
        return ColumnBlock([log[i] for i in positions], columns)

    def slice_partition_view(
        self,
        partition_key: tuple,
        lower: ClusteringBound | None = None,
        upper: ClusteringBound | None = None,
    ) -> tuple[BlockView, int] | None:
        """The in-bounds slice of a partition plus the pruned-row count;
        ``None`` when the partition is absent — the contract of
        :meth:`SSTable.slice_partition_view`.

        The partition's face is bisected and the view is over the
        in-bounds offset range of it, as over a run's block.
        """
        part = self.partitions.get(partition_key)
        if part is None:
            return None
        face = part.face
        if face is None:
            face = part.face = self.gather(self.resolved(partition_key))
        lo, hi = slice_bounds_keys(face.clustering, lower, upper)
        return BlockView(face, range(lo, hi)), face.n - (hi - lo)

    def partition_keys(self) -> Iterator[tuple]:
        return iter(self.partitions)

    @property
    def row_count(self) -> int:
        """Rows the log holds (the flush trigger): a key written twice counts twice, and the row a read
        merges them into once more."""
        return len(self.clustering)

    def __len__(self) -> int:
        return len(self.clustering)
