"""Input RDDs: cassdb tables and text files.

:class:`CassandraTableRDD` is the bridge the whole paper is built on:
"a pair of a Spark worker node and a Cassandra node runs together …
to maximize data locality" (§III-A).  Each RDD partition covers the DB
partitions whose *primary replica* lives on one node, and declares that
node as its preferred worker; when the pool's placement policy honours
the preference the read is local, otherwise the records are counted as
remote traffic (and optionally charged a simulated per-record cost).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from .rdd import RDD

if TYPE_CHECKING:  # pragma: no cover
    from repro.cassdb.cluster import Cluster
    from repro.cassdb.row import ClusteringBound

    from .context import SparkletContext

__all__ = ["CassandraTableRDD", "TextFileRDD"]


class CassandraTableRDD(RDD):
    """Scan of one cassdb table, partitioned by primary-replica node.

    Parameters
    ----------
    split_factor:
        Number of RDD partitions per DB node.  1 mirrors the paper's
        one-worker-per-node layout; higher values expose more task
        parallelism at the same locality.
    where:
        Optional row predicate pushed into the scan (applied per row
        while reading, before any transformation).
    fold / lower / upper:
        The pushed plan (the connector's ``select``/``where``): each DB
        partition is read within the clustering bounds and the RDD
        holds one ``fold(partition_values, view)`` value per DB
        partition — *view* as the replica read answers it, see
        :meth:`Cluster.aggregate_partitions` — instead of one dict per
        row.  Without a fold it is a row scan.
    """

    def __init__(
        self,
        ctx: "SparkletContext",
        cluster: "Cluster",
        table: str,
        split_factor: int = 1,
        where: Callable[[dict], bool] | None = None,
        *,
        fold: Callable[[dict, Any], Any] | None = None,
        lower: "ClusteringBound | None" = None,
        upper: "ClusteringBound | None" = None,
    ):
        super().__init__(ctx, deps=[])
        if split_factor < 1:
            raise ValueError("split_factor must be >= 1")
        if fold is not None and where is not None:
            raise ValueError("where= filters the rows of a row scan; "
                             "a fold takes its predicates itself")
        self.cluster = cluster
        self.table = table
        self.where = where
        self.fold = fold
        self.lower = lower
        self.upper = upper
        # Snapshot placement at construction: each split is (node_id,
        # [partition keys]) with keys sorted for determinism.
        self._splits: list[tuple[str, list[str]]] = []
        for node_id, pks in sorted(cluster.partitions_by_node(table).items()):
            ordered = sorted(pks)
            if not ordered:
                continue
            chunk = -(-len(ordered) // split_factor)  # ceil division
            for i in range(0, len(ordered), chunk):
                self._splits.append((node_id, ordered[i:i + chunk]))
        if not self._splits:
            # Empty table: a single empty split keeps actions total.
            self._splits = [(next(iter(cluster.nodes)), [])]

    @property
    def num_partitions(self) -> int:
        return len(self._splits)

    def preferred_worker(self, index: int) -> str | None:
        return self._splits[index][0]

    def compute(self, index: int, tc):
        node_id, pks = self._splits[index]
        remote = tc.worker != node_id
        fold = self.fold or self.cluster.row_fold(self.table)
        read = 0  # rows the replica handed the fold

        def counted(pk_values, view):
            nonlocal read
            read = len(view)
            return fold(pk_values, view)

        for pk in pks:
            value = self.cluster.read_partition_raw(
                self.table, pk, lower=self.lower, upper=self.upper,
                fold=counted)
            tc.metrics.records_read += read
            if remote:
                tc.metrics.remote_records += read
                cost = self.ctx.remote_read_cost
                if cost > 0.0:
                    time.sleep(cost * read)
            if self.fold is not None:
                yield value
            elif self.where is None:
                yield from value
            else:
                yield from (r for r in value if self.where(r))


class TextFileRDD(RDD):
    """Lines of a text file, split into contiguous chunks.

    The file is read lazily per partition using byte offsets computed at
    construction, so a 4-partition RDD over a large log file does not
    hold the whole file in memory at once.
    """

    def __init__(self, ctx: "SparkletContext", path: str, min_partitions: int = 4):
        super().__init__(ctx, deps=[])
        self.path = path
        with open(path, "rb") as fh:
            fh.seek(0, 2)
            size = fh.tell()
            if size == 0 or min_partitions <= 1:
                self._ranges = [(0, size)]
                return
            # Split at the first newline at/after each nominal boundary so
            # no line straddles two partitions.
            step = size // min_partitions or 1
            cuts = [0]
            for i in range(1, min_partitions):
                target = i * step
                if target <= cuts[-1]:
                    continue
                fh.seek(target)
                fh.readline()  # advance to the end of the current line
                pos = fh.tell()
                if pos < size and pos > cuts[-1]:
                    cuts.append(pos)
            cuts.append(size)
            self._ranges = [
                (cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)
                if cuts[i + 1] > cuts[i]
            ]
            if not self._ranges:
                self._ranges = [(0, size)]

    @property
    def num_partitions(self) -> int:
        return len(self._ranges)

    def compute(self, index: int, tc):
        start, end = self._ranges[index]
        with open(self.path, "rb") as fh:
            fh.seek(start)
            count = 0
            while fh.tell() < end:
                line = fh.readline()
                if not line:
                    break
                count += 1
                yield line.decode("utf-8", errors="replace").rstrip("\n")
            tc.metrics.records_read += count
