"""Lazy, lineage-tracked RDDs — the sparklet programming model.

An :class:`RDD` is an immutable description of a distributed dataset:
a number of partitions, a ``compute(partition, task_context)`` recipe,
and the parent RDDs it derives from.  Transformations (``map``,
``filter``, ``reduceByKey``, ``join``…) build new RDDs lazily; actions
(``collect``, ``count``, ``reduce``…) hand the lineage graph to the DAG
scheduler, which splits it into stages at shuffle boundaries and runs
one task per partition (see ``scheduler.py``).

Narrow transformations pipeline inside a task (no materialization
between ``map`` and ``filter``); wide transformations go through an
in-memory shuffle with optional map-side combining, exactly the
MapReduce shape the paper's "big data processing unit" runs over
Cassandra partitions (§III-A).  A shuffle's map output lives on its
:class:`ShuffledRDD`, so it is reused for as long as that RDD lives.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from .partitioner import HashPartitioner, Partitioner

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkletContext
    from .scheduler import TaskContext

__all__ = [
    "RDD",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "UnionRDD",
    "ShuffledRDD",
    "Aggregator",
]


class Aggregator:
    """Map-side combine logic for a shuffle (Spark's ``Aggregator``)."""

    __slots__ = ("create_combiner", "merge_value", "merge_combiners")

    def __init__(self, create_combiner, merge_value, merge_combiners):
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners


class RDD:
    """Base RDD.  Subclasses define partitioning and ``compute``."""

    def __init__(self, ctx: "SparkletContext", deps: list["RDD"]):
        self.ctx = ctx
        self.deps = deps
        self.rdd_id = ctx._next_rdd_id()

    # -- to be provided by subclasses -------------------------------------

    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, index: int, tc: "TaskContext") -> Iterable[Any]:
        raise NotImplementedError

    def preferred_worker(self, index: int) -> str | None:
        """Locality hint: the worker co-located with this partition's data."""
        return None

    def iterator(self, index: int, tc: "TaskContext") -> Iterator[Any]:
        return iter(self.compute(index, tc))

    def getNumPartitions(self) -> int:
        return self.num_partitions

    # ======================================================================
    # Narrow transformations
    # ======================================================================

    def mapPartitionsWithIndex(
        self, f: Callable[[int, Iterator], Iterable]
    ) -> "MapPartitionsRDD":
        return MapPartitionsRDD(self, f)

    def mapPartitions(self, f: Callable[[Iterator], Iterable]) -> "RDD":
        return self.mapPartitionsWithIndex(lambda _i, it: f(it))

    def map(self, f: Callable[[Any], Any]) -> "RDD":
        return self.mapPartitions(lambda it: (f(x) for x in it))

    def filter(self, f: Callable[[Any], bool]) -> "RDD":
        return self.mapPartitions(lambda it: (x for x in it if f(x)))

    def flatMap(self, f: Callable[[Any], Iterable]) -> "RDD":
        return self.mapPartitions(lambda it: (y for x in it for y in f(x)))

    def keyBy(self, f: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda x: (f(x), x))

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def mapValues(self, f: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda kv: (kv[0], f(kv[1])))

    def flatMapValues(self, f: Callable[[Any], Iterable]) -> "RDD":
        return self.flatMap(lambda kv: ((kv[0], v) for v in f(kv[1])))

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    # ======================================================================
    # Wide (shuffle) transformations
    # ======================================================================

    def partitionBy(self, partitioner: Partitioner) -> "ShuffledRDD":
        """Redistribute (key, value) pairs by key, no combining."""
        return ShuffledRDD(self, partitioner, aggregator=None)

    def combineByKey(
        self,
        create_combiner,
        merge_value,
        merge_combiners,
        num_partitions: int | None = None,
    ) -> "RDD":
        agg = Aggregator(create_combiner, merge_value, merge_combiners)
        part = HashPartitioner(
            num_partitions or self.ctx.default_parallelism)
        return ShuffledRDD(self, part, agg)

    def reduceByKey(self, f, num_partitions: int | None = None) -> "RDD":
        return self.combineByKey(lambda v: v, f, f, num_partitions)

    def groupByKey(self, num_partitions: int | None = None) -> "RDD":
        def merge_lists(a, b):
            a.extend(b)
            return a

        return self.combineByKey(
            lambda v: [v], lambda acc, v: (acc.append(v) or acc),
            merge_lists, num_partitions,
        )

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        return (
            self.map(lambda x: (x, None))
            .reduceByKey(lambda a, _b: a, num_partitions)
            .keys()
        )

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """(key, (values_self, values_other)) with both sides grouped."""
        tagged = self.mapValues(lambda v: (0, v)).union(
            other.mapValues(lambda v: (1, v))
        )
        def split(groups):
            left = [v for tag, v in groups if tag == 0]
            right = [v for tag, v in groups if tag == 1]
            return (left, right)

        return tagged.groupByKey(num_partitions).mapValues(split)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flatMapValues(
            lambda lr: ((a, b) for a in lr[0] for b in lr[1])
        )

    # ======================================================================
    # Actions
    # ======================================================================

    def collect(self) -> list:
        parts = self.ctx.scheduler.run_job(self)
        return [x for part in parts for x in part]

    def count(self) -> int:
        return sum(self.mapPartitions(lambda it: [sum(1 for _ in it)]).collect())

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        def reduce_part(it):
            acc = _SENTINEL
            for x in it:
                acc = x if acc is _SENTINEL else f(acc, x)
            return [] if acc is _SENTINEL else [acc]

        partials = self.mapPartitions(reduce_part).collect()
        if not partials:
            raise ValueError("reduce() of empty RDD")
        acc = partials[0]
        for x in partials[1:]:
            acc = f(acc, x)
        return acc

    def take(self, n: int) -> list:
        """First *n* elements, computing partitions incrementally."""
        if n <= 0:
            return []
        out: list = []
        for index in range(self.num_partitions):
            out.extend(
                self.ctx.scheduler.run_job(self, indices=[index])[0]
            )
            if len(out) >= n:
                break
        return out[:n]

    def first(self) -> Any:
        got = self.take(1)
        if not got:
            raise ValueError("first() of empty RDD")
        return got[0]

    def collectAsMap(self) -> dict:
        return dict(self.collect())


_SENTINEL = object()


# ==========================================================================
# Concrete RDDs
# ==========================================================================

class ParallelCollectionRDD(RDD):
    """A local collection sliced into partitions."""

    def __init__(self, ctx, data: Iterable, num_partitions: int):
        super().__init__(ctx, deps=[])
        data = list(data)
        n = max(1, min(num_partitions, max(1, len(data))))
        self._slices: list[list] = [[] for _ in range(n)]
        # Contiguous slicing (like Spark), not round-robin: preserves order.
        base, extra = divmod(len(data), n)
        start = 0
        for i in range(n):
            size = base + (1 if i < extra else 0)
            self._slices[i] = data[start:start + size]
            start += size

    @property
    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, index, tc):
        return iter(self._slices[index])


class MapPartitionsRDD(RDD):
    """Narrow transformation of one parent (pipelined in-task)."""

    def __init__(self, parent: RDD, f: Callable[[int, Iterator], Iterable]):
        super().__init__(parent.ctx, deps=[parent])
        self.parent = parent
        self.f = f

    @property
    def num_partitions(self) -> int:
        return self.parent.num_partitions

    def preferred_worker(self, index):
        return self.parent.preferred_worker(index)

    def compute(self, index, tc):
        return self.f(index, self.parent.iterator(index, tc))


class UnionRDD(RDD):
    """Concatenation of several parents' partitions."""

    def __init__(self, ctx, parents: list[RDD]):
        super().__init__(ctx, deps=list(parents))
        self._index_map: list[tuple[RDD, int]] = [
            (p, i) for p in parents for i in range(p.num_partitions)
        ]

    @property
    def num_partitions(self) -> int:
        return len(self._index_map)

    def preferred_worker(self, index):
        parent, pidx = self._index_map[index]
        return parent.preferred_worker(pidx)

    def compute(self, index, tc):
        parent, pidx = self._index_map[index]
        return parent.iterator(pidx, tc)


class ShuffledRDD(RDD):
    """Wide transformation: repartition (and optionally combine) by key.

    The map side runs as a separate stage: the scheduler fills
    ``outputs`` (per map task, one block per reduce partition) once,
    under ``lock``, and a failed stage leaves it ``None``.  Each reduce
    task then merges the combiners destined for its partition.  The
    outputs are reused by every later action and freed with this RDD.
    """

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 aggregator: Aggregator | None):
        super().__init__(parent.ctx, deps=[parent])
        self.parent = parent
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.lock = threading.Lock()
        self.outputs: list[list[list]] | None = None

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def compute(self, index, tc):
        blocks = [map_out[index] for map_out in self.outputs]
        tc.metrics.shuffle_records_read += sum(len(b) for b in blocks)
        if self.aggregator is None:
            for block in blocks:
                yield from block
            return
        merge = self.aggregator.merge_combiners
        merged: dict = {}
        private: set = set()
        for block in blocks:
            for key, combiner in block:
                if key not in merged:
                    # Adopted as is: a key seen once is handed on still
                    # aliasing its block in ``outputs``.
                    merged[key] = combiner
                    continue
                # Spark's contract: merge_combiners may mutate its FIRST
                # argument only.  Both combiners live in ``outputs``,
                # which must stay intact for the next action's reuse, so
                # the first one is copied once, before its first merge.
                if key not in private:
                    private.add(key)
                    merged[key] = copy.deepcopy(merged[key])
                merged[key] = merge(merged[key], combiner)
        yield from merged.items()
