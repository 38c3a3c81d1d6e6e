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
Cassandra partitions (§III-A).

Adjacent per-record transformations additionally *fuse*: ``map``,
``filter``, ``flatMap`` (and everything built on them — ``mapValues``,
``keys``, ``distinct``'s tagging layer, …) each tag their
:class:`MapPartitionsRDD` with a small ``(kind, fn)`` op descriptor.
At execution time a chain of op-tagged, uncached layers collapses into
one *compiled* per-partition loop (the whole-stage code-generation
analog): the chain's shape is rendered to Python source once, cached by
shape, and every record then flows through a single frame instead of
one nested generator frame per layer.  Structural pair ops —
``keys``/``values``/``keyBy``/``mapValues`` — inline as tuple
expressions, dropping their per-record wrapper-lambda call.  A cached
layer, or any ``mapPartitions``-level transformation, is a fusion
barrier: its iterator is still consulted so caching semantics are
byte-identical.
"""

from __future__ import annotations

import copy
import heapq
import random
import threading
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro import obs

from .partitioner import HashPartitioner, Partitioner, RangePartitioner

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
        self._cache: dict[int, list] | None = None

    # -- to be provided by subclasses -------------------------------------

    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, index: int, tc: "TaskContext") -> Iterable[Any]:
        raise NotImplementedError

    def preferred_worker(self, index: int) -> str | None:
        """Locality hint: the worker co-located with this partition's data."""
        return None

    # -- iteration with cache ----------------------------------------------

    def iterator(self, index: int, tc: "TaskContext") -> Iterator[Any]:
        if self._cache is not None:
            cached = self._cache.get(index)
            if cached is None:
                cached = list(self.compute(index, tc))
                self._cache[index] = cached
            return iter(cached)
        return iter(self.compute(index, tc))

    def cache(self) -> "RDD":
        """Memoize computed partitions (Spark's MEMORY_ONLY persist)."""
        if self._cache is None:
            self._cache = {}
        return self

    def unpersist(self) -> "RDD":
        self._cache = None
        return self

    @property
    def is_cached(self) -> bool:
        return self._cache is not None

    @property
    def is_fully_cached(self) -> bool:
        """True when every partition is already memoized (the scheduler
        prunes its lineage walk here: nothing below needs recomputing)."""
        cache = self._cache
        if cache is None:
            return False
        n = self.num_partitions
        return len(cache) >= n and all(i in cache for i in range(n))

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
        rdd = self.mapPartitions(lambda it: (f(x) for x in it))
        rdd.op = ("map", f)
        return rdd

    def filter(self, f: Callable[[Any], bool]) -> "RDD":
        rdd = self.mapPartitions(lambda it: (x for x in it if f(x)))
        rdd.op = ("filter", f)
        return rdd

    def flatMap(self, f: Callable[[Any], Iterable]) -> "RDD":
        rdd = self.mapPartitions(
            lambda it: (y for x in it for y in f(x))
        )
        rdd.op = ("flatmap", f)
        return rdd

    def glom(self) -> "RDD":
        """One list per partition (introspection/testing aid)."""
        return self.mapPartitions(lambda it: [list(it)])

    def keyBy(self, f: Callable[[Any], Any]) -> "RDD":
        rdd = self.map(lambda x: (f(x), x))
        rdd.op = ("keyby", f)
        return rdd

    def keys(self) -> "RDD":
        rdd = self.map(lambda kv: kv[0])
        rdd.op = ("keys", None)
        return rdd

    def values(self) -> "RDD":
        rdd = self.map(lambda kv: kv[1])
        rdd.op = ("values", None)
        return rdd

    def mapValues(self, f: Callable[[Any], Any]) -> "RDD":
        rdd = self.map(lambda kv: (kv[0], f(kv[1])))
        rdd.op = ("mapvalues", f)
        return rdd

    def flatMapValues(self, f: Callable[[Any], Iterable]) -> "RDD":
        rdd = self.flatMap(lambda kv: ((kv[0], v) for v in f(kv[1])))
        rdd.op = ("flatmapvalues", f)
        return rdd

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Bernoulli sample; deterministic given *seed* and partitioning."""
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")

        def sampler(index, it):
            rng = random.Random(seed * 1_000_003 + index)
            return (x for x in it if rng.random() < fraction)

        return self.mapPartitionsWithIndex(sampler)

    def zipWithIndex(self) -> "RDD":
        """(element, rank) pairs.  Requires one pass to size partitions."""
        sizes = self.mapPartitions(lambda it: [sum(1 for _ in it)]).collect()
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)

        def attach(index, it):
            return ((x, offsets[index] + i) for i, x in enumerate(it))

        return self.mapPartitionsWithIndex(attach)

    # ======================================================================
    # Wide (shuffle) transformations
    # ======================================================================

    def _default_parts(self, num_partitions: int | None) -> int:
        return num_partitions or self.ctx.default_parallelism

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
        part = HashPartitioner(self._default_parts(num_partitions))
        return ShuffledRDD(self, part, agg)

    def reduceByKey(self, f, num_partitions: int | None = None) -> "RDD":
        return self.combineByKey(lambda v: v, f, f, num_partitions)

    def foldByKey(self, zero, f, num_partitions: int | None = None) -> "RDD":
        return self.combineByKey(
            lambda v: f(zero, v), f, f, num_partitions
        )

    def aggregateByKey(
        self, zero, seq_func, comb_func, num_partitions: int | None = None
    ) -> "RDD":
        # ``zero`` may be mutable (e.g. a list); copy per key via the
        # create_combiner closure to avoid shared-state aliasing.
        return self.combineByKey(
            lambda v: seq_func(copy.deepcopy(zero), v),
            seq_func,
            comb_func,
            num_partitions,
        )

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

    def repartition(self, num_partitions: int) -> "RDD":
        """Round-robin reshuffle into *num_partitions* partitions."""
        def tag(index, it):
            return ((index + i, x) for i, x in enumerate(it))

        return (
            self.mapPartitionsWithIndex(tag)
            .partitionBy(HashPartitioner(num_partitions))
            .values()
        )

    def coalesce(self, num_partitions: int) -> "RDD":
        """Narrow merge of adjacent partitions (no shuffle)."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        return CoalescedRDD(self, min(num_partitions, self.num_partitions))

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

    def leftOuterJoin(self, other: "RDD",
                      num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flatMapValues(
            lambda lr: (
                (a, b) for a in lr[0] for b in (lr[1] or [None])
            )
        )

    def rightOuterJoin(self, other: "RDD",
                       num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flatMapValues(
            lambda lr: (
                (a, b) for b in lr[1] for a in (lr[0] or [None])
            )
        )

    def fullOuterJoin(self, other: "RDD",
                      num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flatMapValues(
            lambda lr: (
                (a, b)
                for a in (lr[0] or [None])
                for b in (lr[1] or [None])
            )
        )

    def sortBy(self, keyfunc: Callable[[Any], Any], ascending: bool = True,
               num_partitions: int | None = None) -> "RDD":
        """Globally sort by *keyfunc*.

        Note: samples the dataset to choose range-partition bounds, which
        triggers a job immediately (as Spark's RangePartitioner does).
        The sample is a bounded per-partition reservoir (≤ ~4096 keys
        total reach the driver), so bound selection is O(sample) driver
        memory no matter how large the dataset is.
        """
        n = self._default_parts(num_partitions)
        cap = max(64, 4096 // max(1, self.num_partitions))

        def sample_keys(index, it):
            rng = random.Random(7 * 1_000_003 + index)
            reservoir: list = []
            seen = 0
            for x in it:
                key = keyfunc(x)
                seen += 1
                if len(reservoir) < cap:
                    reservoir.append(key)
                else:
                    j = rng.randrange(seen)
                    if j < cap:
                        reservoir[j] = key
            return reservoir

        sample = self.mapPartitionsWithIndex(sample_keys).collect()
        partitioner = RangePartitioner.from_sample(sample, n)
        shuffled = self.keyBy(keyfunc).partitionBy(partitioner)
        out = shuffled.mapPartitions(
            lambda it: (
                v for _k, v in sorted(it, key=lambda kv: kv[0],
                                      reverse=not ascending)
            )
        )
        if not ascending:
            # Range partitions are ascending; reverse partition order by
            # reading them back-to-front.
            return ReversedPartitionsRDD(out)
        return out

    def sortByKey(self, ascending: bool = True,
                  num_partitions: int | None = None) -> "RDD":
        return self.sortBy(lambda kv: kv[0], ascending, num_partitions)

    def subtract(self, other: "RDD", num_partitions: int | None = None
                 ) -> "RDD":
        """Elements of self not present in other (set difference with
        multiplicity preserved on the left where the key is absent)."""
        return (
            self.map(lambda x: (x, True))
            .cogroup(other.map(lambda x: (x, True)), num_partitions)
            .flatMap(lambda kv: [kv[0]] * len(kv[1][0]) if not kv[1][1]
                     else [])
        )

    def intersection(self, other: "RDD",
                     num_partitions: int | None = None) -> "RDD":
        """Distinct elements present in both RDDs."""
        return (
            self.map(lambda x: (x, True))
            .cogroup(other.map(lambda x: (x, True)), num_partitions)
            .flatMap(lambda kv: [kv[0]] if kv[1][0] and kv[1][1] else [])
        )

    def cartesian(self, other: "RDD") -> "RDD":
        """All (a, b) pairs.  The right side is materialized and
        broadcast to every left partition (fine for modest sizes)."""
        right = other.collect()
        return self.flatMap(lambda a: ((a, b) for b in right))

    def zip(self, other: "RDD") -> "RDD":
        """Element-wise pairing; both sides must have equal lengths
        (zips by global rank, robust to differing partitioning)."""
        left = self.zipWithIndex().map(lambda xr: (xr[1], xr[0]))
        right = other.zipWithIndex().map(lambda xr: (xr[1], xr[0]))
        joined = left.join(right)
        n_left = self.count()
        if n_left != other.count():
            raise ValueError("can only zip RDDs with the same length")
        return joined.sortBy(lambda kv: kv[0]).map(lambda kv: kv[1])

    def sampleByKey(self, fractions: dict, seed: int = 17) -> "RDD":
        """Stratified Bernoulli sample: per-key sampling fractions."""
        for key, fraction in fractions.items():
            if not (0.0 <= fraction <= 1.0):
                raise ValueError(f"fraction for {key!r} not in [0, 1]")

        def sampler(index, it):
            rng = random.Random(seed * 1_000_003 + index)
            for kv in it:
                if rng.random() < fractions.get(kv[0], 0.0):
                    yield kv

        return self.mapPartitionsWithIndex(sampler)

    # ======================================================================
    # Actions
    # ======================================================================

    def collect(self) -> list:
        parts = self.ctx.scheduler.run_job(self)
        return [x for part in parts for x in part]

    def collectPartitions(self) -> list[list]:
        return self.ctx.scheduler.run_job(self)

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

    def fold(self, zero: Any, f: Callable[[Any, Any], Any]) -> Any:
        import copy

        def fold_part(it):
            acc = copy.deepcopy(zero)
            for x in it:
                acc = f(acc, x)
            return [acc]

        acc = copy.deepcopy(zero)
        for part in self.mapPartitions(fold_part).collect():
            acc = f(acc, part)
        return acc

    def aggregate(self, zero, seq_func, comb_func) -> Any:
        import copy

        def agg_part(it):
            acc = copy.deepcopy(zero)
            for x in it:
                acc = seq_func(acc, x)
            return [acc]

        acc = copy.deepcopy(zero)
        for part in self.mapPartitions(agg_part).collect():
            acc = comb_func(acc, part)
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

    def top(self, n: int, key: Callable[[Any], Any] | None = None) -> list:
        keyf = key or (lambda x: x)

        def top_part(it):
            return heapq.nlargest(n, it, key=keyf)

        partials = self.mapPartitions(top_part).collect()
        return heapq.nlargest(n, partials, key=keyf)

    def takeOrdered(self, n: int, key: Callable[[Any], Any] | None = None) -> list:
        keyf = key or (lambda x: x)
        partials = self.mapPartitions(
            lambda it: heapq.nsmallest(n, it, key=keyf)
        ).collect()
        return heapq.nsmallest(n, partials, key=keyf)

    def sum(self):
        return self.fold(0, lambda a, b: a + b)

    def max(self):
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self):
        return self.reduce(lambda a, b: a if a <= b else b)

    def mean(self) -> float:
        total, count = self.aggregate(
            (0.0, 0),
            lambda acc, x: (acc[0] + x, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if count == 0:
            raise ValueError("mean() of empty RDD")
        return total / count

    def stats(self) -> "StatCounter":
        """Count/mean/stdev/min/max in one pass (Spark's ``stats()``)."""
        def summarize(it):
            counter = StatCounter()
            for x in it:
                counter.merge_value(x)
            return [counter]

        total = StatCounter()
        for partial in self.mapPartitions(summarize).collect():
            total.merge_counter(partial)
        return total

    def stdev(self) -> float:
        return self.stats().stdev

    def variance(self) -> float:
        return self.stats().variance

    def histogram(self, buckets: int | list) -> tuple[list, list[int]]:
        """Bucketed counts (Spark's ``histogram``).

        An int asks for that many equal-width buckets over [min, max];
        a list gives explicit ascending bucket edges.  The last bucket
        is closed on both ends.
        """
        if isinstance(buckets, int):
            if buckets < 1:
                raise ValueError("buckets must be >= 1")
            stats = self.stats()
            if stats.count == 0:
                raise ValueError("histogram() of empty RDD")
            lo, hi = stats.min, stats.max
            if lo == hi:
                return [lo, hi], [stats.count]
            width = (hi - lo) / buckets
            edges = [lo + i * width for i in range(buckets)] + [hi]
        else:
            edges = list(buckets)
            if len(edges) < 2 or edges != sorted(edges):
                raise ValueError("bucket edges must be ascending, >= 2")
        n = len(edges) - 1

        def count_part(it):
            local = [0] * n
            for x in it:
                if x < edges[0] or x > edges[-1]:
                    continue
                import bisect as _bisect

                idx = min(_bisect.bisect_right(edges, x) - 1, n - 1)
                local[idx] += 1
            return [local]

        totals = [0] * n
        for local in self.mapPartitions(count_part).collect():
            for i, c in enumerate(local):
                totals[i] += c
        return edges, totals

    def takeSample(self, num: int, seed: int = 17) -> list:
        """A uniform random sample without replacement of size
        ``min(num, count)`` (materializes the RDD)."""
        if num < 0:
            raise ValueError("num must be >= 0")
        data = self.collect()
        if num >= len(data):
            return data
        rng = random.Random(seed)
        return rng.sample(data, num)

    def countByValue(self) -> dict:
        return dict(
            self.map(lambda x: (x, 1)).reduceByKey(lambda a, b: a + b).collect()
        )

    def countByKey(self) -> dict:
        return dict(
            self.mapValues(lambda _v: 1).reduceByKey(lambda a, b: a + b).collect()
        )

    def collectAsMap(self) -> dict:
        return dict(self.collect())

    def lookup(self, key: Any) -> list:
        return self.filter(lambda kv: kv[0] == key).values().collect()

    def isEmpty(self) -> bool:
        return not self.take(1)

    def foreach(self, f: Callable[[Any], None]) -> None:
        def run(it):
            for x in it:
                f(x)
            return []

        self.mapPartitions(run).collect()

    def saveToCassandra(self, cluster, table: str, row_func=None) -> int:
        """Write every element into a cassdb table (driver-side batching).

        ``row_func`` converts an element to a column mapping; defaults to
        identity (elements are already dicts).
        """
        conv = row_func or (lambda x: x)
        rows = self.collect()
        return cluster.insert_many(table, (conv(x) for x in rows))


_SENTINEL = object()


class StatCounter:
    """Welford-style running statistics, mergeable across partitions."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def merge_value(self, value) -> "StatCounter":
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        return self

    def merge_counter(self, other: "StatCounter") -> "StatCounter":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return self
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else float("nan")

    @property
    def stdev(self) -> float:
        import math

        return math.sqrt(self.variance) if self.count else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StatCounter(count={self.count}, mean={self.mean:.4g}, "
                f"stdev={self.stdev:.4g}, min={self.min}, max={self.max})")


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


_M_FUSED_CHAINS = obs.get_registry().counter("sparklet.fusion.chains")
_M_FUSED_OPS = obs.get_registry().counter("sparklet.fusion.ops_fused")

# Compiled chain bodies, keyed by the tuple of op kinds.  Two chains of
# the same shape share one code object (their fns arrive as arguments),
# so the cache stays tiny; past the cap we just compile per call.
_FUSED_CODE_CACHE: dict[tuple[str, ...], Callable] = {}
_FUSED_CODE_LOCK = threading.Lock()
_FUSED_CODE_CAP = 512


def _compile_ops(kinds: tuple[str, ...]) -> Callable:
    """Generate one per-partition function for an op-chain shape.

    The whole-stage-codegen analog: every op becomes a statement in a
    single loop body — one Python frame per partition instead of one
    generator frame per record per layer.  Structural pair ops
    (``keys``/``values``/``keyBy``/``mapValues``) inline as tuple
    expressions, eliminating their per-record wrapper-lambda call
    entirely; ``flatmap`` nests a ``for``.  A ``filter``'s ``continue``
    skips the current record of the innermost expansion, exactly like
    the nested-generator execution.
    """
    params: list[str] = []
    body: list[str] = []
    indent = "        "
    for i, kind in enumerate(kinds):
        fn = f"_f{i}"
        if kind == "map":
            params.append(fn)
            body.append(f"{indent}x = {fn}(x)")
        elif kind == "filter":
            params.append(fn)
            body.append(f"{indent}if not {fn}(x):")
            body.append(f"{indent}    continue")
        elif kind == "flatmap":
            params.append(fn)
            body.append(f"{indent}for x in {fn}(x):")
            indent += "    "
        elif kind == "mapvalues":
            params.append(fn)
            body.append(f"{indent}x = (x[0], {fn}(x[1]))")
        elif kind == "flatmapvalues":
            params.append(fn)
            body.append(f"{indent}_k{i} = x[0]")
            body.append(f"{indent}for _v{i} in {fn}(x[1]):")
            indent += "    "
            body.append(f"{indent}x = (_k{i}, _v{i})")
        elif kind == "keyby":
            params.append(fn)
            body.append(f"{indent}x = ({fn}(x), x)")
        elif kind == "keys":
            body.append(f"{indent}x = x[0]")
        elif kind == "values":
            body.append(f"{indent}x = x[1]")
        else:  # pragma: no cover - builders only emit the kinds above
            raise AssertionError(f"unknown fused op kind: {kind}")
    body.append(f"{indent}append(x)")
    args = ", ".join(["_it"] + params)
    source = (
        f"def _fused({args}):\n"
        "    out = []\n"
        "    append = out.append\n"
        "    for x in _it:\n"
        + "\n".join(body)
        + "\n    return out\n"
    )
    namespace: dict = {}
    exec(source, namespace)  # noqa: S102 - generated from a fixed grammar
    return namespace["_fused"]


def _run_fused(ops: list[tuple[str, Callable | None]], source: Iterable
               ) -> list:
    """Run a fused op chain over one partition's records.

    Eager per partition: the compiled body fills one output list in a
    single pass.  Record-level interleaving matches the lazy nested
    generators exactly (each record flows through the whole chain before
    the next is read); only partition-level laziness is given up, which
    the scheduler's result/map tasks materialize anyway.
    """
    kinds = tuple(kind for kind, _fn in ops)
    fused = _FUSED_CODE_CACHE.get(kinds)
    if fused is None:
        fused = _compile_ops(kinds)
        with _FUSED_CODE_LOCK:
            if len(_FUSED_CODE_CACHE) < _FUSED_CODE_CAP:
                _FUSED_CODE_CACHE[kinds] = fused
    fns = [fn for _kind, fn in ops if fn is not None]
    return fused(source, *fns)


class MapPartitionsRDD(RDD):
    """Narrow transformation of one parent (pipelined in-task).

    ``op`` is the fusion descriptor: per-record transformations built
    through :meth:`RDD.map` / :meth:`RDD.filter` / :meth:`RDD.flatMap`
    tag their layer with ``(kind, fn)``; raw ``mapPartitions(WithIndex)``
    layers leave it ``None`` and act as fusion barriers.
    """

    def __init__(self, parent: RDD, f: Callable[[int, Iterator], Iterable]):
        super().__init__(parent.ctx, deps=[parent])
        self.parent = parent
        self.f = f
        self.op: tuple[str, Callable] | None = None

    @property
    def num_partitions(self) -> int:
        return self.parent.num_partitions

    def preferred_worker(self, index):
        return self.parent.preferred_worker(index)

    def compute(self, index, tc):
        if self.op is not None:
            # Collapse the chain of adjacent per-record layers below us.
            # A cached layer breaks the chain: its iterator must run so
            # its memoized partitions are populated and reused.
            ops = [self.op]
            node = self.parent
            while (isinstance(node, MapPartitionsRDD)
                   and node.op is not None and not node.is_cached):
                ops.append(node.op)
                node = node.parent
            if len(ops) > 1:
                ops.reverse()
                _M_FUSED_CHAINS.inc()
                _M_FUSED_OPS.inc(len(ops))
                return _run_fused(ops, node.iterator(index, tc))
        return self.f(index, self.parent.iterator(index, tc))


class ReversedPartitionsRDD(RDD):
    """Reads the parent's partitions in reverse order (descending sorts)."""

    def __init__(self, parent: RDD):
        super().__init__(parent.ctx, deps=[parent])
        self.parent = parent

    @property
    def num_partitions(self) -> int:
        return self.parent.num_partitions

    def compute(self, index, tc):
        return self.parent.iterator(self.num_partitions - 1 - index, tc)


class CoalescedRDD(RDD):
    """Merge adjacent parent partitions without a shuffle."""

    def __init__(self, parent: RDD, num_partitions: int):
        super().__init__(parent.ctx, deps=[parent])
        self.parent = parent
        self._groups: list[list[int]] = [[] for _ in range(num_partitions)]
        for i in range(parent.num_partitions):
            self._groups[i * num_partitions // parent.num_partitions].append(i)

    @property
    def num_partitions(self) -> int:
        return len(self._groups)

    def compute(self, index, tc):
        for parent_index in self._groups[index]:
            yield from self.parent.iterator(parent_index, tc)


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

    The map side runs as a separate stage (see the scheduler); each
    reduce task then merges the combiners destined for its partition.
    """

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 aggregator: Aggregator | None):
        super().__init__(parent.ctx, deps=[parent])
        self.parent = parent
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.shuffle_id = self.ctx._next_shuffle_id()

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def compute(self, index, tc):
        blocks = self.ctx.scheduler.fetch_shuffle(self.shuffle_id, index)
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
                    # aliasing the cached shuffle block, as RDD.iterator
                    # hands out cached partitions.
                    merged[key] = combiner
                    continue
                # Spark's contract: merge_combiners may mutate its FIRST
                # argument only.  Both combiners live in cached shuffle
                # blocks that must stay intact for re-computation, so
                # the first one is copied once, before its first merge.
                if key not in private:
                    private.add(key)
                    merged[key] = copy.deepcopy(merged[key])
                merged[key] = merge(merged[key], combiner)
        yield from merged.items()
