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
import threading
from typing import Any, Callable, Iterable, Iterator, TYPE_CHECKING

from repro import obs

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
