"""DAG scheduler: concurrent jobs, stages cut at shuffles.

Walks an action's lineage graph, materializes every shuffle dependency
(each shuffle's map side is one *stage*), then runs the final result
stage.  This mirrors Spark's ``DAGScheduler``:

* narrow transformations pipeline into a single task — no data touches
  the "network" between a ``map`` and the ``filter`` above it;
* every :class:`~repro.sparklet.rdd.ShuffledRDD` cuts a stage boundary;
  its map stage partitions (and optionally map-side-combines) parent
  records into per-reduce-partition blocks kept on the RDD itself;
* tasks carry the preferred worker of their partition, and the worker
  pool's placement policy decides whether that preference is honoured
  (the Fig-4 / S4 locality story).

``run_job`` holds no global lock, so jobs run concurrently.  A shuffle
is materialized under its own ``ShuffledRDD.lock``, parents first: the
first job to take the lock runs the map stage, and a job sharing that
lineage blocks on the lock and then finds ``outputs`` set, so every
shuffle is materialized exactly once no matter how many server requests
or streaming batches race over it.  Locks are taken child before
parent, so a DAG cannot deadlock.  A failed map stage leaves
``outputs`` ``None`` and the next job over that lineage recomputes it.
The outputs live as long as their ``ShuffledRDD``: repeated actions
reuse them (Spark's stage reuse), and they are freed with the RDD.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import obs

from .executor import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkletContext
    from .rdd import RDD, ShuffledRDD

__all__ = ["EngineMetrics", "DAGScheduler"]

_M_JOBS = obs.get_registry().counter("sparklet.jobs")
_M_STAGES = obs.get_registry().counter("sparklet.stages")
_M_PARTITIONS = obs.get_registry().counter("sparklet.partitions_processed")
_M_RECORDS_READ = obs.get_registry().counter("sparklet.records_read")
_M_SHUFFLE_MATERIALIZED = obs.get_registry().counter(
    "sparklet.shuffle.materialized")
_M_SHUFFLE_REUSED = obs.get_registry().counter("sparklet.shuffle.reused")
_M_SHUFFLE_WAITS = obs.get_registry().counter("sparklet.shuffle.waits")
_M_ACTIVE_JOBS = obs.get_registry().gauge("sparklet.scheduler.active_jobs")
_M_OVERLAPPED = obs.get_registry().counter(
    "sparklet.scheduler.overlapped_jobs")


@dataclass
class EngineMetrics:
    """Cumulative engine counters (reset with ``reset()``)."""

    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    records_read: int = 0
    shuffle_records_written: int = 0
    shuffle_records_read: int = 0
    local_tasks: int = 0      # ran on their preferred worker
    remote_tasks: int = 0     # had a preference but ran elsewhere
    unplaced_tasks: int = 0   # no locality preference
    remote_records: int = 0   # records fetched across "the network"
    shuffles_materialized: int = 0  # map stages actually computed
    shuffles_reused: int = 0        # found already materialized

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    @property
    def locality_fraction(self) -> float:
        placed = self.local_tasks + self.remote_tasks
        return self.local_tasks / placed if placed else 1.0


def _shuffles_below(rdd: "RDD") -> list["ShuffledRDD"]:
    """The shuffles *rdd* reads through narrow dependencies only."""
    from .rdd import ShuffledRDD

    found: list[ShuffledRDD] = []
    stack: list[RDD] = [rdd]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if node.rdd_id in seen:
            continue
        seen.add(node.rdd_id)
        if isinstance(node, ShuffledRDD):
            found.append(node)
        else:
            stack.extend(node.deps)
    return found


class DAGScheduler:
    """Materializes shuffle stages and runs result stages."""

    def __init__(self, ctx: "SparkletContext"):
        self.ctx = ctx
        self._metrics_lock = threading.Lock()  # EngineMetrics writers

    # -- public API ---------------------------------------------------------

    def run_job(self, rdd: "RDD", indices: Sequence[int] | None = None
                ) -> list[list]:
        """Compute the given partitions of *rdd* (all by default)."""
        with obs.get_tracer().span(
            "sparklet.job", rdd=type(rdd).__name__,
            partitions=rdd.num_partitions,
        ):
            return self._run_job(rdd, indices)

    # -- job execution ------------------------------------------------------

    def _run_job(self, rdd: "RDD", indices: Sequence[int] | None
                 ) -> list[list]:
        _M_ACTIVE_JOBS.inc()
        if _M_ACTIVE_JOBS.value > 1:
            _M_OVERLAPPED.inc()
        try:
            for shuffled in _shuffles_below(rdd):
                self._materialize(shuffled)
            with self._metrics_lock:
                self.ctx.metrics.jobs += 1
            _M_JOBS.inc()
            if indices is None:
                indices = range(rdd.num_partitions)
            return self._run_stage(rdd, list(indices))
        finally:
            _M_ACTIVE_JOBS.dec()

    def _materialize(self, shuffled: "ShuffledRDD") -> None:
        """Fill ``shuffled.outputs`` once, engine-wide, parents first."""
        if shuffled.outputs is None:
            lock = shuffled.lock
            if not lock.acquire(blocking=False):
                _M_SHUFFLE_WAITS.inc()
                lock.acquire()
            try:
                if shuffled.outputs is None:
                    for parent in _shuffles_below(shuffled.parent):
                        self._materialize(parent)
                    self._run_map_stage(shuffled)
                    return
            finally:
                lock.release()
        _M_SHUFFLE_REUSED.inc()
        with self._metrics_lock:
            self.ctx.metrics.shuffles_reused += 1

    # -- stage execution ------------------------------------------------------

    def _run_map_stage(self, shuffled: "ShuffledRDD") -> None:
        parent = shuffled.parent
        partitioner = shuffled.partitioner
        aggregator = shuffled.aggregator
        num_reduce = partitioner.num_partitions

        def make_task(map_index: int):
            def task(tc: TaskContext) -> list[list]:
                buckets: list = [None] * num_reduce
                if aggregator is None:
                    for i in range(num_reduce):
                        buckets[i] = []
                    for record in parent.iterator(map_index, tc):
                        key = record[0]
                        buckets[partitioner.partition(key)].append(record)
                    tc.metrics.shuffle_records_written += sum(
                        len(b) for b in buckets
                    )
                    return buckets
                # Map-side combine: one dict per reduce bucket.
                dicts: list[dict] = [dict() for _ in range(num_reduce)]
                for key, value in parent.iterator(map_index, tc):
                    bucket = dicts[partitioner.partition(key)]
                    if key in bucket:
                        bucket[key] = aggregator.merge_value(bucket[key], value)
                    else:
                        bucket[key] = aggregator.create_combiner(value)
                out = [list(d.items()) for d in dicts]
                tc.metrics.shuffle_records_written += sum(len(b) for b in out)
                return out

            return task

        tasks = [
            (make_task(i), parent.preferred_worker(i), i)
            for i in range(parent.num_partitions)
        ]
        with obs.get_tracer().span("sparklet.stage", kind="shuffle_map",
                                   tasks=len(tasks)):
            results, contexts = self.ctx.pool.run_tasks(tasks)
        shuffled.outputs = results
        _M_SHUFFLE_MATERIALIZED.inc()
        with self._metrics_lock:
            self.ctx.metrics.shuffles_materialized += 1
        self._record_stage(tasks, contexts)

    def _run_stage(self, rdd: "RDD", indices: list[int]) -> list[list]:
        def make_task(index: int):
            def task(tc: TaskContext) -> list:
                return list(rdd.iterator(index, tc))

            return task

        tasks = [(make_task(i), rdd.preferred_worker(i), i) for i in indices]
        with obs.get_tracer().span("sparklet.stage", kind="result",
                                   tasks=len(tasks)):
            results, contexts = self.ctx.pool.run_tasks(tasks)
        self._record_stage(tasks, contexts)
        return results

    # -- metrics ----------------------------------------------------------------

    def _record_stage(self, tasks, contexts: list[TaskContext]) -> None:
        _M_STAGES.inc()
        _M_PARTITIONS.inc(len(tasks))
        _M_RECORDS_READ.inc(sum(tc.metrics.records_read for tc in contexts))
        with self._metrics_lock:
            m = self.ctx.metrics
            m.stages += 1
            m.tasks += len(tasks)
            for (_fn, preferred, _idx), tc in zip(tasks, contexts):
                if preferred is None:
                    m.unplaced_tasks += 1
                elif tc.worker == preferred:
                    m.local_tasks += 1
                else:
                    m.remote_tasks += 1
                m.records_read += tc.metrics.records_read
                m.shuffle_records_written += tc.metrics.shuffle_records_written
                m.shuffle_records_read += tc.metrics.shuffle_records_read
                m.remote_records += tc.metrics.remote_records
