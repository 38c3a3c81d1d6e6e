"""DAG scheduler: concurrent jobs, pipelined stages, managed shuffles.

Walks an action's lineage graph, materializes every shuffle dependency
(each shuffle's map side is one *stage*), then runs the final result
stage.  This mirrors Spark's ``DAGScheduler``:

* narrow transformations pipeline into a single task — no data touches
  the "network" between a ``map`` and the ``filter`` above it (adjacent
  ``map``/``filter``/``flatMap`` layers additionally *fuse* into one
  per-partition loop, see ``rdd.py``);
* every :class:`~repro.sparklet.rdd.ShuffledRDD` cuts a stage boundary;
  its map stage partitions (and optionally map-side-combines) parent
  records into per-reduce-partition blocks held by the managed shuffle
  service;
* tasks carry the preferred worker of their partition, and the worker
  pool's placement policy decides whether that preference is honoured
  (the Fig-4 / S4 locality story).

Three properties shape the scheduler:

**Concurrent jobs.**  ``run_job`` holds no global lock.  Each shuffle's
materialization is guarded by its own :class:`_ShuffleState`: the first
job to need an unmaterialized shuffle *claims* it (one atomic flag flip
under a short registry lock) and computes the map stage; any concurrent
job sharing that lineage blocks on the state's event instead of
recomputing — every shuffle is materialized exactly once no matter how
many server requests or streaming batches race over it.

**Pipelined stage graph.**  The job plan records, per shuffle, the
shuffles it directly depends on.  Every claimed map stage is submitted
on its own driver thread and waits only on its *parents'* events, so
independent stages — both pre-aggregations feeding a ``join``, say —
run concurrently instead of in discovery order.

**Managed shuffle lifecycle.**  Shuffle outputs are refcounted by
liveness of their ``ShuffledRDD``: the registry holds only a weak
reference, and when the RDD is garbage-collected (the job's lineage is
no longer reachable — e.g. a streaming batch fell out of the window)
the blocks are freed and the ``sparklet.shuffle.live`` /
``.records_held`` gauges step back down.  While the RDD lives, repeated
actions keep reusing the materialized outputs (Spark's stage reuse).
``clear_shuffle_state`` remains as an explicit flush for experiments.
"""

from __future__ import annotations

import contextvars
import threading
import weakref
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
_M_SHUFFLE_LIVE = obs.get_registry().gauge("sparklet.shuffle.live")
_M_SHUFFLE_RECORDS = obs.get_registry().gauge("sparklet.shuffle.records_held")
_M_SHUFFLE_MATERIALIZED = obs.get_registry().counter(
    "sparklet.shuffle.materialized")
_M_SHUFFLE_REUSED = obs.get_registry().counter("sparklet.shuffle.reused")
_M_SHUFFLE_RELEASED = obs.get_registry().counter("sparklet.shuffle.released")
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
    shuffles_reused: int = 0        # found already materialized/in-flight

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    @property
    def locality_fraction(self) -> float:
        placed = self.local_tasks + self.remote_tasks
        return self.local_tasks / placed if placed else 1.0


class _ShuffleState:
    """One shuffle's lifecycle: claim flag, completion event, blocks.

    ``outputs``/``error`` are written once (by the claiming job's stage
    thread) before ``event`` is set; every other access happens after a
    successful ``event.wait()``, so no per-state lock is needed.
    """

    __slots__ = ("event", "outputs", "error", "claimed", "records", "ref")

    def __init__(self):
        self.event = threading.Event()
        self.outputs: list[list[list]] | None = None
        self.error: BaseException | None = None
        self.claimed = False
        self.records = 0
        self.ref: weakref.ref | None = None


class DAGScheduler:
    """Materializes shuffle stages and runs result stages."""

    def __init__(self, ctx: "SparkletContext"):
        self.ctx = ctx
        # shuffle_id -> _ShuffleState; guarded by _lock.  RLock because
        # the weakref release callback can fire from a GC triggered
        # while the owning thread already holds the lock.
        self._states: dict[int, _ShuffleState] = {}
        self._lock = threading.RLock()
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

    def fetch_shuffle(self, shuffle_id: int, reduce_index: int) -> list[list]:
        """All map-output blocks destined for one reduce partition."""
        with self._lock:
            state = self._states.get(shuffle_id)
        if state is None or state.outputs is None:
            raise KeyError(f"shuffle {shuffle_id} is not materialized")
        return [map_out[reduce_index] for map_out in state.outputs]

    def clear_shuffle_state(self) -> None:
        """Drop cached shuffle outputs (frees memory between experiments)."""
        with self._lock:
            for shuffle_id in list(self._states):
                self._release(shuffle_id)

    def shuffles_live(self) -> int:
        """Number of shuffle outputs currently held (tests/benches)."""
        with self._lock:
            return sum(1 for s in self._states.values()
                       if s.outputs is not None)

    # -- job execution ------------------------------------------------------

    def _run_job(self, rdd: "RDD", indices: Sequence[int] | None
                 ) -> list[list]:
        plan = self._plan(rdd)
        _M_ACTIVE_JOBS.inc()
        if _M_ACTIVE_JOBS.value > 1:
            _M_OVERLAPPED.inc()
        try:
            self._materialize(plan)
            with self._metrics_lock:
                self.ctx.metrics.jobs += 1
            _M_JOBS.inc()
            if indices is None:
                indices = range(rdd.num_partitions)
            return self._run_stage(rdd, list(indices))
        finally:
            _M_ACTIVE_JOBS.dec()

    # -- stage construction -------------------------------------------------

    def _plan(self, rdd: "RDD") -> dict[int, tuple["ShuffledRDD", set[int]]]:
        """Map every unmaterialized-reachable shuffle below *rdd* to its
        direct parent shuffles (the stage dependency graph).

        The walk prunes at fully-cached RDDs: their partitions replay
        from the cache, so nothing below them needs materializing.
        """
        from .rdd import ShuffledRDD

        plan: dict[int, tuple[ShuffledRDD, set[int]]] = {}
        pending: list[ShuffledRDD] = []

        def scan(root: "RDD") -> set[int]:
            """Shuffles reachable from *root* crossing no shuffle."""
            found: set[int] = set()
            stack: list[RDD] = [root]
            seen: set[int] = set()
            while stack:
                node = stack.pop()
                if node.rdd_id in seen:
                    continue
                seen.add(node.rdd_id)
                if node.is_fully_cached:
                    continue
                if isinstance(node, ShuffledRDD):
                    found.add(node.shuffle_id)
                    if node.shuffle_id not in plan:
                        plan[node.shuffle_id] = (node, set())
                        pending.append(node)
                    continue
                stack.extend(node.deps)
            return found

        scan(rdd)
        while pending:
            shuffled = pending.pop()
            plan[shuffled.shuffle_id] = (shuffled, scan(shuffled.parent))
        return plan

    def _materialize(self, plan: dict[int, tuple["ShuffledRDD", set[int]]]
                     ) -> None:
        """Materialize every planned shuffle, exactly once engine-wide."""
        if not plan:
            return
        states: dict[int, _ShuffleState] = {}
        owned: list[int] = []
        with self._lock:
            for shuffle_id, (shuffled, _parents) in plan.items():
                state = self._states.get(shuffle_id)
                if state is None:
                    state = _ShuffleState()
                    state.ref = weakref.ref(
                        shuffled,
                        lambda _r, sid=shuffle_id: self._on_rdd_collected(sid),
                    )
                    self._states[shuffle_id] = state
                    _M_SHUFFLE_LIVE.inc()
                states[shuffle_id] = state
            for shuffle_id in plan:
                state = states[shuffle_id]
                if not state.claimed:
                    state.claimed = True
                    owned.append(shuffle_id)
                else:
                    _M_SHUFFLE_REUSED.inc()
                    if not state.event.is_set():
                        _M_SHUFFLE_WAITS.inc()
                    with self._metrics_lock:
                        self.ctx.metrics.shuffles_reused += 1

        def work(shuffle_id: int) -> None:
            shuffled, parents = plan[shuffle_id]
            state = states[shuffle_id]
            try:
                for parent_id in sorted(parents):
                    parent_state = states[parent_id]
                    parent_state.event.wait()
                    if parent_state.error is not None:
                        raise parent_state.error
                self._run_map_stage(shuffled, state)
            except BaseException as exc:  # noqa: BLE001 - must wake waiters
                state.error = exc
            finally:
                state.event.set()

        if len(owned) <= 1:
            # Inline: one stage has nothing to overlap with.
            for shuffle_id in owned:
                work(shuffle_id)
        else:
            # Each under a copy of this thread's context, as run_tasks
            # does for tasks: the stage spans stay in the job's trace.
            threads = [
                threading.Thread(target=contextvars.copy_context().run,
                                 args=(work, shuffle_id),
                                 name=f"sparklet-stage-{shuffle_id}",
                                 daemon=True)
                for shuffle_id in owned
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Wait for shuffles materialized by concurrent jobs, then surface
        # the first failure (ours or theirs — shared lineage fails shared).
        failed: BaseException | None = None
        for shuffle_id in plan:
            state = states[shuffle_id]
            state.event.wait()
            if failed is None and state.error is not None:
                failed = state.error
        if failed is not None:
            # Un-stick errored states this job claimed so a later retry
            # over the same lineage recomputes instead of re-raising.
            with self._lock:
                for shuffle_id in owned:
                    state = states[shuffle_id]
                    if (state.error is not None
                            and self._states.get(shuffle_id) is state):
                        self._release(shuffle_id)
            raise failed

    # -- shuffle lifecycle ----------------------------------------------------

    def _on_rdd_collected(self, shuffle_id: int) -> None:
        """Weakref callback: the ShuffledRDD died, free its blocks."""
        with self._lock:
            self._release(shuffle_id)

    def _release(self, shuffle_id: int) -> None:
        """Drop one shuffle's state.  Caller holds ``_lock``."""
        state = self._states.pop(shuffle_id, None)
        if state is None:
            return
        _M_SHUFFLE_LIVE.dec()
        if state.outputs is not None:
            state.outputs = None
            _M_SHUFFLE_RECORDS.dec(state.records)
            _M_SHUFFLE_RELEASED.inc()

    # -- stage execution ------------------------------------------------------

    def _run_map_stage(self, shuffled: "ShuffledRDD",
                       state: _ShuffleState) -> None:
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
        state.outputs = results
        state.records = sum(len(block) for map_out in results
                            for block in map_out)
        _M_SHUFFLE_RECORDS.inc(state.records)
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
