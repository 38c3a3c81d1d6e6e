"""SparkletContext — the engine's entry point (PySpark's ``SparkContext``).

A context owns the worker pool, the DAG scheduler, and the factories
for input RDDs and accumulators.  Attach it to a cassdb
:class:`~repro.cassdb.cluster.Cluster` to get the paper's co-located
deployment: one worker per database node, with ``cassandraTable``
scans preferring the replica-local worker.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Sequence

from .accumulator import Accumulator
from .executor import WorkerPool
from .rdd import RDD, ParallelCollectionRDD, UnionRDD
from .scheduler import DAGScheduler, EngineMetrics
from .sources import CassandraTableRDD, TextFileRDD

__all__ = ["SparkletContext"]


class SparkletContext:
    """Entry point for building and running RDD jobs.

    Parameters
    ----------
    workers:
        Worker identifiers, or an int for ``worker00..workerNN``.
        Ignored when *cluster* is given (workers then mirror node ids,
        the paper's co-located layout).
    cluster:
        Optional cassdb cluster to attach (enables ``cassandraTable``).
    placement:
        Task placement policy: ``"locality"`` (default), ``"round_robin"``
        or ``"random"`` — see :class:`~repro.sparklet.executor.WorkerPool`.
    default_parallelism:
        Reduce-side partition count used when a wide transformation is
        not given one explicitly (defaults to the worker count).
    remote_read_cost:
        Simulated seconds per record charged when a ``cassandraTable``
        task reads a partition whose primary replica is on another
        node.  0 (default) records metrics only.
    max_task_retries / blacklist_after:
        Task-failure resilience (see
        :class:`~repro.sparklet.executor.WorkerPool`): failed tasks are
        rerun on untried workers up to ``max_task_retries`` times, and
        a worker accumulating ``blacklist_after`` failures stops
        receiving tasks.
    """

    def __init__(
        self,
        workers: Sequence[str] | int = 4,
        *,
        cluster=None,
        placement: str = "locality",
        default_parallelism: int | None = None,
        remote_read_cost: float = 0.0,
        max_threads: int | None = None,
        max_task_retries: int = 0,
        blacklist_after: int = 3,
    ):
        if cluster is not None:
            worker_ids = sorted(cluster.nodes)
        elif isinstance(workers, int):
            worker_ids = [f"worker{i:02d}" for i in range(workers)]
        else:
            worker_ids = list(workers)
        self.cluster = cluster
        self.remote_read_cost = remote_read_cost
        self.pool = WorkerPool(worker_ids, placement=placement,
                               max_threads=max_threads,
                               max_task_retries=max_task_retries,
                               blacklist_after=blacklist_after)
        self.default_parallelism = default_parallelism or len(worker_ids)
        self.metrics = EngineMetrics()
        self.scheduler = DAGScheduler(self)
        self._rdd_ids = itertools.count()
        self._acc_ids = itertools.count()
        self._id_lock = threading.Lock()

    # -- id generation (used by RDD machinery) ------------------------------

    def _next_rdd_id(self) -> int:
        with self._id_lock:
            return next(self._rdd_ids)

    # -- RDD factories --------------------------------------------------------

    def parallelize(self, data: Iterable[Any],
                    num_partitions: int | None = None) -> RDD:
        """Distribute a local collection."""
        return ParallelCollectionRDD(
            self, data, num_partitions or self.default_parallelism
        )

    def cassandraTable(self, table: str, split_factor: int = 1,
                       where: Callable[[dict], bool] | None = None,
                       *, fold=None, lower=None, upper=None
                       ) -> CassandraTableRDD:
        """Scan a table of the attached cluster with data locality;
        *fold*, *lower* and *upper* are the plan pushed into the replica
        read (see :class:`CassandraTableRDD`)."""
        if self.cluster is None:
            raise RuntimeError("context is not attached to a cassdb cluster")
        return CassandraTableRDD(self, self.cluster, table,
                                 split_factor=split_factor, where=where,
                                 fold=fold, lower=lower, upper=upper)

    def textFile(self, path: str, min_partitions: int | None = None) -> RDD:
        """Lines of a local file (the batch-ETL input path)."""
        return TextFileRDD(self, path, min_partitions or self.default_parallelism)

    def union(self, rdds: Sequence[RDD]) -> RDD:
        if not rdds:
            raise ValueError("union of no RDDs")
        if len(rdds) == 1:
            return rdds[0]
        return UnionRDD(self, list(rdds))

    # -- shared variables ------------------------------------------------------

    def accumulator(self, initial: Any,
                    merge: Callable[[Any, Any], Any] | None = None
                    ) -> Accumulator:
        with self._id_lock:
            return Accumulator(initial, next(self._acc_ids), merge)

    # -- lifecycle ---------------------------------------------------------------

    def reset_metrics(self) -> None:
        self.metrics.reset()

    def stop(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "SparkletContext":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
