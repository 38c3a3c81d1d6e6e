"""Worker pool: task placement and execution.

The paper co-locates one Spark worker with each Cassandra node
(§III-A) so that tasks can read their input partition without crossing
the network.  The :class:`WorkerPool` models that: it owns a list of
worker identifiers (mirroring the DB node ids when the context is
attached to a cluster) and assigns each task to a worker according to a
placement policy:

* ``"locality"`` — honour the task's preferred worker (the data's
  primary replica); fall back to round-robin when there is none;
* ``"round_robin"`` / ``"random"`` — ignore preferences (the baseline
  the S4 locality benchmark compares against).

Tasks run on a thread pool.  CPython's GIL means pure-Python tasks do
not speed up with thread count — the pool exists to model concurrent
task scheduling faithfully, not to win wall-clock time — so the
placement *metrics* (local vs remote tasks, remote records fetched) are
the primary observable, plus an optional simulated per-record remote
read cost for wall-clock experiments.
"""

from __future__ import annotations

import contextvars
import itertools
import random
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro import obs

__all__ = ["TaskMetrics", "TaskContext", "WorkerPool"]

_M_TASKS = obs.get_registry().counter("sparklet.tasks")
_M_TASK_DURATION = obs.get_registry().histogram("sparklet.task_duration_ms")
_M_TASK_RETRIES = obs.get_registry().counter("sparklet.task_retries")
_M_BLACKLISTED = obs.get_registry().counter("sparklet.workers_blacklisted")


@dataclass
class TaskMetrics:
    """Per-task counters, merged into the engine metrics after the task."""

    records_read: int = 0
    shuffle_records_read: int = 0
    shuffle_records_written: int = 0
    remote_records: int = 0


@dataclass
class TaskContext:
    """What a running task knows about itself."""

    worker: str
    partition: int
    metrics: TaskMetrics = field(default_factory=TaskMetrics)


def _run_task(fn: Callable[["TaskContext"], Any], tc: "TaskContext",
              gate=None) -> Any:
    """Execute one task under a span, timing it into the obs histogram."""
    start = time.perf_counter()
    with obs.get_tracer().span(
        "sparklet.task", worker=tc.worker, partition=tc.partition
    ) as span:
        if gate is not None:
            gate.on_task(tc.worker, tc.partition)
        result = fn(tc)
        span.set(records_read=tc.metrics.records_read)
    _M_TASKS.inc()
    _M_TASK_DURATION.observe((time.perf_counter() - start) * 1000.0)
    return result


class WorkerPool:
    """Thread-backed execution of placed tasks."""

    def __init__(
        self,
        workers: Sequence[str],
        placement: str = "locality",
        seed: int = 1234,
        max_threads: int | None = None,
        max_task_retries: int = 0,
        blacklist_after: int = 3,
    ):
        if not workers:
            raise ValueError("at least one worker required")
        if placement not in ("locality", "round_robin", "random"):
            raise ValueError(f"unknown placement policy: {placement!r}")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        self.workers = list(workers)
        self.placement = placement
        self._rr = itertools.count()
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max_threads or min(8, len(self.workers))
        )
        # Task retry + executor blacklisting: a failed task is
        # resubmitted (up to max_task_retries times) preferring workers
        # it has not tried; a worker accumulating blacklist_after
        # failures stops receiving tasks (at least one worker always
        # stays eligible).  blacklist_after=0 disables blacklisting.
        self.max_task_retries = max_task_retries
        self.blacklist_after = blacklist_after
        self.blacklisted: set[str] = set()
        self.worker_failures: dict[str, int] = {}
        # The concurrent scheduler submits stages from several driver
        # threads at once; failure bookkeeping is the only read-modify-
        # write shared state, so it takes a lock (assign() reads the
        # blacklist lock-free — a stale read only affects placement).
        self._failure_lock = threading.Lock()
        # Chaos injection point (repro.chaos FaultGate); None — the
        # permanent default — costs one attribute check per task.
        self.chaos_gate = None

    def assign(self, preferred: str | None,
               exclude: frozenset[str] | set[str] = frozenset()) -> str:
        """Pick the worker a task runs on.

        *exclude* holds workers this task already failed on (retry
        placement); blacklisted workers are avoided the same way.  When
        exclusions would leave no candidate, the full roster is used —
        placement degrades before it deadlocks.
        """
        avoid = self.blacklisted | exclude
        candidates = (
            [w for w in self.workers if w not in avoid] or self.workers
            if avoid else self.workers
        )
        if (
            self.placement == "locality"
            and preferred is not None
            and preferred in candidates
        ):
            return preferred
        if self.placement == "random":
            with self._rng_lock:
                return self._rng.choice(candidates)
        return candidates[next(self._rr) % len(candidates)]

    def _note_failure(self, worker: str) -> None:
        with self._failure_lock:
            count = self.worker_failures.get(worker, 0) + 1
            self.worker_failures[worker] = count
            if (
                self.blacklist_after > 0
                and count >= self.blacklist_after
                and worker not in self.blacklisted
                and len(self.blacklisted) + 1 < len(self.workers)
            ):
                self.blacklisted.add(worker)
                _M_BLACKLISTED.inc()

    def run_tasks(
        self,
        tasks: Sequence[tuple[Callable[[TaskContext], Any], str | None, int]],
    ) -> tuple[list[Any], list[TaskContext]]:
        """Run ``(fn, preferred_worker, partition_index)`` tasks.

        Returns results in task order plus each task's context (for
        metric merging by the scheduler).

        Each task runs inside a copy of the *submitting* thread's
        ``contextvars`` context, so the obs trace active at submit time
        (the stage span) keeps propagating into the long-lived pool
        threads — the server → job → stage → task span chain survives
        the thread hop.  A single task runs on the submitting thread
        itself; placement, span, chaos gate and retry loop are the same.

        A failed task is retried up to ``max_task_retries`` times on a
        worker it has not tried yet (its failures still count toward
        the worker's blacklist threshold).  Once a task exhausts its
        retries the call fails fast: queued tasks are cancelled and the
        first (in task order) exhausted failure re-raises immediately
        instead of draining every remaining future first.
        """
        gate = self.chaos_gate
        n = len(tasks)
        results: list[Any] = [None] * n
        contexts: list[TaskContext | None] = [None] * n
        attempts = [0] * n
        tried: list[set[str]] = [set() for _ in range(n)]

        def submit(i: int):
            fn, pref, idx = tasks[i]
            worker = self.assign(pref if not tried[i] else None,
                                 exclude=tried[i])
            tried[i].add(worker)
            tc = TaskContext(worker=worker, partition=idx)
            contexts[i] = tc
            run = contextvars.copy_context().run
            if n > 1:
                return self._pool.submit(run, _run_task, fn, tc, gate)
            # One task has nothing to overlap with: run it here and
            # settle the same kind of future the loop below reads.
            future: Future = Future()
            try:
                future.set_result(run(_run_task, fn, tc, gate))
            except Exception as exc:  # noqa: BLE001 - stored, read below
                future.set_exception(exc)
            return future

        pending: dict = {submit(i): i for i in range(n)}
        while pending:
            done, not_done = wait(pending, return_when=FIRST_EXCEPTION)
            settled = sorted((pending.pop(f), f) for f in done)
            fatal: BaseException | None = None
            retry_indices: list[int] = []
            for i, future in settled:
                if future.cancelled():
                    continue
                exc = future.exception()
                if exc is None:
                    results[i] = future.result()
                    continue
                self._note_failure(contexts[i].worker)
                attempts[i] += 1
                if fatal is None and attempts[i] <= self.max_task_retries:
                    retry_indices.append(i)
                elif fatal is None:
                    fatal = exc
            if fatal is not None:
                for f in not_done:
                    f.cancel()
                raise fatal
            for i in retry_indices:
                _M_TASK_RETRIES.inc()
                pending[submit(i)] = i
        return results, contexts

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
