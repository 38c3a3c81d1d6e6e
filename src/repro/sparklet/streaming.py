"""Micro-batch stream processing (Spark Streaming model).

The paper's real-time ingest sets "the time window of the Spark
streaming … to one second" and coalesces same-(type, location, second)
occurrences (§III-D).  This module provides that machinery:

* a :class:`StreamingContext` drives a **logical clock** — batches are
  processed when the test/driver calls :meth:`StreamingContext.advance`,
  so pipelines are deterministic (no wall-clock races);
* :class:`DStream` nodes form an operator graph; each batch interval the
  graph turns buffered input records into an RDD per stream and runs
  the registered outputs.  A batch has one partition per block its
  receiver cut (Spark Streaming's rule) and ours cuts one per interval,
  so every RDD minted for a batch is one partition and a keyed shuffle
  is as wide as the batch it receives: one map task, one result task;
* ``window`` unions the last *k* batches — the hook for the online
  analytics §III-D says the framework will grow.

Timestamps are plain floats (seconds).  A record pushed at time *t*
belongs to the batch covering ``[k·interval, (k+1)·interval)`` with
``k = floor(t / interval)``.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from typing import Any, Callable, TYPE_CHECKING

from .rdd import RDD

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkletContext

__all__ = ["StreamingContext", "DStream", "InputDStream"]


class DStream:
    """A discretized stream: one RDD per batch interval."""

    def __init__(self, ssc: "StreamingContext",
                 parent: "DStream | None" = None):
        self.ssc = ssc
        self.parent = parent    # None for an input stream

    # -- per-batch computation (overridden by subclasses) ------------------

    def compute(self, batch_index: int) -> RDD | None:
        raise NotImplementedError

    # -- transformations ------------------------------------------------------

    def transform(self, f: Callable[[RDD], RDD]) -> "DStream":
        return TransformedDStream(self, f)

    def map(self, f) -> "DStream":
        return self.transform(lambda rdd: rdd.map(f))

    def reduceByKey(self, f) -> "DStream":
        return self.transform(lambda r: r.reduceByKey(f, r.num_partitions))

    def window(self, window_batches: int, slide_batches: int = 1) -> "DStream":
        """Union of the last *window_batches* batches, every
        *slide_batches* batches (sizes in batch counts, like Spark's
        durations must be multiples of the batch interval)."""
        return WindowedDStream(self, window_batches, slide_batches)

    # -- outputs -----------------------------------------------------------------

    def foreachRDD(self, f: Callable[[RDD], None]) -> None:
        self.ssc._add_output(self, f)

    def collect_batches(self, sink: list) -> None:
        """Append each batch's collected records to *sink* (test helper)."""
        self.foreachRDD(lambda rdd: sink.append(rdd.collect()))


class InputDStream(DStream):
    """Entry point: records pushed by a receiver, bucketed by timestamp."""

    def __init__(self, ssc: "StreamingContext"):
        super().__init__(ssc)
        self._buckets: dict[int, list] = defaultdict(list)
        ssc._inputs.append(self)

    def push(self, record: Any, timestamp: float) -> None:
        """Deliver one record stamped with its event time (seconds).

        Safe to call from receiver threads while the batch loop runs:
        the clock lock makes the late-data clamp and the bucket append
        atomic against the loop sealing a batch, so a record either
        lands in a batch that has not started processing yet or is
        folded forward — never into a bucket already popped.
        """
        index = math.floor(timestamp / self.ssc.batch_interval)
        with self.ssc._clock_lock:
            if index < self.ssc._next_batch:
                # Late data: fold into the earliest unprocessed batch
                # rather than dropping it (simplest defensible policy).
                index = self.ssc._next_batch
            self._buckets[index].append(record)

    def compute(self, batch_index: int) -> RDD | None:
        with self.ssc._clock_lock:
            records = self._buckets.pop(batch_index, None)
        if not records:
            return None
        return self.ssc.sc.parallelize(records, 1)


class TransformedDStream(DStream):
    def __init__(self, parent: DStream, f: Callable[[RDD], RDD]):
        super().__init__(parent.ssc, parent)
        self.f = f

    def compute(self, batch_index: int) -> RDD | None:
        rdd = self.ssc._rdd_for(self.parent, batch_index)
        return None if rdd is None else self.f(rdd)


class WindowedDStream(DStream):
    def __init__(self, parent: DStream, window_batches: int, slide_batches: int):
        if window_batches < 1 or slide_batches < 1:
            raise ValueError("window/slide must be >= 1 batch")
        super().__init__(parent.ssc, parent)
        self.window_batches = window_batches
        self.slide_batches = slide_batches
        self.ssc._window = max(self.ssc._window, window_batches)

    def compute(self, batch_index: int) -> RDD | None:
        if (batch_index + 1) % self.slide_batches != 0:
            return None
        rdds = []
        for i in range(batch_index - self.window_batches + 1, batch_index + 1):
            if i < 0:
                continue
            rdd = self.ssc._rdd_for(self.parent, i)
            if rdd is not None:
                rdds.append(rdd)
        if not rdds:
            return None
        return self.ssc.sc.union(rdds)


class StreamingContext:
    """Drives DStream batches off a deterministic logical clock."""

    def __init__(self, sc: "SparkletContext", batch_interval: float = 1.0):
        if batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        self.sc = sc
        self.batch_interval = batch_interval
        self._outputs: list[tuple[DStream, Callable[[RDD], None]]] = []
        # Kept by the streams as they are built: where records buffer
        # and the widest window in batches.
        self._inputs: list[InputDStream] = []
        self._window = 1
        self._next_batch = 0
        # batch index -> id(stream) -> that batch's RDD (None: nothing).
        self._batch_cache: dict[int, dict[int, RDD | None]] = {}
        self._last_live = -math.inf  # newest batch that cached an RDD
        self.batches_run = 0
        # Guards _next_batch and every InputDStream's buckets: receiver
        # threads push() concurrently with the driver's batch loop.
        self._clock_lock = threading.Lock()

    # -- graph management -----------------------------------------------------

    def _add_output(self, stream: DStream, f: Callable[[RDD], None]) -> None:
        self._outputs.append((stream, f))

    def input_stream(self) -> InputDStream:
        return InputDStream(self)

    def queue_stream(self, batches: list[list]) -> InputDStream:
        """Pre-loaded input: batch *i* of *batches* arrives at batch *i*."""
        stream = InputDStream(self)
        for i, records in enumerate(batches):
            ts = i * self.batch_interval
            for record in records:
                stream.push(record, ts)
        return stream

    # -- execution ----------------------------------------------------------------

    def _rdd_for(self, stream: DStream, batch_index: int) -> RDD | None:
        batch = self._batch_cache.setdefault(batch_index, {})
        key = id(stream)
        if key not in batch:
            rdd = batch[key] = stream.compute(batch_index)
            if rdd is not None and batch_index > self._last_live:
                self._last_live = batch_index
        return batch[key]

    def run_batch(self) -> int:
        """Process exactly one batch; returns its index."""
        # Seal the batch up front: a record pushed while this batch is
        # processing clamps forward to the next one instead of landing
        # in (or racing with) a bucket the loop is about to pop.
        with self._clock_lock:
            index = self._next_batch
            self._next_batch = index + 1
        for stream, callback in self._outputs:
            rdd = self._rdd_for(stream, index)
            if rdd is not None:
                callback(rdd)
        self.batches_run += 1
        # Keep a window's worth of history; this batch pushed one out.
        self._batch_cache.pop(index - self._window, None)
        return index

    def advance(self, num_batches: int = 1) -> None:
        """Advance the logical clock by whole batches."""
        for _ in range(num_batches):
            self.run_batch()

    def advance_to(self, timestamp: float) -> None:
        """Process every batch whose interval ends at or before *timestamp*.

        Same outputs and ``batches_run`` as stepping one batch at a
        time, but a stretch in which nothing can fire is passed in one
        jump to the earliest buffered bucket (or the target): no cached
        RDD that a window still reaches, so every stream would compute
        None.
        """
        target = int(timestamp // self.batch_interval)
        if target * self.batch_interval > timestamp:  # float guard
            target -= 1
        while (self._next_batch + 1) * self.batch_interval <= timestamp:
            if not self._skip_idle(target):
                self.run_batch()

    def _skip_idle(self, target: int) -> bool:
        if self._next_batch - self._last_live < self._window:
            return False
        with self._clock_lock:  # atomic against push(), like run_batch
            if any(self._next_batch in s._buckets for s in self._inputs):
                return False
            skipped = min(
                [target] + [min(s._buckets) for s in self._inputs if s._buckets]
            ) - self._next_batch
            if skipped <= 0:
                return False
            self._next_batch += skipped
        self.batches_run += skipped
        self._batch_cache.clear()
        return True
