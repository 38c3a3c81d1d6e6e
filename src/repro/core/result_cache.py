"""Server-side query-result cache: bounded LRU with TTL and staleness checks.

The frontend's maps are redrawn from the same context queries over and
over (paper §III: every pan/zoom re-issues the context query), so the
analytics server memoizes every op it answers on the event loop from its
request and the store, keyed on ``(op, canonical declared fields)``.
Staleness has one mechanism, **epoch validation**: an entry holds the
write epoch of each ``(table, bucket)`` its reads touched, recorded
before they read its data (``(table, None)``: an unbucketed table, or a
listing of a table's partitions), and a lookup whose epochs no longer
all match is a miss.  Every write reaches the store outside the server,
and an epoch advances once per commit landing rows in its bucket (a
``write_batch``, a hint replay, a repair push), so a write into the live
hour leaves replies over closed hours current.

A TTL backs it up.  All state is bounded (LRU beyond ``max_entries``)
and every outcome is counted in ``server.result_cache.*`` metrics.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro import obs

__all__ = ["ResultCache"]

_MISSING = object()


@dataclass(slots=True)
class _Entry:
    value: Any
    expires_at: float
    epochs: dict[Hashable, int]  # (table, bucket) -> epoch before the read


class ResultCache:
    """Bounded TTL+LRU mapping of query keys to results."""

    def __init__(
        self,
        max_entries: int = 256,
        ttl_seconds: float = 30.0,
        *,
        registry: obs.MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        registry = registry if registry is not None else obs.get_registry()
        self._m_hits = registry.counter("server.result_cache.hits")
        self._m_misses = registry.counter("server.result_cache.misses")
        self._m_evictions = registry.counter("server.result_cache.evictions")
        self._m_size = registry.gauge("server.result_cache.size")

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- public API ------------------------------------------------------

    def get(self, key: Hashable,
            epoch_of: Callable[[Hashable], int] | None = None) -> Any:
        """The cached value, or ``ResultCache.MISSING`` when absent or
        stale — past its TTL, or an epoch it holds is no longer what
        *epoch_of* (epoch key -> current epoch) answers."""
        if not self.enabled:
            return _MISSING
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stale = self._clock() >= entry.expires_at or (
                    epoch_of is not None
                    and any(epoch_of(k) != e for k, e in entry.epochs.items())
                )
                if stale:
                    del self._entries[key]
                    self._m_size.set(len(self._entries))
                else:
                    self._entries.move_to_end(key)
                    self._m_hits.inc()
                    return entry.value
        self._m_misses.inc()
        return _MISSING

    def put(self, key: Hashable, value: Any,
            epochs: dict[Hashable, int]) -> None:
        """Store *value*, current while every epoch in *epochs* (epoch
        key -> the epoch it had before the value's reads) still is."""
        if not self.enabled:
            return
        with self._lock:
            self._entries.pop(key, None)  # re-filled: newest in LRU order
            self._entries[key] = _Entry(
                value, self._clock() + self.ttl_seconds, epochs)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._m_evictions.inc()
            self._m_size.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._m_size.set(0)


ResultCache.MISSING = _MISSING
