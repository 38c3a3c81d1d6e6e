"""Server-side query-result cache: bounded LRU with TTL and staleness checks.

The frontend's maps are redrawn from the same point-in-time SELECTs over
and over (paper §III: every pan/zoom re-issues the context query), so
the analytics server memoizes SELECT results keyed on ``(normalized
statement, params)``.  Two staleness mechanisms compose:

* **explicit invalidation** — a write statement routed through the
  server drops every cached entry touching the written table;
* **epoch validation** — each entry records the backend's per-table
  write epoch read at the miss; a lookup whose epoch no longer matches is
  treated as a miss, which catches writes that bypass the server
  (batch/streaming ingestion straight into the cluster).  The epoch
  advances once per *commit* — a whole ``Cluster.write_batch`` bumps it
  once, and a failed (Unavailable) write not at all — so a micro-batch
  of 10k rows costs one invalidation, not 10k;

plus a TTL backstop for anything neither mechanism sees.  All state is
bounded (LRU beyond ``max_entries``) and every outcome is counted in
``server.result_cache.*`` metrics.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro import obs

__all__ = ["ResultCache"]

_MISSING = object()


@dataclass(slots=True)
class _Entry:
    value: Any
    expires_at: float
    epochs: dict[str, int]  # table -> backend write epoch at the miss


class ResultCache:
    """Bounded TTL+LRU mapping of query keys to results, by table."""

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
        self._by_table: dict[str, set[Hashable]] = {}
        registry = registry if registry is not None else obs.get_registry()
        self._m_hits = registry.counter("server.result_cache.hits")
        self._m_misses = registry.counter("server.result_cache.misses")
        self._m_evictions = registry.counter("server.result_cache.evictions")
        self._m_invalidations = registry.counter(
            "server.result_cache.invalidations")
        self._m_size = registry.gauge("server.result_cache.size")

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals (call with lock held) ---------------------------------

    def _drop(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for table in entry.epochs:
            keys = self._by_table.get(table)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_table[table]
        self._m_size.set(len(self._entries))

    # -- public API ------------------------------------------------------

    def get(self, key: Hashable,
            epoch_of: Callable[[str], int] | None = None) -> Any:
        """The cached value, or ``ResultCache.MISSING`` when absent/stale.

        *epoch_of* maps a table name to the backend's current write
        epoch; any mismatch with the entry's fill-time epochs means data
        changed underneath the cache and the entry is discarded.
        """
        if not self.enabled:
            return _MISSING
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stale = self._clock() >= entry.expires_at or (
                    epoch_of is not None
                    and any(epoch_of(t) != e for t, e in entry.epochs.items())
                )
                if stale:
                    self._drop(key)
                else:
                    self._entries.move_to_end(key)
                    self._m_hits.inc()
                    return entry.value
        self._m_misses.inc()
        return _MISSING

    def put(self, key: Hashable, value: Any, *,
            tables: Iterable[str],
            epoch_of: Callable[[str], int] | None = None) -> None:
        if not self.enabled:
            return
        epochs = {
            t: (epoch_of(t) if epoch_of is not None else 0) for t in tables
        }
        with self._lock:
            self._drop(key)
            self._entries[key] = _Entry(
                value, self._clock() + self.ttl_seconds, epochs)
            for table in epochs:
                self._by_table.setdefault(table, set()).add(key)
            while len(self._entries) > self.max_entries:
                oldest = next(iter(self._entries))
                self._drop(oldest)
                self._m_evictions.inc()
            self._m_size.set(len(self._entries))

    def invalidate_table(self, table: str) -> int:
        """Drop every entry whose result came from *table*."""
        with self._lock:
            keys = list(self._by_table.get(table, ()))
            for key in keys:
                self._drop(key)
            if keys:
                self._m_invalidations.inc(len(keys))
            return len(keys)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_table.clear()
            self._m_size.set(0)


ResultCache.MISSING = _MISSING
