"""Server-side query-result cache: bounded LRU with TTL and staleness checks.

The frontend's maps are redrawn from the same point-in-time SELECTs over
and over (paper §III: every pan/zoom re-issues the context query), so
the analytics server memoizes SELECT results keyed on ``(normalized
statement, params)``.  Staleness has one mechanism, **epoch
validation**: each entry records the backend's per-table write epoch
read at the miss, and a lookup whose epoch no longer matches is treated
as a miss.  Every write reaches the store outside the server (batch and
streaming ingestion straight into the cluster; CQL only reads), and the
epoch advances once per *commit* — a whole ``Cluster.write_batch`` bumps
it once, and a failed (Unavailable) write not at all — so a micro-batch
of 10k rows advances it once, not 10k times.

A TTL backs it up.  All state is bounded (LRU beyond ``max_entries``)
and every outcome is counted in ``server.result_cache.*`` metrics.
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
                    del self._entries[key]
                    self._m_size.set(len(self._entries))
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
