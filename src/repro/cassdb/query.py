"""Statement-level facade over :mod:`repro.cql` (the driver session).

The paper's analytics server "translates data query requests received
from the frontend and relays them to the backend database server in the
form of Cassandra Query Language (CQL) queries" (§III).  The actual
engine — tokenizer, parser, planner, optimizer, physical operators —
lives in :mod:`repro.cql`; this module keeps the driver-shaped surface
every caller already uses:

:class:`Session` — ``prepare()`` / ``execute()`` / ``explain()`` plus
the bounded LRU plan cache (keyed on :func:`normalize_cql`) whose
hit/miss/eviction counters feed the S5 benchmark.  The statement AST
types and :func:`parse_statement` live in :mod:`repro.cql`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Sequence

from repro import obs

# Submodule imports (not the repro.cql package) so this module can load
# while either package is still mid-initialization — repro.cql is
# layered on repro.cassdb, and repro.cassdb re-exports this facade.
from repro.cql.engine import Prepared, QueryEngine
from repro.cql.lexer import normalize_cql

from .cluster import Cluster, Consistency

__all__ = ["Session"]

# Plan-cache health, shared across sessions (the frontend pattern is
# many sessions issuing the same handful of statements).
_M_PLAN_HITS = obs.get_registry().counter("cassdb.query.plan_cache_hits")
_M_PLAN_MISSES = obs.get_registry().counter("cassdb.query.plan_cache_misses")
_M_PLAN_EVICTIONS = obs.get_registry().counter(
    "cassdb.query.plan_cache_evictions")

# Statements a session keeps planned (LRU beyond this).
PLAN_CACHE_SIZE = 256


class Session:
    """Statement-level facade over a :class:`Cluster` (driver session).

    Statements are planned through a bounded LRU cache keyed on the
    normalized statement text, so the frontend's repeated point-in-time
    SELECTs (same CQL, different ``?`` bindings) run the full
    tokenize → parse → plan → optimize → compile pipeline once.

    ``sparklet`` (a :class:`SparkletContext`) lets unrouted aggregate
    queries compile to DAG jobs; without one they fall back to a serial
    table scan.
    """

    def __init__(self, cluster: Cluster,
                 consistency: Consistency = Consistency.ONE, *,
                 sparklet: Any = None):
        self.cluster = cluster
        self.consistency = consistency
        self.engine = QueryEngine(cluster, sparklet=sparklet)
        self._plan_cache: OrderedDict[str, Prepared] = OrderedDict()
        self._plan_lock = threading.Lock()

    # -- plan cache ----------------------------------------------------------

    def prepare(self, statement: str) -> Prepared:
        """The (possibly cached) fully planned statement.

        Cached :class:`Prepared` objects are shared between executions
        and must be treated as immutable; parameter binding happens in a
        per-execution :class:`Runtime`, never on the plan.
        """
        key = normalize_cql(statement)
        with self._plan_lock:
            prepared = self._plan_cache.get(key)
            if prepared is not None:
                self._plan_cache.move_to_end(key)
                _M_PLAN_HITS.inc()
                return prepared
        _M_PLAN_MISSES.inc()
        prepared = self.engine.prepare(statement)
        with self._plan_lock:
            self._plan_cache[key] = prepared
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > PLAN_CACHE_SIZE:
                self._plan_cache.popitem(last=False)
                _M_PLAN_EVICTIONS.inc()
        return prepared

    def plan(self, statement: str):
        """``prepare(statement).ast``.  Nothing in the program calls it;
        ``benchmarks/e2e/trace.py`` wraps it as a ``cql``-layer span."""
        return self.prepare(statement).ast

    def clear_plan_cache(self) -> None:
        with self._plan_lock:
            self._plan_cache.clear()

    @property
    def plan_cache_len(self) -> int:
        return len(self._plan_cache)

    # -- execution -----------------------------------------------------------

    def execute(
        self, statement: str, params: Sequence[Any] = (),
        consistency: Consistency | None = None,
    ) -> list[dict[str, Any]]:
        """Plan (cached), bind and run one statement; SELECTs return row
        dicts."""
        return self.engine.execute(
            self.prepare(statement), params,
            consistency or self.consistency,
        )

    def explain(self, statement: str) -> dict[str, Any]:
        """The optimized plan for *statement* as a stable JSON tree
        (the ``EXPLAIN`` payload, with or without the keyword)."""
        return self.engine.explain_json(self.prepare(statement))
