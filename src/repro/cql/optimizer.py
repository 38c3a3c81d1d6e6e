"""Rule-based optimizer: push work down into the scan.

Each rule is a named pass over the logical plan; every application
increments ``cql.optimizer.rule_applied{rule=...}`` so plan-shape
regressions show up in metrics, not just in the golden tests.

* ``partition_key_routing`` — ``pk = v`` / ``pk IN (...)`` terms leave
  the Filter and become the scan's routing constraints (single-partition
  or IN fan-out).  A plain SELECT without full routing is rejected, as
  CQL does; an *aggregate* without routing downgrades the scan to a
  full table scan, which compiles to a sparklet DAG job — the paper's
  "simple queries to Cassandra, complex ones to Spark" split.
* ``predicate_pushdown`` — range/equality terms on the first clustering
  column become clustering bounds, feeding the memtable and SSTable
  slice bisects (out-of-range rows are pruned before any merge work) —
  of a routed scan and of an unrouted aggregate's full scan alike.  At
  most one lower and one upper bound are pushed; further terms on the
  column stay in the residual filter.
* ``projection_pushdown`` — only columns the rest of the plan actually
  references are materialized out of the store.
* ``limit_pushdown`` — a LIMIT over a bare single-partition scan is
  enforced inside the storage read (early-exit k-way merge).
* ``aggregate_pushdown`` — count/min/max/avg/sum (optionally GROUP BY)
  over a routed scan computes *partial* aggregates at the replica read
  and ships only partials; the coordinator merges instead of shipping
  rows.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import obs

from .ast import Predicate
from .errors import CQLPlanningError
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
)

__all__ = ["RULE_NAMES", "optimize"]


def _pos_kw(p: Predicate) -> dict[str, Any]:
    if p.pos is None:
        return {"token": p.column}
    return {"line": p.pos[0], "column": p.pos[1], "token": p.column}


def _linearize(plan: LogicalNode) -> list[LogicalNode]:
    """Top-to-bottom operator chain (plans are strictly unary)."""
    nodes = [plan]
    while True:
        child = getattr(nodes[-1], "child", None)
        if child is None:
            return nodes
        nodes.append(child)


def _splice_out(plan: LogicalNode, node: LogicalNode) -> LogicalNode:
    """Remove a unary *node* from the chain, returning the new root."""
    if plan is node:
        return node.child
    for candidate in _linearize(plan):
        if getattr(candidate, "child", None) is node:
            candidate.child = node.child
            return plan
    raise AssertionError("node not in plan")


def _find(plan: LogicalNode, kind) -> Any:
    for node in _linearize(plan):
        if isinstance(node, kind):
            return node
    return None


# --------------------------------------------------------------------------
# Rules — each returns (new_plan, times_applied)
# --------------------------------------------------------------------------

def _rule_partition_key_routing(plan: LogicalNode
                                ) -> tuple[LogicalNode, int]:
    scan = _find(plan, LogicalScan)
    if scan is None or scan.key_specs is not None or scan.full_scan:
        return plan, 0
    filt = _find(plan, LogicalFilter)
    schema = scan.schema
    pk_cols = set(schema.partition_key)
    has_aggregate = _find(plan, LogicalAggregate) is not None

    specs: dict[str, tuple[str, Any]] = {}
    routed_preds: list[Predicate] = []
    for p in (filt.predicates if filt is not None else []):
        if p.column not in pk_cols:
            continue
        if p.op == "=":
            specs[p.column] = ("=", p.value)
            routed_preds.append(p)
        elif p.op == "in":
            specs[p.column] = ("in", list(p.value))
            routed_preds.append(p)
        elif not has_aggregate:
            raise CQLPlanningError(
                f"partition key column {p.column!r} only supports '=' or IN",
                **_pos_kw(p))
    missing = [c for c in schema.partition_key if c not in specs]
    if missing:
        if not has_aggregate:
            raise CQLPlanningError(
                f"partition key columns {missing} must be constrained by "
                "'=' or IN")
        # Unrouted aggregate: full scan (compiled to a sparklet job);
        # any partial key constraints stay behind as residual filters.
        scan.full_scan = True
        return plan, 0
    scan.key_specs = [(c, *specs[c]) for c in schema.partition_key]
    if filt is not None:
        filt.predicates = [p for p in filt.predicates
                           if p not in routed_preds]
        if not filt.predicates:
            plan = _splice_out(plan, filt)
    return plan, len(routed_preds)


def _rule_predicate_pushdown(plan: LogicalNode) -> tuple[LogicalNode, int]:
    scan = _find(plan, LogicalScan)
    if scan is None:
        return plan, 0
    filt = _find(plan, LogicalFilter)
    if filt is None:
        return plan, 0
    ck = scan.schema.clustering_key
    first_ck = ck[0] if ck else None
    if first_ck is None:
        return plan, 0
    pushed = 0
    remaining: list[Predicate] = []
    for p in filt.predicates:
        lower = p.op in ("=", ">", ">=")
        upper = p.op in ("=", "<", "<=")
        # A value may be a placeholder, so two bounds on one side cannot
        # be intersected here: the first takes the side, later ones
        # stay in the filter.
        if (p.column != first_ck or not (lower or upper)
                or lower and scan.lower is not None
                or upper and scan.upper is not None):
            remaining.append(p)
            continue
        bound = (p.value, p.op not in ("<", ">"))
        if lower:
            scan.lower = bound
        if upper:
            scan.upper = bound
        pushed += 1
    if not pushed:
        return plan, 0
    filt.predicates = remaining
    if not remaining:
        plan = _splice_out(plan, filt)
    return plan, pushed


def _rule_projection_pushdown(plan: LogicalNode) -> tuple[LogicalNode, int]:
    scan = _find(plan, LogicalScan)
    if scan is None or scan.full_scan or scan.columns is not None:
        return plan, 0
    agg = _find(plan, LogicalAggregate)
    filt = _find(plan, LogicalFilter)
    proj = _find(plan, LogicalProject)
    needed: set[str] = set()
    if agg is not None:
        needed.update(agg.group_by)
        needed.update(a.column for a in agg.aggregates
                      if a.column is not None)
    elif proj is not None:
        needed.update(proj.columns)
    else:
        return plan, 0  # SELECT *: every column is referenced
    if filt is not None:
        needed.update(p.column for p in filt.predicates)
    scan.columns = sorted(needed)
    return plan, 1


def _rule_limit_pushdown(plan: LogicalNode) -> tuple[LogicalNode, int]:
    limit = _find(plan, LogicalLimit)
    if limit is None or not isinstance(limit.child, LogicalScan):
        return plan, 0
    scan = limit.child
    if scan.full_scan or scan.key_specs is None:
        return plan, 0
    if any(op != "=" for _, op, _ in scan.key_specs):
        return plan, 0  # IN fan-out: the limit is global, not per-partition
    scan.limit = limit.n
    return plan, 1


def _rule_aggregate_pushdown(plan: LogicalNode) -> tuple[LogicalNode, int]:
    agg = _find(plan, LogicalAggregate)
    if agg is None or agg.partial:
        return plan, 0
    scan = _find(plan, LogicalScan)
    if scan is None or scan.full_scan or scan.key_specs is None:
        return plan, 0
    # Child must be the scan, optionally through a residual filter the
    # replica-side fold can evaluate row-by-row.
    child = agg.child
    if isinstance(child, LogicalFilter):
        child = child.child
    if child is not scan:
        return plan, 0
    agg.partial = True
    return plan, 1


_RULES: list[tuple[str, Callable[[LogicalNode], tuple[LogicalNode, int]]]] = [
    ("partition_key_routing", _rule_partition_key_routing),
    ("predicate_pushdown", _rule_predicate_pushdown),
    ("projection_pushdown", _rule_projection_pushdown),
    ("limit_pushdown", _rule_limit_pushdown),
    ("aggregate_pushdown", _rule_aggregate_pushdown),
]

RULE_NAMES = tuple(name for name, _ in _RULES)

_RULE_COUNTERS = {
    name: obs.get_registry().counter(
        "cql.optimizer.rule_applied", rule=name)
    for name in RULE_NAMES
}


def optimize(plan: LogicalNode) -> tuple[LogicalNode, dict[str, int]]:
    """Run every rule once, in order; returns the optimized plan and
    the per-rule application counts (only rules that fired)."""
    applied: dict[str, int] = {}
    for name, rule in _RULES:
        plan, count = rule(plan)
        if count:
            applied[name] = count
            _RULE_COUNTERS[name].inc(count)
    return plan, applied
