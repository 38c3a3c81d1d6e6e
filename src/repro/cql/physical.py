"""Physical plans: composable operators compiled from the logical plan.

Each operator implements ``execute(rt) -> rows`` and ``explain() ->
dict`` (a stable JSON node: ``{"op": ..., <details>, "children":
[...]}``).  Reads run against the cassdb coordinator; pushed-down
aggregations fold partials inside the replica read
(:meth:`Cluster.aggregate_partitions`); full-table aggregations compile
to a sparklet DAG job (``cassandraTable(fold, bounds) → merge``: the
same fold, run by the scan tasks inside their locality reads) — the
paper's routing of complex queries to the big-data engine.

Bind parameters are resolved per execution from the :class:`Runtime`,
so one physical plan is shared by every execution of a cached
statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.cassdb.cluster import Cluster, Consistency
from repro.cassdb.row import ClusteringBound
from repro.cassdb.schema import TableSchema
from repro.cassdb.vector import BlockView, fold_view, select_rows

from .ast import AggregateCall, Param, Predicate, render_value
from .errors import CQLPlanningError

__all__ = [
    "FilterExec",
    "FullScanAggregateExec",
    "LimitExec",
    "MergePartialsExec",
    "PartialAggregateScanExec",
    "PartitionScanExec",
    "PhysicalOp",
    "ProjectExec",
    "Runtime",
    "compile_plan",
]


@dataclass
class Runtime:
    """Everything one execution needs: backends plus bound parameters."""

    cluster: Cluster
    sparklet: Any = None
    params: Sequence[Any] = ()
    consistency: Consistency = Consistency.ONE

    def resolve(self, value: Any) -> Any:
        if isinstance(value, Param):
            return self.params[value.index]
        return value


class PhysicalOp:
    """Base operator.  Subclasses set ``children`` and implement
    :meth:`execute` and :meth:`explain_attrs`."""

    name = "Op"
    children: tuple["PhysicalOp", ...] = ()

    def execute(self, rt: Runtime) -> list[Any]:
        raise NotImplementedError

    def explain_attrs(self) -> dict[str, Any]:
        return {}

    @property
    def on_sparklet(self) -> bool:
        """Whether running the tree hands a job to the sparklet engine."""
        return any(c.on_sparklet for c in self.children)

    def explain(self) -> dict[str, Any]:
        node: dict[str, Any] = {"op": self.name}
        node.update(self.explain_attrs())
        node["children"] = [c.explain() for c in self.children]
        return node


def _sorted_group_keys(groups: dict) -> list:
    try:
        return sorted(groups)
    except TypeError:  # mixed/None-bearing keys: deterministic fallback
        return sorted(groups, key=repr)


# --------------------------------------------------------------------------
# Aggregate machinery — partial representations shared by every
# aggregation operator (replica-side, sparklet-side, coordinator-side).
# --------------------------------------------------------------------------

def _agg_init(aggs: Sequence[AggregateCall]) -> list:
    out = []
    for a in aggs:
        if a.fn == "count":
            out.append(0)
        elif a.fn == "avg":
            out.append([0.0, 0])
        else:  # min / max / sum
            out.append(None)
    return out


def _agg_merge(acc: list, other: list, aggs: Sequence[AggregateCall]) -> None:
    for i, a in enumerate(aggs):
        v = other[i]
        fn = a.fn
        if fn == "count":
            acc[i] += v
        elif fn == "avg":
            acc[i][0] += v[0]
            acc[i][1] += v[1]
        elif v is None:
            continue
        elif fn == "sum":
            acc[i] = v if acc[i] is None else acc[i] + v
        elif fn == "min":
            acc[i] = v if acc[i] is None or v < acc[i] else acc[i]
        else:  # max
            acc[i] = v if acc[i] is None or v > acc[i] else acc[i]


def _agg_finalize(acc: list, aggs: Sequence[AggregateCall]) -> list:
    out = []
    for i, a in enumerate(aggs):
        if a.fn == "avg":
            s, n = acc[i]
            out.append(s / n if n else None)
        else:
            out.append(acc[i])
    return out


def _finalize_groups(groups: dict, group_by: Sequence[str],
                     aggs: Sequence[AggregateCall]) -> list[dict]:
    """Partial group map -> result rows, deterministically ordered."""
    if not group_by and not groups:
        groups = {(): _agg_init(aggs)}
    names = [a.output_name for a in aggs]
    rows = []
    for key in _sorted_group_keys(groups):
        row = dict(zip(group_by, key))
        row.update(zip(names, _agg_finalize(groups[key], aggs)))
        rows.append(row)
    return rows


def _merge_partials(partials: Iterable[dict], group_by: Sequence[str],
                    aggs: Sequence[AggregateCall]) -> list[dict]:
    """Merge per-partition partial group maps and finalize
    (avg = sum/count)."""
    merged: dict = {}
    for part in partials:
        for key, acc in part.items():
            mine = merged.get(key)
            if mine is None:
                merged[key] = acc
            else:
                _agg_merge(mine, acc, aggs)
    return _finalize_groups(merged, group_by, aggs)


def _make_partition_fold(
    schema: TableSchema,
    residual_specs: Sequence[tuple[str, str, Any]],
    group_by: Sequence[str],
    aggs: Sequence[AggregateCall],
    *,
    keep_empty: bool,
) -> "Callable[[dict, BlockView], dict]":
    """Build the replica-side fold shared by routed partial-aggregate
    scans and full-table scans (either engine).

    The fold receives ``(partition_values, view)``: the residual filter,
    the grouping and the aggregate reduction all run per column inside
    the view's block.  *residual_specs* carries already-resolved
    ``(column, op, value)`` predicates; *keep_empty* decides whether
    an all-partition-key group key still emits a
    zero-count partial when no rows survive (routed scans do — the
    queried partition exists even if empty — full scans don't: a
    partition with no row inside the bounds is one the scan never saw).
    """
    sources = [None if a.column is None
               else schema.column_source(a.column) for a in aggs]
    group_sources = [schema.column_source(c) for c in group_by]
    residual = [(schema.column_source(c), op, value)
                for c, op, value in residual_specs]
    fns = [a.fn for a in aggs]

    def fold(pk_values: dict, view: BlockView) -> dict:
        if residual:
            view = select_rows(view, residual, pk_values)
        return fold_view(view, group_sources, sources, fns, pk_values,
                         keep_empty=keep_empty)

    return fold


# --------------------------------------------------------------------------
# Scan-side helpers
# --------------------------------------------------------------------------

def _render_key_specs(key_specs) -> list[str]:
    out = []
    for col, op, v in key_specs:
        if op == "in":
            vals = ", ".join(str(render_value(x)) for x in v)
            out.append(f"{col} IN ({vals})")
        else:
            out.append(f"{col} = {render_value(v)}")
    return out


def _render_bounds(schema: TableSchema, lower, upper) -> str | None:
    if lower is None and upper is None:
        return None
    ck = schema.clustering_key[0]
    if (lower is not None and upper is not None
            and lower == upper and lower[1]):
        return f"{ck} = {render_value(lower[0])}"
    parts = []
    if lower is not None:
        parts.append(f"{ck} {'>=' if lower[1] else '>'} "
                     f"{render_value(lower[0])}")
    if upper is not None:
        parts.append(f"{ck} {'<=' if upper[1] else '<'} "
                     f"{render_value(upper[0])}")
    return " AND ".join(parts)


def _bind(rt: Runtime, predicates: Sequence[Predicate]
          ) -> list[tuple[str, str, Any]]:
    """*predicates* as ``(column, op, value)`` with this execution's
    parameters bound."""
    return [(p.column, p.op,
             [rt.resolve(v) for v in p.value] if p.op == "in"
             else rt.resolve(p.value))
            for p in predicates]


class _ScanBase(PhysicalOp):
    """Shared routing/bounds resolution for the scan operators."""

    def __init__(self, table: str, schema: TableSchema,
                 key_specs: list[tuple[str, str, Any]],
                 lower: tuple[Any, bool] | None,
                 upper: tuple[Any, bool] | None):
        self.table = table
        self.schema = schema
        self.key_specs = key_specs
        self.lower = lower
        self.upper = upper
        self.access = ("multi_partition_in"
                       if any(op == "in" for _, op, _ in key_specs)
                       else "single_partition")

    def _pk_tuples(self, rt: Runtime) -> list[tuple]:
        per_column = []
        for _col, op, v in self.key_specs:
            if op == "in":
                per_column.append([rt.resolve(x) for x in v])
            else:
                per_column.append([rt.resolve(v)])
        # Cartesian product of the bound per-column value lists, in
        # IN-list order.  IN is set membership: a key tuple written
        # twice names its partition once, where it first occurs.
        return list(dict.fromkeys(itertools.product(*per_column)))

    def _bounds(self, rt: Runtime) -> tuple[ClusteringBound | None,
                                            ClusteringBound | None]:
        lower = upper = None
        if self.lower is not None:
            lower = ClusteringBound((rt.resolve(self.lower[0]),),
                                    inclusive=self.lower[1])
        if self.upper is not None:
            upper = ClusteringBound((rt.resolve(self.upper[0]),),
                                    inclusive=self.upper[1])
        return lower, upper

    def _base_attrs(self) -> dict[str, Any]:
        return {
            "table": self.table,
            "access": self.access,
            "partition_key": _render_key_specs(self.key_specs),
            "clustering_range": _render_bounds(
                self.schema, self.lower, self.upper),
        }


class PartitionScanExec(_ScanBase):
    """Routed partition read: one read per distinct key tuple of the IN
    fan-out, in IN-list order on the calling thread, with clustering
    bounds, projection and limit pushed into the store."""

    name = "PartitionScan"

    def __init__(self, table, schema, key_specs, lower, upper, *,
                 reverse: bool = False, limit: Any = None,
                 columns: list[str] | None = None):
        super().__init__(table, schema, key_specs, lower, upper)
        self.reverse = reverse
        self.limit = limit
        self.columns = columns

    def execute(self, rt: Runtime,
                predicates: list[tuple[str, str, Any]] | None = None
                ) -> list[dict]:
        # *predicates* is the runtime fusion seam: a parent FilterExec
        # hands its bound residual predicates down so columnar replicas
        # evaluate them per-column before any row dict is built.  The
        # plan shape (and EXPLAIN output) is unchanged — only execution
        # is fused.
        lower, upper = self._bounds(rt)
        partition_rows = rt.cluster.select_partitions(
            self.table,
            self._pk_tuples(rt),
            lower=lower,
            upper=upper,
            reverse=self.reverse,
            limit=self.limit,
            columns=self.columns,
            predicates=predicates,
            consistency=rt.consistency,
        )
        rows: list[dict] = []
        for plist in partition_rows:
            rows.extend(plist)
        return rows

    def explain_attrs(self) -> dict[str, Any]:
        attrs = self._base_attrs()
        attrs["columns"] = self.columns if self.columns is not None else "*"
        attrs["reverse"] = self.reverse
        attrs["limit"] = self.limit
        return attrs


class PartialAggregateScanExec(_ScanBase):
    """Aggregate pushdown: each partition folds its rows into partial
    accumulators *inside the replica read* (no row dicts are built, no
    rows shipped); returns one partial group map per partition."""

    name = "PartialAggregateScan"

    def __init__(self, table, schema, key_specs, lower, upper, *,
                 residual: list[Predicate],
                 group_by: list[str], aggregates: list[AggregateCall]):
        super().__init__(table, schema, key_specs, lower, upper)
        self.residual = residual
        self.group_by = group_by
        self.aggregates = aggregates

    # -- replica-side fold -------------------------------------------------

    def _make_fold(self, rt: Runtime) -> "Callable[[dict, BlockView], dict]":
        # keep_empty: group columns all from the partition key mean one
        # group per queried partition, kept even when empty so empty
        # partitions still report their zero counts.
        return _make_partition_fold(
            self.schema, _bind(rt, self.residual), self.group_by,
            self.aggregates, keep_empty=True)

    def execute(self, rt: Runtime) -> list[dict]:
        lower, upper = self._bounds(rt)
        return rt.cluster.aggregate_partitions(
            self.table,
            self._pk_tuples(rt),
            lower=lower,
            upper=upper,
            fold=self._make_fold(rt),
            consistency=rt.consistency,
        )

    def explain_attrs(self) -> dict[str, Any]:
        attrs = self._base_attrs()
        attrs["group_by"] = list(self.group_by)
        attrs["aggregates"] = [a.render() for a in self.aggregates]
        attrs["residual"] = [p.render() for p in self.residual]
        return attrs


class MergePartialsExec(PhysicalOp):
    """Coordinator side of the aggregate pushdown: merge the per-
    partition partial group maps and finalize (avg = sum/count)."""

    name = "MergePartials"

    def __init__(self, group_by: list[str],
                 aggregates: list[AggregateCall], child: PhysicalOp):
        self.group_by = group_by
        self.aggregates = aggregates
        self.children = (child,)

    def execute(self, rt: Runtime) -> list[dict]:
        return _merge_partials(self.children[0].execute(rt),
                               self.group_by, self.aggregates)

    def explain_attrs(self) -> dict[str, Any]:
        return {"group_by": list(self.group_by),
                "aggregates": [a.render() for a in self.aggregates]}


class FullScanAggregateExec(_ScanBase):
    """Unrouted aggregation over a whole table.

    Every partition is read within the pushed clustering bounds and
    folded in place, as its replica holds it, by the fold routed scans
    use; ``engine`` only decides who walks the partitions.  With a
    sparklet context attached it is a DAG job — ``cassandraTable``
    (locality-placed scan tasks) carrying fold and bounds, collected
    and merged — without one, a serial walk of the table."""

    name = "FullScanAggregate"

    def __init__(self, table: str, schema: TableSchema, lower, upper, *,
                 residual: list[Predicate], group_by: list[str],
                 aggregates: list[AggregateCall], engine: str):
        super().__init__(table, schema, [], lower, upper)
        self.access = "full_scan"
        self.residual = residual
        self.group_by = group_by
        self.aggregates = aggregates
        self.engine = engine  # 'sparklet' | 'serial'

    @property
    def on_sparklet(self) -> bool:
        return self.engine == "sparklet"

    def execute(self, rt: Runtime) -> list[dict]:
        fold = _make_partition_fold(
            self.schema, _bind(rt, self.residual), self.group_by,
            self.aggregates, keep_empty=False)
        lower, upper = self._bounds(rt)
        if self.engine == "sparklet" and rt.sparklet is not None:
            partials = rt.sparklet.cassandraTable(
                self.table, fold=fold, lower=lower, upper=upper).collect()
        else:
            partials = rt.cluster.fold_table_partitions(
                self.table, fold, lower, upper)
        return _merge_partials(partials, self.group_by, self.aggregates)

    def explain_attrs(self) -> dict[str, Any]:
        attrs = {
            "table": self.table,
            "access": self.access,
            "engine": self.engine,
            "group_by": list(self.group_by),
            "aggregates": [a.render() for a in self.aggregates],
            "residual": [p.render() for p in self.residual],
        }
        bounds = _render_bounds(self.schema, self.lower, self.upper)
        if bounds is not None:
            attrs["clustering_range"] = bounds
        return attrs


# --------------------------------------------------------------------------
# Row-stream operators
# --------------------------------------------------------------------------

class FilterExec(PhysicalOp):
    """Residual predicates, evaluated inside the scan below.

    The planner only ever puts a ``Filter`` directly over an unlimited
    ``PartitionScan`` (``limit_pushdown`` fires only once the filter has
    been spliced out), so executing it *is* the fused call: the bound
    predicates go into the scan and replicas filter per-column before
    any row dict exists.  The plan tree (and EXPLAIN) keeps the
    Filter→PartitionScan shape.
    """

    name = "Filter"

    def __init__(self, predicates: list[Predicate],
                 child: "PartitionScanExec"):
        self.predicates = predicates
        self.children = (child,)

    def execute(self, rt: Runtime) -> list[dict]:
        return self.children[0].execute(
            rt, predicates=_bind(rt, self.predicates))

    def explain_attrs(self) -> dict[str, Any]:
        return {"predicates": [p.render() for p in self.predicates]}


class ProjectExec(PhysicalOp):
    """Emit exactly the requested columns (missing columns are None)."""

    name = "Project"

    def __init__(self, columns: list[str], child: PhysicalOp):
        self.columns = columns
        self.children = (child,)

    def execute(self, rt: Runtime) -> list[dict]:
        cols = self.columns
        return [{c: r.get(c) for c in cols}
                for r in self.children[0].execute(rt)]

    def explain_attrs(self) -> dict[str, Any]:
        return {"columns": list(self.columns)}


class LimitExec(PhysicalOp):
    name = "Limit"

    def __init__(self, n: int, child: PhysicalOp):
        self.n = n
        self.children = (child,)

    def execute(self, rt: Runtime) -> list[dict]:
        return self.children[0].execute(rt)[:self.n]

    def explain_attrs(self) -> dict[str, Any]:
        return {"n": self.n}


# --------------------------------------------------------------------------
# Logical -> physical compilation
# --------------------------------------------------------------------------

def compile_plan(plan, sparklet_available: bool) -> PhysicalOp:
    """Compile an optimized logical plan into a physical operator tree."""
    from .logical import (
        LogicalAggregate,
        LogicalFilter,
        LogicalLimit,
        LogicalProject,
        LogicalScan,
    )

    def compile_node(node) -> PhysicalOp:
        if isinstance(node, LogicalScan):
            if node.full_scan or node.key_specs is None:
                raise CQLPlanningError(
                    f"cannot scan table {node.table!r} without partition "
                    "routing (only aggregate queries may full-scan)")
            return PartitionScanExec(
                node.table, node.schema, node.key_specs,
                node.lower, node.upper, reverse=node.reverse,
                limit=node.limit, columns=node.columns,
            )
        if isinstance(node, LogicalFilter):
            return FilterExec(node.predicates, compile_node(node.child))
        if isinstance(node, LogicalAggregate):
            return compile_aggregate(node)
        if isinstance(node, LogicalLimit):
            return LimitExec(node.n, compile_node(node.child))
        if isinstance(node, LogicalProject):
            return ProjectExec(node.columns, compile_node(node.child))
        raise AssertionError(f"unknown logical node {type(node).__name__}")

    def compile_aggregate(node) -> PhysicalOp:
        child = node.child
        residual: list[Predicate] = []
        scan = child
        if isinstance(scan, LogicalFilter):
            residual = scan.predicates
            scan = scan.child
        if isinstance(scan, LogicalScan) and scan.full_scan:
            return FullScanAggregateExec(
                scan.table, scan.schema, scan.lower, scan.upper,
                residual=residual,
                group_by=node.group_by, aggregates=node.aggregates,
                engine="sparklet" if sparklet_available else "serial",
            )
        # Every routed aggregate was marked partial by aggregate_pushdown.
        partial = PartialAggregateScanExec(
            scan.table, scan.schema, scan.key_specs,
            scan.lower, scan.upper, residual=residual,
            group_by=node.group_by, aggregates=node.aggregates,
        )
        return MergePartialsExec(node.group_by, node.aggregates, partial)

    return compile_node(plan)
