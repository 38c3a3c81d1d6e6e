"""Columnar partition blocks and vectorized scan kernels.

A partition read has one shape: a :class:`BlockView` — a
:class:`ColumnBlock` plus an ordered selection of its row offsets.  An
SSTable stores its whole run *column-major* (one eager block, built at
flush or compaction, every partition's rows next to each other) and a
memtable gathers a partition's rows from its column lists; a read of
either is a view over an offset range.  A merge of several sources
(memtable deltas, un-compacted runs, a QUORUM reconcile) emits rows, as
a *row-backed* block whose columns are transposed out of them on first
use (:meth:`ColumnBlock.over_rows`), so :func:`merge_views` takes views
and nothing else.  Either way pushed-down predicates, projections and
aggregate folds run one column at a time over the selection
(:func:`select_rows`, :func:`materialize_dicts`, :func:`fold_view`,
:func:`column_lists`), so result dicts are built only for the survivors
— and for aggregates and column reads, never at all.  For analytics scans — the workload the
paper cares about — that is almost all of the work: a filtered scan
keeps a few percent of the rows it touches, and a pushed-down ``GROUP
BY`` reduces thousands of rows to a handful of partial states.

Low-cardinality string columns of an eager block (event type,
cabinet/location — §II-B's categorical fields) are dictionary-encoded,
one dictionary per run: a predicate is evaluated once per *dictionary
entry*, then rows are matched by integer code.

Row materialization (:meth:`ColumnBlock.row_at`) stays byte-faithful —
every cell keeps its write timestamp — so writes, hinted handoff, read
repair, and compaction reconcile columnar and row-form data
interchangeably.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter
from typing import Any, Mapping, Sequence

from repro.obs import get_registry

from .errors import InvalidQueryError
from .row import Row, merge_rows

__all__ = [
    "BlockView",
    "Column",
    "ColumnBlock",
    "DICT_MAX_CARDINALITY",
    "column_lists",
    "fold_view",
    "materialize_dicts",
    "merge_views",
    "scalar_matches",
    "select_rows",
]

_REG = get_registry()
_M_BLOCK_BUILDS = _REG.counter("cassdb.vector.block_builds")
_M_BLOCK_ROWS = _REG.counter("cassdb.vector.block_rows")
_M_DICT_COLUMNS = _REG.counter("cassdb.vector.dict_columns")
_M_FILTER_SCANS = _REG.counter("cassdb.vector.filter_scans")
_M_ROWS_SELECTED = _REG.counter("cassdb.vector.rows_selected")
_M_AGG_FOLDS = _REG.counter("cassdb.vector.agg_folds")
_M_ROWS_MATERIALIZED = _REG.counter("cassdb.vector.rows_materialized")
_M_COLUMN_CELLS = _REG.counter("cassdb.vector.column_cells")

# A string column is auto-dictionary-encoded when its distinct-value
# count stays at or below this cap (cabinet ids, event types, component
# names all do; log message text does not).
DICT_MAX_CARDINALITY = 256

# Auto-detection also requires the block to be at least this tall —
# encoding a 3-row block buys nothing and costs a dict build.
_DICT_MIN_ROWS = 8


class Column:
    """One column of a block: values + write timestamps + presence.

    Two physical layouts share this class:

    * plain — ``values`` is a list aligned with row offsets (``None`` at
      absent slots; ``present`` disambiguates a stored ``None`` value
      from an absent cell);
    * dictionary-encoded — ``codes`` is a compact int array (``-1`` =
      absent cell) indexing into ``dictionary``; ``code_of`` inverts it.

    ``write_ts`` keeps the per-cell write timestamp (0 at absent slots)
    so :meth:`ColumnBlock.row_at` rebuilds cells exactly; a column
    transposed out of a row-backed block has none, because the block's
    rows still hold the stamps.
    """

    __slots__ = ("name", "values", "write_ts", "present", "codes",
                 "dictionary", "code_of")

    def __init__(self, name: str, values: list | None,
                 write_ts: array | None,
                 present: bytearray | None, codes: array | None = None,
                 dictionary: list | None = None,
                 code_of: dict | None = None):
        self.name = name
        self.values = values
        self.write_ts = write_ts
        self.present = present  # None means every cell is present
        self.codes = codes
        self.dictionary = dictionary
        self.code_of = code_of

    def value_at(self, i: int) -> Any:
        """The cell value at row offset *i* (None when absent)."""
        if self.codes is not None:
            code = self.codes[i]
            return None if code < 0 else self.dictionary[code]
        return self.values[i]


def _encoded(col: Column, n: int) -> Column:
    """A plain column of an *n*-row run, dictionary-encoded when it
    qualifies: at least ``_DICT_MIN_ROWS`` rows whose present values are
    at most ``DICT_MAX_CARDINALITY`` distinct strings."""
    values = col.values
    if n < _DICT_MIN_ROWS:
        return col
    try:
        distinct = set(values)
    except TypeError:  # an unhashable value: stays plain
        return col
    distinct.discard(None)
    if (len(distinct) > DICT_MAX_CARDINALITY
            or not all(isinstance(v, str) for v in distinct)):
        return col
    dictionary: list = []
    code_of: dict = {}
    codes = array("l", bytes(n * _CODE_ITEMSIZE))
    pres = col.present
    for i, v in enumerate(values):
        if pres is not None and not pres[i]:
            codes[i] = -1
            continue
        code = code_of.get(v)
        if code is None:
            code = len(dictionary)
            code_of[v] = code
            dictionary.append(v)
        codes[i] = code
    _M_DICT_COLUMNS.inc()
    return Column(col.name, None, col.write_ts, pres,
                  codes=codes, dictionary=dictionary, code_of=code_of)


_CODE_ITEMSIZE = array("l").itemsize


class ColumnBlock:
    """Rows stored column-major: a whole SSTable run, or one partition.

    ``clustering`` is the clustering-key array, ascending within each
    partition the block holds (what a bounds probe bisects and the
    merge compares); ``columns`` maps column name to :class:`Column`.

    A block is *eager* — plain (:meth:`transposed`: a write's rows; a
    memtable partition's face) or dictionary-encoded (:meth:`encoded`:
    an SSTable's run) — or *row-backed* (:meth:`over_rows`: rows a
    merge emitted stay the store of record, and :meth:`column`
    transposes a column out of them the first time a kernel names it).
    Kernels see the same :class:`Column` either way.
    """

    __slots__ = ("clustering", "n", "columns", "_rows", "row_backed")

    def __init__(self, clustering: list[tuple], columns: dict[str, Column]):
        self.clustering = clustering  # ascending within each partition
        self.n = len(clustering)
        self.columns = columns
        self._rows: list[Row] | None = None
        self.row_backed = False

    @classmethod
    def over_rows(cls, rows: list[Row]) -> "ColumnBlock":
        """A block over *rows* as they are, in ascending clustering
        order: what :func:`merge_views` emitted, a copy a replica sent.
        Nothing is encoded, and a read that names no cell
        column (a count, a rehydration) never transposes one."""
        block = cls([r.clustering for r in rows], {})
        block._rows = rows
        block.row_backed = True
        return block

    def column(self, name: str) -> Column | None:
        """The cell column *name*; None when an eager block stores no
        such cell.  (A row-backed block answers an all-absent column
        instead, which every kernel reads the same way.)"""
        col = self.columns.get(name)
        if col is None and self.row_backed:
            rows = self._rows
            present = None
            try:  # one sweep when every row has the cell
                values = [r.values[name] for r in rows]
            except KeyError:
                values = [r.values.get(name) for r in rows]
                present = bytearray(name in r.values for r in rows)
            col = self.columns[name] = Column(name, values, None, present)
        return col

    @classmethod
    def transposed(cls, rows: Sequence[Row]) -> "ColumnBlock":
        """A plain eager block of *rows*, in their order: every cell
        with its write timestamp — what a hint replay or a repair push
        appends to a memtable."""
        n = len(rows)
        columns: dict[str, Column] = {}
        for i, row in enumerate(rows):
            write_ts, cell_ts = row.write_ts, row.cell_ts
            for name, value in row.values.items():
                col = columns.get(name)
                if col is None:
                    col = columns[name] = Column(
                        name, [None] * n, array("q", bytes(8 * n)),
                        bytearray(n))
                col.values[i] = value
                col.write_ts[i] = (write_ts if cell_ts is None
                                   else cell_ts.get(name, write_ts))
                col.present[i] = 1
        for col in columns.values():
            if 0 not in col.present:
                col.present = None
        return cls([r.clustering for r in rows], columns)

    def encoded(self) -> "ColumnBlock":
        """This plain block with its low-cardinality string columns
        dictionary-encoded over all its rows: a run's block."""
        _M_BLOCK_BUILDS.inc()
        _M_BLOCK_ROWS.inc(self.n)
        return ColumnBlock(self.clustering,
                           {name: _encoded(Column(name, col.values,
                                                  array("q", col.write_ts),
                                                  col.present), self.n)
                            for name, col in self.columns.items()})

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "ColumnBlock":
        """The encoded block of *rows* as they are ordered (a
        partition's, ascending by clustering key; a run's, partition
        after partition)."""
        return cls.transposed(rows).encoded()

    def row_at(self, i: int) -> Row:
        """Materialize the exact Row stored at offset *i*, every cell
        with its timestamp — the compatibility boundary for repair,
        hints, and compaction."""
        if self._rows is not None:
            return self._rows[i]
        values: dict[str, Any] = {}
        stamps: list[int] = []
        for col in self.columns.values():
            if col.present is None or col.present[i]:
                # (a present cell's code is never -1)
                values[col.name] = (col.values[i] if col.codes is None
                                    else col.dictionary[col.codes[i]])
                stamps.append(col.write_ts[i])
        return Row.from_stamps(self.clustering[i], values, stamps)

    def __len__(self) -> int:
        return self.n


_EMPTY_ORDER = range(0)


def _take(seq, order):
    """``[seq[i] for i in order]`` — one slice while the selection is
    still a ``range`` (step ±1: bounds, ``reverse`` and ``limit`` only
    ever slice it)."""
    if isinstance(order, range):
        stop = order.stop
        if stop < 0 and order:  # reversed down to offset 0
            stop = None
        return seq[order.start:stop:order.step]
    return [seq[i] for i in order]


class BlockView:
    """A selection over a block: the block plus an ordered offset set.

    ``order`` is a ``range`` while the selection is still a contiguous
    slice (the common case: a bounds-pruned scan) and degrades to an
    index list once a predicate punches holes in it.  Both support
    ``len``/iteration/slicing, so kernels never branch on which.
    """

    __slots__ = ("block", "order")

    def __init__(self, block: ColumnBlock, order=None):
        self.block = block
        self.order = range(block.n) if order is None else order

    def __len__(self) -> int:
        return len(self.order)

    def ordered(self, reverse: bool = False,
                limit: int | None = None) -> "BlockView":
        order = self.order
        if reverse:
            order = order[::-1]
        if limit is not None:
            if limit <= 0:
                return BlockView(self.block, _EMPTY_ORDER)
            order = order[:limit]
        return BlockView(self.block, order)

    def to_rows(self) -> list[Row]:
        block = self.block
        if block._rows is not None:
            return _take(block._rows, self.order)
        _M_ROWS_MATERIALIZED.inc(len(self.order))
        return [block.row_at(i) for i in self.order]


# -- scalar predicate semantics ---------------------------------------------

def scalar_matches(val: Any, op: str, value: Any) -> bool:
    """One predicate against one value; absent/None never matches
    (CQL three-valued logic collapsed to False)."""
    if val is None:
        return False
    if op == "=":
        return val == value
    if op == "in":
        return val in value
    if op == "<":
        return val < value
    if op == "<=":
        return val <= value
    if op == ">":
        return val > value
    if op == ">=":
        return val >= value
    raise ValueError(f"unsupported operator: {op!r}")


# -- vectorized kernels ------------------------------------------------------
#
# Predicates, group-by keys, and aggregate inputs all arrive
# pre-classified as (kind, ref) "sources":
#     ("pk", name)  -> partition-key column; constant for a whole block
#     ("ck", idx)   -> clustering component at tuple index idx
#     ("cell", name)-> regular cell column
# Classification happens once at the query layer (it needs the schema);
# the kernels only see sources, so cassdb stays schema-light.

def select_rows(view: BlockView,
                predicates: Sequence[tuple[tuple[str, Any], str, Any]],
                pk_values: Mapping[str, Any]) -> BlockView:
    """Filter a view per-column, returning the surviving selection.

    Each predicate is ``((kind, ref), op, value)``.  Dictionary-encoded
    columns evaluate the predicate once per dictionary entry and then
    match rows by integer code; plain columns use a None-guarded sweep.
    Predicates short-circuit left to right over a shrinking selection.
    A value that does not compare with the stored ones is an
    :class:`InvalidQueryError` whose ``source`` is the column's.
    """
    _M_FILTER_SCANS.inc()
    block = view.block
    order = view.order
    for source, op, value in predicates:
        if not len(order):
            break
        kind, ref = source
        try:
            if kind == "pk":
                if not scalar_matches(pk_values.get(ref), op, value):
                    order = _EMPTY_ORDER
            elif kind == "ck":
                cl = block.clustering
                order = [i for i in order
                         if scalar_matches(cl[i][ref], op, value)]
            else:
                col = block.column(ref)
                if col is None:
                    order = _EMPTY_ORDER
                elif col.codes is not None:
                    order = _match_codes(col, order, op, value)
                else:
                    order = _match_plain(col, order, op, value)
        except TypeError:
            error = InvalidQueryError(
                f"{value!r} does not compare with the stored values")
            error.source = source
            raise error from None
    _M_ROWS_SELECTED.inc(len(order))
    return BlockView(block, order)


def _match_codes(col: Column, order, op: str, value: Any):
    """Dictionary predicate: decide once per distinct value, match codes."""
    matching = [code for code, v in enumerate(col.dictionary)
                if scalar_matches(v, op, value)]
    codes = col.codes
    if not matching:
        return _EMPTY_ORDER
    if len(matching) == len(col.dictionary) and col.present is None:
        return order  # every present value matches; nothing absent
    if len(matching) == 1:
        want = matching[0]
        return [i for i in order if codes[i] == want]
    want_set = set(matching)
    return [i for i in order if codes[i] in want_set]


def _match_plain(col: Column, order, op: str, value: Any):
    vals = col.values
    if op == "=":
        if value is None:
            return _EMPTY_ORDER  # absent/None never matches
        return [i for i in order if vals[i] == value]
    if op == "in":
        try:
            want = set(value)
        except TypeError:
            want = value  # unhashable members: fall back to linear `in`
        return [i for i in order
                if (v := vals[i]) is not None and v in want]
    if op == "<":
        return [i for i in order
                if (v := vals[i]) is not None and v < value]
    if op == "<=":
        return [i for i in order
                if (v := vals[i]) is not None and v <= value]
    if op == ">":
        return [i for i in order
                if (v := vals[i]) is not None and v > value]
    if op == ">=":
        return [i for i in order
                if (v := vals[i]) is not None and v >= value]
    raise ValueError(f"unsupported operator: {op!r}")


def materialize_dicts(view: BlockView, schema,
                      pk_values: Mapping[str, Any],
                      columns: Sequence[str] | None) -> list[dict]:
    """Late materialization: selected rows straight to result dicts.

    With *columns* given, absent cells are omitted (not None-filled)
    and only the projected columns' arrays are touched; without, the
    result is the full rehydrated mapping (from the rows themselves
    where they back the block).
    """
    block = view.block
    order = view.order
    if not len(order):
        return []
    _M_ROWS_MATERIALIZED.inc(len(order))
    if columns is None and block.row_backed:
        return [schema.rehydrate(pk_values, r.clustering, r.values)
                for r in view.to_rows()]
    cl = block.clustering
    ck_names = schema.clustering_key
    if columns is None:
        # Column order is preserved so full-row dicts iterate the same
        # way ``schema.rehydrate`` output does.
        cols = [(c.name, c.values, c.present, c.codes, c.dictionary)
                for c in block.columns.values()]
        out = []
        base = dict(pk_values)
        for i in order:
            d = dict(base)
            d.update(zip(ck_names, cl[i]))
            for name, vals, pres, codes, dictionary in cols:
                if codes is not None:
                    code = codes[i]
                    if code >= 0:
                        d[name] = dictionary[code]
                elif pres is None or pres[i]:
                    d[name] = vals[i]
            out.append(d)
        return out
    # Projected path: classify each requested column once, sweep rows.
    specs = []
    pk_names = schema.partition_key
    for name in columns:
        if name in pk_names:
            specs.append(("const", name, pk_values.get(name)))
        elif name in ck_names:
            specs.append(("ck", name, ck_names.index(name)))
        else:
            col = block.column(name)
            if col is None:
                continue  # absent everywhere -> omitted everywhere
            if col.codes is not None:
                specs.append(("code", name, (col.codes, col.dictionary)))
            else:
                specs.append(("plain", name, (col.values, col.present)))
    out = []
    for i in order:
        d = {}
        for kind, name, payload in specs:
            if kind == "const":
                d[name] = payload
            elif kind == "ck":
                d[name] = cl[i][payload]
            elif kind == "code":
                codes, dictionary = payload
                code = codes[i]
                if code >= 0:
                    d[name] = dictionary[code]
            else:
                vals, pres = payload
                if pres is None or pres[i]:
                    d[name] = vals[i]
        out.append(d)
    return out


# -- column reads ------------------------------------------------------------

def column_lists(view: BlockView, schema,
                 pk_values: Mapping[str, Any], columns: Sequence[str],
                 predicates: Sequence[tuple[str, str, Any]] | None = None
                 ) -> list[list]:
    """Column read: one value list per requested column, aligned, in
    clustering order, ``None`` where a cell is absent — no row or dict
    is built.  *predicates* are ``(column, op, value)`` with
    ``Cluster.select_partition``'s semantics.

    While the selection is still a contiguous ``range`` (every
    bounds-pruned scan) a plain column is a slice of the stored list
    and a dictionary column one decode pass over the sliced code array;
    once predicates have punched holes the kernel gathers by index.
    """
    specs = [schema.column_source(name) for name in columns]
    if predicates:
        view = select_rows(
            view, [(schema.column_source(column), op, value)
                   for column, op, value in predicates], pk_values)
    block, order = view.block, view.order
    n = len(order)
    _M_COLUMN_CELLS.inc(n * len(specs))
    out = []
    for kind, ref in specs:
        if kind == "pk":
            out.append([pk_values.get(ref)] * n)
        elif kind == "ck":
            out.append([key[ref] for key in _take(block.clustering, order)])
        elif (col := block.column(ref)) is None:
            out.append([None] * n)
        elif col.codes is None:
            out.append(_take(col.values, order))
        elif col.present is None:
            out.append(list(map(col.dictionary.__getitem__,
                                _take(col.codes, order))))
        else:
            dictionary = col.dictionary
            out.append([None if code < 0 else dictionary[code]
                        for code in _take(col.codes, order)])
    return out


# -- aggregate folds ---------------------------------------------------------

def _column_values(block: ColumnBlock, order, source,
                   pk_values: Mapping[str, Any]) -> list:
    """Non-None values of an aggregate-input column over the selection."""
    kind, ref = source
    if kind == "ck":
        cl = block.clustering
        return [v for i in order if (v := cl[i][ref]) is not None]
    col = block.column(ref)
    if col is None:
        return []
    if col.codes is not None:
        codes, dictionary = col.codes, col.dictionary
        return [v for i in order
                if (c := codes[i]) >= 0
                and (v := dictionary[c]) is not None]
    vals = col.values
    return [v for i in order if (v := vals[i]) is not None]


def _partial(block: ColumnBlock, order, n: int,
             agg_sources: Sequence, fns: Sequence[str],
             pk_values: Mapping[str, Any]) -> list:
    """One group's partial accumulator list, in the form the query
    engine merges (count:int, avg:[sum,n], min/max/sum:val|None)."""
    acc: list = []
    shared: dict = {}  # column sweep shared by aggregates on one source
    for source, fn in zip(agg_sources, fns):
        if source is None:  # count(*)
            acc.append(n)
            continue
        kind, ref = source
        if kind == "pk":
            # Partition-key aggregate input: constant across the block,
            # so the fold is arithmetic on (value, n).
            v = pk_values.get(ref)
            absent = v is None or not n
            if fn == "count":
                acc.append(0 if absent else n)
            elif fn == "avg":
                acc.append([0.0, 0] if absent else [v * n + 0.0, n])
            elif absent:
                acc.append(None)
            elif fn == "sum":
                acc.append(v * n)
            else:  # min / max of a constant
                acc.append(v)
            continue
        vals = shared.get(source)
        if vals is None:
            vals = shared[source] = _column_values(block, order, source,
                                                   pk_values)
        if fn == "count":
            acc.append(len(vals))
        elif fn == "avg":
            acc.append([sum(vals, 0.0), len(vals)])
        elif not vals:
            acc.append(None)
        elif fn == "sum":
            acc.append(sum(vals))
        elif fn == "min":
            acc.append(min(vals))
        elif fn == "max":
            acc.append(max(vals))
        else:
            raise ValueError(f"unsupported aggregate: {fn!r}")
    return acc


def fold_view(view: BlockView,
              group_sources: Sequence[tuple[str, Any]],
              agg_sources: Sequence,
              fns: Sequence[str],
              pk_values: Mapping[str, Any],
              keep_empty: bool = True) -> dict[tuple, list]:
    """Per-column aggregate fold: group key tuple -> partial accumulators.

    Never materializes a row or a dict.  Grouping by a dictionary-encoded
    column buckets rows by integer code (a ``Counter`` over the code
    array when only ``count(*)`` is asked for); *keep_empty* controls
    whether an all-partition-key group emits a zero-count partial for an
    empty selection (routed partial scans do, full scans don't).
    """
    _M_AGG_FOLDS.inc()
    block = view.block
    order = view.order
    n = len(order)
    if all(kind == "pk" for kind, _ in group_sources):
        # Group key is constant for the whole partition.
        if n == 0 and not keep_empty:
            return {}
        key = tuple(pk_values.get(ref) for _, ref in group_sources)
        return {key: _partial(block, order, n, agg_sources, fns, pk_values)}
    if n == 0:
        return {}
    if len(group_sources) == 1 and group_sources[0][0] == "cell":
        col = block.column(group_sources[0][1])
        if col is None:
            return {(None,): _partial(block, order, n, agg_sources, fns,
                                      pk_values)}
        if col.codes is not None:
            return _fold_by_codes(block, order, n, col, agg_sources, fns,
                                  pk_values)
        vals = col.values
        if all(s is None for s in agg_sources):
            # count(*)-only: a Counter over the selected values (absent
            # cells are None in a plain column), no index lists.
            k = len(fns)
            return {(v,): [cnt] * k
                    for v, cnt in Counter(_take(vals, order)).items()}
        buckets: dict[tuple, list] = {}
        for i in order:
            key = (vals[i],)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
    else:
        getters = []
        cl = block.clustering
        for kind, ref in group_sources:
            if kind == "pk":
                const = pk_values.get(ref)
                getters.append(lambda i, c=const: c)
            elif kind == "ck":
                getters.append(lambda i, cl=cl, idx=ref: cl[i][idx])
            else:
                col = block.column(ref)
                if col is None:
                    getters.append(lambda i: None)
                else:
                    getters.append(lambda i, c=col: c.value_at(i))
        buckets = {}
        for i in order:
            key = tuple(g(i) for g in getters)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
    return {key: _partial(block, idxs, len(idxs), agg_sources, fns,
                          pk_values)
            for key, idxs in buckets.items()}


def _fold_by_codes(block: ColumnBlock, order, n: int, col: Column,
                   agg_sources: Sequence, fns: Sequence[str],
                   pk_values: Mapping[str, Any]) -> dict[tuple, list]:
    """GROUP BY a dictionary-encoded column: bucket by integer code."""
    codes, dictionary = col.codes, col.dictionary
    # An absent cell and an explicitly-stored None must land in the same
    # (None,) group; normalize -1 onto None's code when one exists.
    absent = col.code_of.get(None, -1)
    if all(s is None for s in agg_sources):
        # count(*)-only: a Counter over the selected codes (one slice
        # of the code array while the selection is a range), no index
        # lists.
        counts = Counter(_take(codes, order))
        if -1 in counts and absent != -1:
            counts[absent] += counts.pop(-1)
        k = len(fns)
        return {(None if code < 0 else dictionary[code],): [cnt] * k
                for code, cnt in counts.items()}
    code_groups: dict[int, list[int]] = {}
    for i in order:
        code = codes[i]
        if code < 0:
            code = absent
        group = code_groups.get(code)
        if group is None:
            code_groups[code] = [i]
        else:
            group.append(i)
    return {(None if code < 0 else dictionary[code],):
            _partial(block, idxs, len(idxs), agg_sources, fns, pk_values)
            for code, idxs in code_groups.items()}


# -- merging -----------------------------------------------------------------

class _RevKey:
    """Inverts clustering-key ordering so heapq pops descending."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __lt__(self, other: "_RevKey") -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, _RevKey) and self.key == other.key


def _entries(view: "BlockView", reverse: bool):
    """Yield (clustering_key, offset) over a view's selection, lazily."""
    order = view.order[::-1] if reverse else view.order
    cl = view.block.clustering
    for i in order:
        yield cl[i], i


def merge_views(sources: list[BlockView], reverse: bool = False,
                limit: int | None = None) -> list[Row]:
    """The store's one reconcile: k-way merge of sorted copies of a
    partition, each a :class:`BlockView` — a memtable's slice, a run's
    slice, a copy a replica sent (the coordinator wraps it with
    :meth:`ColumnBlock.over_rows`).

    Compares on the blocks' clustering arrays and materializes a Row
    only for keys that collide across sources or reach the output —
    with a ``LIMIT k`` the trailing rows of every run are never decoded.
    Equal keys reconcile via :func:`merge_rows`; a key one source alone
    holds is its :meth:`ColumnBlock.row_at`.  A serving read
    (``TableStore.read_partition_view``), compaction (``merge_sstables``)
    and the coordinator over replicas' copies for a QUORUM/ALL read and
    ``repair`` all run it.
    """
    if limit is not None and limit <= 0:
        return []
    if len(sources) == 1:
        return sources[0].ordered(reverse, limit).to_rows()
    make_key = _RevKey if reverse else (lambda k: k)
    blocks = [source.block for source in sources]
    heap = []
    for sid, source in enumerate(sources):
        it = _entries(source, reverse)
        first = next(it, None)
        if first is not None:
            heap.append((make_key(first[0]), sid, first[1], it))
    heapq.heapify(heap)
    out: list[Row] = []
    while heap:
        key, sid, i, it = heapq.heappop(heap)
        nxt = next(it, None)
        if nxt is not None:
            heapq.heappush(heap, (make_key(nxt[0]), sid, nxt[1], it))
        row = blocks[sid].row_at(i)
        while heap and heap[0][0] == key:  # every other source's copy
            _k, sid2, i2, it2 = heapq.heappop(heap)
            row = merge_rows(row, blocks[sid2].row_at(i2))
            nxt = next(it2, None)
            if nxt is not None:
                heapq.heappush(heap, (make_key(nxt[0]), sid2, nxt[1], it2))
        out.append(row)
        if limit is not None and len(out) >= limit:
            break
    return out
