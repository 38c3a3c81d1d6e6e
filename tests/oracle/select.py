"""Reference SELECT evaluation over a list of dict rows."""

import operator

_OPS = {
    "=": operator.eq, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "in": lambda value, choices: value in choices,
}


def _matches(row, predicates):
    # CQL semantics: an absent or null cell matches no predicate.
    return all(row.get(col) is not None and _OPS[op](row[col], value)
               for col, op, value in predicates)


def _aggregate(fn, column, group):
    if column is None:  # count(*)
        return len(group)
    vals = [r[column] for r in group if r.get(column) is not None]
    if fn == "count":
        return len(vals)
    if not vals:
        return None
    if fn == "avg":
        return sum(vals) / len(vals)
    return {"sum": sum, "min": min, "max": max}[fn](vals)


def eval_select(rows, predicates=(), group_by=(), aggregates=(), *,
                columns=None, reverse=False, limit=None):
    """Evaluate one SELECT over *rows* (dicts; absent cells omitted).

    *rows* must arrive in result order: partitions in IN-list order,
    clustering order within each.  *predicates* are ``(column, op,
    value)`` over any column, partition key included; *aggregates* are
    ``(fn, column)`` with ``column=None`` for ``count(*)``.  Without
    aggregates, *columns* (None = ``*``), *reverse* and *limit* apply.
    """
    kept = [r for r in rows if _matches(r, predicates)]
    if not aggregates:
        if reverse:
            kept.reverse()
        kept = kept[:limit]
        if columns is None:
            return [dict(r) for r in kept]
        return [{c: r.get(c) for c in columns} for r in kept]
    groups = {}
    for r in kept:
        groups.setdefault(tuple(r.get(c) for c in group_by), []).append(r)
    if not group_by and not groups:
        groups[()] = []  # an ungrouped aggregate always yields one row
    out = []
    for key in sorted(groups):
        row = dict(zip(group_by, key))
        for fn, column in aggregates:
            name = fn if column is None else f"{fn}_{column}"
            row[name] = _aggregate(fn, column, groups[key])
        out.append(row)
    return out
