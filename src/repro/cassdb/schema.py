"""Table schemas: partition keys, clustering keys, flexible columns.

The paper's data model (§II-B, Figs 1–2) hinges on *which columns form
the partition key* — ``(hour, type)`` for ``event_by_time``,
``(hour, source)`` for ``event_by_location`` — and on clustering rows by
timestamp inside each partition.  A :class:`TableSchema` captures exactly
that: it extracts the partition key (the unit of distribution over the
ring: the key columns' values, in schema order, as written) and the
clustering tuple (the in-partition sort order) from a plain column
mapping.

Regular columns are intentionally *not* enumerated: the store is
schema-flexible like Cassandra's wide rows, so new event types with new
fields need no migration (the "Flexibility" design consideration of
§II-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Mapping

from .errors import SchemaError
from .row import Row

__all__ = ["TableSchema", "Keyspace"]

_KEY_SEPARATOR = "\x1f"  # ring keys only: a clash shares replicas


@dataclass(frozen=True)
class TableSchema:
    """Declarative description of one table.

    Parameters
    ----------
    name:
        Table name, unique within a keyspace.
    partition_key:
        Column names whose values, in this order, are a partition's key.
    clustering_key:
        Column names forming the in-partition sort order.  May be empty
        for single-row-per-partition tables (e.g. ``nodeinfos``).
    clustering_order:
        ``"asc"`` or ``"desc"``: the direction a CQL ``SELECT`` without
        ``ORDER BY`` reads a partition in (rows are stored ascending
        either way); the event tables use ascending timestamp.
    time_bucket:
        ``(column, width_seconds)`` for a time-bucketed table: the first
        partition-key column is ``floor(ts / width)``, e.g. ``("hour",
        3600.0)``.  The single source of the bucket width — writers call
        :meth:`bucket_of`, readers :meth:`buckets` — and bucket ids are
        ints.
    """

    name: str
    partition_key: tuple[str, ...]
    clustering_key: tuple[str, ...] = ()
    clustering_order: str = "asc"
    description: str = ""
    time_bucket: tuple[str, float] | None = None

    def __post_init__(self):
        if not self.name:
            raise SchemaError("table name must be non-empty")
        if not self.partition_key:
            raise SchemaError(f"table {self.name!r}: partition key required")
        if self.clustering_order not in ("asc", "desc"):
            raise SchemaError(
                f"table {self.name!r}: clustering_order must be 'asc' or 'desc'"
            )
        if self.time_bucket is not None and (
            self.time_bucket[0] != self.partition_key[0]
            or not self.time_bucket[1] > 0
        ):
            raise SchemaError(
                f"table {self.name!r}: time_bucket must name the first "
                "partition key column and a positive width"
            )
        overlap = set(self.partition_key) & set(self.clustering_key)
        if overlap:
            raise SchemaError(
                f"table {self.name!r}: columns {sorted(overlap)} appear in both "
                "partition and clustering keys"
            )

    # -- time buckets ---------------------------------------------------

    def bucket_of(self, ts: float) -> int:
        """The bucket-column value of a row stamped *ts*."""
        return int(ts // self.time_bucket[1])

    def buckets(self, t0: float, t1: float) -> range:
        """The buckets ``[t0, t1)`` overlaps: ``floor(t0/W) … ceil(t1/W)``
        (floor division is exact, so a window ending on a bucket edge
        never reaches into the next bucket)."""
        if t1 <= t0:
            return range(0)
        width = self.time_bucket[1]
        return range(int(t0 // width), -int(-t1 // width))

    def column_source(self, column: str) -> tuple[str, Any]:
        """Where a column's value lives, as the ``(kind, ref)`` source
        the vector kernels take: ``("pk", name)``, ``("ck", index)`` or
        ``("cell", name)``."""
        if column in self.partition_key:
            return ("pk", column)
        if column in self.clustering_key:
            return ("ck", self.clustering_key.index(column))
        return ("cell", column)

    # -- keys -----------------------------------------------------------

    def ring_key(self, key: tuple) -> str:
        """The string a partition's replicas are placed by: the table
        name and the key's values, ``str``-joined.

        The table name is folded in so identical key tuples in different
        tables land on different (statistically independent) ring
        positions, as separate Cassandra tables do.  Only the ring reads
        it: two keys that join alike share replicas, not a partition.
        """
        if len(key) != len(self.partition_key):
            raise SchemaError(
                f"table {self.name!r}: expected {len(self.partition_key)} "
                f"partition key values, got {len(key)}"
            )
        return _KEY_SEPARATOR.join([self.name, *map(str, key)])

    @cached_property
    def row_builder(
        self,
    ) -> Callable[[Mapping[str, Any], int], tuple[tuple, Row]]:
        """Precompiled ``(values, write_ts) -> (partition key, Row)``.

        The per-row unit of work on the hot write path (``insert``,
        ``write_batch``, a delete's marker): the column getters and the
        key-column set are bound into the closure up front instead of being
        re-derived from the schema on every call, and the non-key
        columns go into the row's ``values`` dict in a single
        comprehension — no per-column object, and a dict of scalars is
        invisible to the cyclic collector.  A missing key column is a
        :class:`SchemaError`.

        (``cached_property`` writes straight into ``__dict__``, which a
        frozen dataclass permits — only ``__setattr__`` is blocked.)
        """
        name = self.name
        pk_cols = self.partition_key
        ck_cols = self.clustering_key
        key_cols = frozenset(pk_cols) | frozenset(ck_cols)
        # itemgetter runs the column lookups in C; arity 1 returns a
        # bare value, 2+ a tuple (the key itself), hence the shapes below.
        pk_get = itemgetter(*pk_cols)
        single_pk = len(pk_cols) == 1
        ck_get = itemgetter(*ck_cols) if ck_cols else None
        single_ck = len(ck_cols) == 1

        def build(values: Mapping[str, Any], write_ts: int) -> tuple[tuple, Row]:
            try:
                pk = (pk_get(values),) if single_pk else pk_get(values)
                if ck_get is None:
                    clustering: tuple = ()
                elif single_ck:
                    clustering = (ck_get(values),)
                else:
                    clustering = ck_get(values)
            except KeyError as exc:
                raise SchemaError(
                    f"table {name!r}: missing key column {exc.args[0]!r}"
                ) from None
            return pk, Row(
                clustering,
                {k: v for k, v in values.items() if k not in key_cols},
                write_ts,
            )

        return build

    def rehydrate(self, partition_values: Mapping[str, Any], clustering: tuple,
                  cells: Mapping[str, Any]) -> dict[str, Any]:
        """Reassemble a full ``column -> value`` row for query results."""
        out = dict(partition_values)
        out.update(zip(self.clustering_key, clustering))
        out.update(cells)
        return out


@dataclass
class Keyspace:
    """A named collection of table schemas (plus replication settings)."""

    name: str
    replication_factor: int = 1
    tables: dict[str, TableSchema] = field(default_factory=dict)

    def create_table(self, schema: TableSchema) -> TableSchema:
        if schema.name in self.tables:
            raise SchemaError(f"table already exists: {schema.name!r}")
        self.tables[schema.name] = schema
        return schema

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no such table: {name!r}") from None
