"""Table schemas: partition keys, clustering keys, flexible columns.

The paper's data model (§II-B, Figs 1–2) hinges on *which columns form
the partition key* — ``(hour, type)`` for ``event_by_time``,
``(hour, source)`` for ``event_by_location`` — and on clustering rows by
timestamp inside each partition.  A :class:`TableSchema` captures exactly
that: it extracts the partition key string (the unit of distribution over
the ring) and the clustering tuple (the in-partition sort order) from a
plain column mapping.

Regular columns are intentionally *not* enumerated: the store is
schema-flexible like Cassandra's wide rows, so new event types with new
fields need no migration (the "Flexibility" design consideration of
§II-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from .errors import SchemaError
from .row import Row
from .vector import BlockHints

__all__ = ["TableSchema", "Keyspace"]

_KEY_SEPARATOR = "\x1f"  # unit separator: cannot collide with log text fields


@dataclass(frozen=True)
class TableSchema:
    """Declarative description of one table.

    Parameters
    ----------
    name:
        Table name, unique within a keyspace.
    partition_key:
        Column names whose values are concatenated (order-sensitive) into
        the partition key hashed onto the ring.
    clustering_key:
        Column names forming the in-partition sort order.  May be empty
        for single-row-per-partition tables (e.g. ``nodeinfos``).
    clustering_order:
        ``"asc"`` or ``"desc"``: the direction a CQL ``SELECT`` without
        ``ORDER BY`` reads a partition in (rows are stored ascending
        either way); the event tables use ascending timestamp.
    index_interval:
        Sparse-clustering-index density for this table's SSTables: one
        key sampled per this many rows.  Wide telemetry tables can use a
        coarser interval, narrow alert tables a finer one.
    time_bucket:
        ``(column, width_seconds)`` for a time-bucketed table: the first
        partition-key column is ``floor(ts / width)``, e.g. ``("hour",
        3600.0)``.  The single source of the bucket width — writers call
        :meth:`bucket_of`, readers :meth:`buckets` — and bucket ids are
        ints, so the column's ring-key codec is implied.
    """

    name: str
    partition_key: tuple[str, ...]
    clustering_key: tuple[str, ...] = ()
    clustering_order: str = "asc"
    description: str = ""
    # Optional converters applied when a partition key is *parsed back*
    # from its ring-key string (full scans, locality reads).  Keys are
    # partition-key column names, values are callables str -> value,
    # e.g. (("apid", int),).  Unlisted columns come back as strings.
    key_codecs: tuple[tuple[str, Callable[[str], Any]], ...] = ()
    index_interval: int = 64
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
        if self.index_interval < 1:
            raise SchemaError(
                f"table {self.name!r}: index_interval must be >= 1"
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

    @cached_property
    def block_hints(self) -> BlockHints:
        """The per-table knobs the storage layer threads into the runs
        it builds (see :class:`~repro.cassdb.vector.BlockHints`)."""
        return BlockHints(index_interval=self.index_interval)

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

    # -- key extraction -------------------------------------------------

    def partition_key_of(self, values: Mapping[str, Any]) -> str:
        """Build the ring key for a row's column values.

        The table name is folded in so identical key tuples in different
        tables land on different (statistically independent) ring
        positions, as separate Cassandra tables do.
        """
        parts = [self.name]
        for col in self.partition_key:
            if col not in values:
                raise SchemaError(
                    f"table {self.name!r}: missing partition key column {col!r}"
                )
            parts.append(str(values[col]))
        return _KEY_SEPARATOR.join(parts)

    def partition_key_from_tuple(self, key_values: Sequence[Any]) -> str:
        """Ring key from positional partition-key values (planner path)."""
        if len(key_values) != len(self.partition_key):
            raise SchemaError(
                f"table {self.name!r}: expected {len(self.partition_key)} "
                f"partition key values, got {len(key_values)}"
            )
        return _KEY_SEPARATOR.join([self.name, *map(str, key_values)])

    def clustering_of(self, values: Mapping[str, Any]) -> tuple:
        """Build the in-partition clustering tuple for a row."""
        out = []
        for col in self.clustering_key:
            if col not in values:
                raise SchemaError(
                    f"table {self.name!r}: missing clustering key column {col!r}"
                )
            out.append(values[col])
        return tuple(out)

    @cached_property
    def row_builder(
        self,
    ) -> Callable[[Mapping[str, Any], int], tuple[str, Row]]:
        """Precompiled ``(values, write_ts) -> (ring key, Row)``.

        The per-row unit of work on the hot write path (``insert`` and
        ``write_batch``): the column tuples, key-column set and
        separator are bound into the closure up front instead of being
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
        sep = _KEY_SEPARATOR
        prefix = name + sep
        # itemgetter runs the column lookups in C; arity 1 returns a
        # bare value, 2+ a tuple, hence the three shapes below.
        pk_get = itemgetter(*pk_cols)
        single_pk = len(pk_cols) == 1
        ck_get = itemgetter(*ck_cols) if ck_cols else None
        single_ck = len(ck_cols) == 1

        def build(values: Mapping[str, Any], write_ts: int) -> tuple[str, Row]:
            try:
                if single_pk:
                    pk = prefix + str(pk_get(values))
                else:
                    pk = prefix + sep.join(map(str, pk_get(values)))
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

    def partition_values_from_key(self, ring_key: str) -> dict[str, Any]:
        """Invert :meth:`partition_key_of`.

        Values come back as strings unless a codec was declared for the
        column in ``key_codecs``; the ``time_bucket`` column is an int.
        """
        parts = ring_key.split(_KEY_SEPARATOR)
        if parts[0] != self.name or len(parts) != len(self.partition_key) + 1:
            raise SchemaError(f"ring key {ring_key!r} is not from table {self.name!r}")
        out: dict[str, Any] = dict(zip(self.partition_key, parts[1:]))
        for col, codec in self.key_codecs:
            if col in out:
                out[col] = codec(out[col])
        if self.time_bucket is not None:
            out[self.time_bucket[0]] = int(out[self.time_bucket[0]])
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
