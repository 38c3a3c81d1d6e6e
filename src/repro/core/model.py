"""The paper's data model: eight tables over the cassdb backend (§II-B).

    nodeinfos                system topology (rack/cage/blade/node, routing)
    eventtypes               the monitored event catalogue
    eventsynopsis            per-hour, per-type occurrence summary
    event_by_time            events partitioned by (hour, type)
    event_by_location        events partitioned by (hour, source)
    application_by_time      runs partitioned by hour
    application_by_user      runs partitioned by user
    application_by_location  runs partitioned by node

The two event tables are the dual views of Fig 1: same events, hashed
to partitions by hour+type or hour+source, rows clustered by timestamp
inside each partition (a one-hour time series).  The three application
tables are the denormalized views of Fig 2.

:class:`LogDataModel` owns table creation, loading and the query
helpers the analytics layer builds on.  It implements the ingest
``EventSink`` protocol (``write_events``) so both ETL modes write
through it.

Design notes
------------
* Events carry a ``seq`` clustering column to disambiguate identical
  timestamps (Cassandra practice: a time-series clustering key must be
  unique within the partition).
* A run that spans multiple hours appears in every hour's partition of
  ``application_by_time`` (with ``is_start`` marking the first) —
  the "set of denormalized views" §II-B describes, which makes
  "who was running at time T" a single-partition read.
* ``eventsynopsis`` is refreshed by an engine job over ``event_by_time``
  (aggregation is the big-data unit's job, §III-C), not incremented
  per write.
"""

from __future__ import annotations

import itertools
import json
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.cassdb import Cluster, ClusteringBound, TableSchema
from repro.cassdb.row import UNSET, columns_of
from repro.cassdb.vector import column_lists
from repro.genlog.jobs import ApplicationRun
from repro.genlog.templates import render_line
from repro.titan.events import EventRegistry
from repro.titan.topology import NodeLocation, TitanTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.cassdb import Session

__all__ = ["TABLE_SCHEMAS", "LogDataModel", "event_amounts"]


# The four hour-bucketed tables declare ``time_bucket``; it is the only
# place the bucket width is written (see docs/data-model.md).
TABLE_SCHEMAS: dict[str, TableSchema] = {
    "nodeinfos": TableSchema(
        "nodeinfos",
        partition_key=("cname",),
        description="Physical position and hardware of every node",
    ),
    "eventtypes": TableSchema(
        "eventtypes",
        partition_key=("name",),
        description="Catalogue of monitored event types",
    ),
    "eventsynopsis": TableSchema(
        "eventsynopsis",
        partition_key=("hour",),
        clustering_key=("type",),
        time_bucket=("hour", 3600.0),
        description="Per-hour per-type occurrence summary",
    ),
    "event_by_time": TableSchema(
        "event_by_time",
        partition_key=("hour", "type"),
        clustering_key=("ts", "seq"),
        time_bucket=("hour", 3600.0),
        description="Events viewed by time: partition (hour, type)",
    ),
    "event_by_location": TableSchema(
        "event_by_location",
        partition_key=("hour", "source"),
        clustering_key=("ts", "seq"),
        time_bucket=("hour", 3600.0),
        description="Events viewed by location: partition (hour, source)",
    ),
    "application_by_time": TableSchema(
        "application_by_time",
        partition_key=("hour",),
        clustering_key=("start", "apid"),
        time_bucket=("hour", 3600.0),
        description="Application runs viewed by hour",
    ),
    "application_by_user": TableSchema(
        "application_by_user",
        partition_key=("user",),
        clustering_key=("start", "apid"),
        description="Application runs viewed by user",
    ),
    "application_by_location": TableSchema(
        "application_by_location",
        partition_key=("source",),
        clustering_key=("start", "apid"),
        description="Application runs viewed by node",
    ),
}

_BY_TIME = TABLE_SCHEMAS["event_by_time"]
_RUNS_BY_TIME = TABLE_SCHEMAS["application_by_time"]

# An event's ``attrs`` column: ``json.dumps(attrs, sort_keys=True)``, with
# the encoder built once (``dumps`` builds one per call when given an
# argument).
_attrs_json = json.JSONEncoder(sort_keys=True).encode

_SYNOPSIS_CQL = ("SELECT hour, type, count(*), count(amount), sum(amount)"
                 " FROM event_by_time GROUP BY hour, type")

# (column, op, value) residuals a read hands to the store.
Predicates = Sequence[tuple[str, str, Any]]


def event_amounts(column: list) -> list[int]:
    """An ``amount`` column read by :meth:`LogDataModel.event_columns`
    as the weights every fold sums: an event without the cell counts
    once, exactly as ``int(row.get("amount", 1))`` reads a row."""
    if set(map(type, column)) <= {int}:
        return column
    return [1 if amount is None else int(amount) for amount in column]


class LogDataModel:
    """The eight-table model bound to a cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._seq = itertools.count()

    # -- schema ----------------------------------------------------------

    def create_tables(self) -> None:
        for schema in TABLE_SCHEMAS.values():
            self.cluster.create_table(schema)

    # -- reference data ------------------------------------------------------

    def load_nodeinfos(self, topology: TitanTopology) -> int:
        return self.cluster.insert_many(
            "nodeinfos", columns_of(topology.nodeinfo_rows()))

    def load_eventtypes(self, registry: EventRegistry) -> int:
        return self.cluster.insert_many(
            "eventtypes",
            columns_of(
                {
                    "name": t.name,
                    "category": t.category,
                    "severity": t.severity.value,
                    "source": t.source.value,
                    "description": t.description,
                    "base_rate": t.base_rate,
                    "fatal_to_node": t.fatal_to_node,
                }
                for t in registry
            ),
        )

    def nodeinfo(self, cname: str) -> dict[str, Any] | None:
        rows = self.cluster.select_partition("nodeinfos", (cname,))
        return rows[0] if rows else None

    def event_types(self) -> list[dict[str, Any]]:
        return sorted(
            self.cluster.scan_table("eventtypes"), key=lambda r: r["name"]
        )

    # -- event ingestion (EventSink protocol) -------------------------------------

    def write_events(self, events: Iterable) -> int:
        """Persist events into both dual views (Fig 1) as one batch each;
        returns events written.

        Accepts anything with ``ts/type/component/amount/attrs``
        attributes (generator events, parsed events).  This is the
        batched :class:`~repro.ingest.sink.EventSink` entry point: one
        call — one ETL task's events, or everything one streaming poll
        closed — becomes one list per column, and the dual views share
        those lists: one :meth:`~repro.cassdb.Cluster.write_batch` per
        view table, each extracting its own partition key, so the
        backend sees two batched commits (two epoch bumps) and no
        per-event object.  ``seq`` is assigned in the order the events
        arrive; an event without ``attrs`` leaves that cell unset.
        """
        columns: dict[str, list] = {name: [] for name in (
            "ts", "seq", "amount", "hour", "type", "source", "attrs", "msg")}
        ts, seq, amount, hour, types, source, attrs, msg = columns.values()
        # Both views bucket by the same hour column.
        hour_of = _BY_TIME.bucket_of
        next_seq = self._seq.__next__
        for event in events:
            ts.append(float(event.ts))
            seq.append(next_seq())
            amount.append(int(getattr(event, "amount", 1)))
            hour.append(hour_of(event.ts))
            types.append(event.type)
            source.append(event.component)
            attrs.append(_attrs_json(event.attrs) if event.attrs else UNSET)
            # Retain the raw message (semi-structured retention, §II-A);
            # generator events are rendered on the fly so text mining has
            # a corpus either way.
            raw = getattr(event, "raw", None)
            if raw is None:
                raw = render_line(event).split(": ", 1)[-1]
            msg.append(raw)
        if not ts:
            return 0
        n = self.cluster.write_batch("event_by_time", columns)
        self.cluster.write_batch("event_by_location", columns)
        return n

    # -- application ingestion --------------------------------------------------------

    def write_applications(self, runs: Iterable[ApplicationRun]) -> int:
        """Fan runs out to the three denormalized views (Fig 2), one
        batched commit per view table."""
        by_time: list[dict[str, Any]] = []
        by_user: list[dict[str, Any]] = []
        by_location: list[dict[str, Any]] = []
        n = 0
        for run in runs:
            common = {
                "start": run.start,
                "apid": run.apid,
                "end": run.end,
                "app": run.app,
                "user": run.user,
                "num_nodes": run.num_nodes,
                "nodes": json.dumps(run.nodes),
                "exit_status": run.exit_status,
            }
            # A zero-length run still appears in its start hour.
            first_hour = _RUNS_BY_TIME.bucket_of(run.start)
            for hour in (_RUNS_BY_TIME.buckets(run.start, run.end)
                         or (first_hour,)):
                by_time.append(
                    {**common, "hour": hour, "is_start": hour == first_hour}
                )
            by_user.append(common)
            for cname in run.nodes:
                by_location.append({**common, "source": cname})
            n += 1
        if n:
            self.cluster.write_batch("application_by_time",
                                     columns_of(by_time))
            self.cluster.write_batch("application_by_user",
                                     columns_of(by_user))
            self.cluster.write_batch("application_by_location",
                                     columns_of(by_location))
        return n

    # -- event queries ------------------------------------------------------------

    def events_of_type(self, event_type: str, t0: float, t1: float,
                       where: Predicates | None = None
                       ) -> list[dict[str, Any]]:
        """Events of one type in [t0, t1): one partition read per hour.
        The store applies the *where* residuals before it builds rows."""
        return self.cluster.select_window(
            "event_by_time", t0, t1, (event_type,), predicates=where)

    def events_at_location(self, source: str, t0: float, t1: float,
                           where: Predicates | None = None
                           ) -> list[dict[str, Any]]:
        """All events at one component in [t0, t1), any type."""
        return self.cluster.select_window(
            "event_by_location", t0, t1, (source,), predicates=where)

    def event_columns(self, view: str, key: str, t0: float, t1: float,
                      names: Sequence[str], where: Predicates | None = None
                      ) -> list[list[list]]:
        """The column read of an event view (``event_by_time`` keyed by
        type, ``event_by_location`` by source): per hour partition of
        *key* in [t0, t1), one value list per name in *names*, aligned,
        in clustering order, ``None`` where an event lacks the cell.

        Extracting columns is a fold at the replica read, so the whole
        window enters the coordinator as one: no row is built on the way.
        """
        schema = TABLE_SCHEMAS[view]

        def fold(pk_values, view):
            return column_lists(view, schema, pk_values, names, where)

        partitions, lower, upper = self.cluster.window_partitions(
            view, t0, t1, (key,))
        return self.cluster.aggregate_partitions(
            view, partitions, lower=lower, upper=upper, fold=fold)

    # -- application queries ----------------------------------------------------------

    @staticmethod
    def _dedupe_runs(rows: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
        seen: set[int] = set()
        out = []
        for row in rows:
            if row["apid"] in seen:
                continue
            seen.add(row["apid"])
            out.append(row)
        return out

    def runs_in_interval(self, t0: float, t1: float) -> list[dict[str, Any]]:
        """Runs overlapping [t0, t1), deduplicated across hour partitions."""
        rows: list[dict[str, Any]] = []
        for hour in _RUNS_BY_TIME.buckets(t0, t1):
            rows.extend(
                self.cluster.select_partition("application_by_time", (hour,))
            )
        return self._dedupe_runs(
            r for r in rows if r["start"] < t1 and r["end"] > t0
        )

    def runs_running_at(self, ts: float) -> list[dict[str, Any]]:
        """Placement snapshot: runs active at *ts* (Fig 6, bottom)."""
        rows = self.cluster.select_partition(
            "application_by_time", (_RUNS_BY_TIME.bucket_of(ts),)
        )
        return self._dedupe_runs(
            r for r in rows if r["start"] <= ts < r["end"]
        )

    def runs_of_user(self, user: str, t0: float | None = None,
                     t1: float | None = None) -> list[dict[str, Any]]:
        lower = ClusteringBound((t0,)) if t0 is not None else None
        upper = (ClusteringBound((t1,), inclusive=False)
                 if t1 is not None else None)
        return self.cluster.select_partition(
            "application_by_user", (user,), lower=lower, upper=upper
        )

    def runs_on_node(self, cname: str) -> list[dict[str, Any]]:
        return self.cluster.select_partition(
            "application_by_location", (cname,)
        )

    @staticmethod
    def run_nodes(run_row: dict[str, Any]) -> list[str]:
        """Decode the JSON-encoded allocation of a run row."""
        return json.loads(run_row["nodes"])

    # -- synopsis ----------------------------------------------------------------------

    def refresh_synopsis(self, session: "Session") -> int:
        """Recompute ``eventsynopsis`` from ``event_by_time`` with an
        engine aggregation job (*session*'s unrouted aggregate: one
        group per partition, folded where it lives); returns rows
        written."""
        # An event without an ``amount`` cell counts once, as in
        # :func:`event_amounts`.
        return self.cluster.insert_many("eventsynopsis", columns_of(
            {"hour": r["hour"], "type": r["type"],
             "occurrences": r["count"],
             "total_amount": ((r["sum_amount"] or 0)
                              + r["count"] - r["count_amount"])}
            for r in session.execute(_SYNOPSIS_CQL)))

    def synopsis_for_hour(self, hour: int) -> list[dict[str, Any]]:
        return self.cluster.select_partition("eventsynopsis", (hour,))
