"""The pushed full scan: an unrouted aggregate hands its fold and its
clustering bounds to the scan, whichever engine walks the partitions.

Three kinds of test: the duplicate-bound regressions of
``predicate_pushdown``, a generated three-way agreement (sparklet
engine, serial engine, the plain-Python reference) over every store
state a partition can be in, and the mechanism as exact counts — a
flushed full scan builds no row, and a scan task still enters the
store through ``Cluster.read_partition_raw``, once per partition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cassdb import Cluster, Consistency, Session, TableSchema
from repro.cassdb.row import columns_of
from repro.cassdb.vector import BlockView
from repro.sparklet import SparkletContext
from tests.oracle import eval_select


def _ten_rows(flushed):
    """Partitions hour 0 and hour 1, ten rows ``ts = 0…9`` each."""
    cluster = Cluster(2, replication_factor=1)
    cluster.create_table(TableSchema(
        "t", partition_key=("hour",), clustering_key=("ts",)))
    rows = [{"hour": hour, "ts": ts, "v": ts}
            for hour in (0, 1) for ts in range(10)]
    cluster.insert_many("t", columns_of(rows))
    if flushed:
        cluster.flush_all()
    return cluster, rows


class TestRepeatedBounds:
    """A second bound on one side, or ``=`` beside a range, used to
    replace the first one silently: the last predicate won."""

    # (WHERE terms on the first clustering column, the same for the oracle)
    CASES = [
        ("ts >= 5 AND ts >= 1", [("ts", ">=", 5), ("ts", ">=", 1)]),
        ("ts >= 1 AND ts >= 5", [("ts", ">=", 1), ("ts", ">=", 5)]),
        ("ts > 2 AND ts >= 7", [("ts", ">", 2), ("ts", ">=", 7)]),
        ("ts < 3 AND ts < 8", [("ts", "<", 3), ("ts", "<", 8)]),
        ("ts <= 8 AND ts < 3", [("ts", "<=", 8), ("ts", "<", 3)]),
        ("ts = 3 AND ts >= 1", [("ts", "=", 3), ("ts", ">=", 1)]),
        ("ts >= 1 AND ts = 3", [("ts", ">=", 1), ("ts", "=", 3)]),
        ("ts = 3 AND ts = 4", [("ts", "=", 3), ("ts", "=", 4)]),
        ("ts <= 6 AND ts = 3 AND ts > 1",
         [("ts", "<=", 6), ("ts", "=", 3), ("ts", ">", 1)]),
    ]

    @pytest.mark.parametrize("flushed", [False, True],
                             ids=["memtable", "flushed"])
    @pytest.mark.parametrize("where,predicates", CASES,
                             ids=[where.replace(" AND ", ",").replace(" ", "")
                                  for where, _ in CASES])
    def test_every_bound_holds(self, where, predicates, flushed):
        cluster, rows = _ten_rows(flushed)
        session = Session(cluster)
        try:
            routed = [("hour", "=", 0)] + predicates
            assert session.execute(
                f"SELECT ts FROM t WHERE hour = 0 AND {where}"
            ) == eval_select(rows, routed, columns=["ts"])
            count = [("count", None)]
            assert session.execute(
                f"SELECT count(*) FROM t WHERE hour = 0 AND {where}"
            ) == eval_select(rows, routed, aggregates=count)
            assert session.execute(
                f"SELECT count(*) FROM t WHERE {where}"
            ) == eval_select(rows, predicates, aggregates=count)
        finally:
            cluster.close()

    def test_placeholders_are_not_intersected(self):
        cluster, rows = _ten_rows(flushed=True)
        try:
            session = Session(cluster)
            q = "SELECT count(*) FROM t WHERE ts >= ? AND ts >= ?"
            assert session.execute(q, (5, 1)) == [{"count": 10}]
            assert session.execute(q, (1, 5)) == [{"count": 10}]
        finally:
            cluster.close()

    def test_one_bound_a_side_is_pushed_the_rest_filter(self):
        cluster, _ = _ten_rows(flushed=False)
        try:
            plan = Session(cluster).explain(
                "SELECT ts FROM t WHERE hour = 0"
                " AND ts >= 5 AND ts < 9 AND ts >= 1 AND ts = 6")
            assert plan["rules"]["predicate_pushdown"] == 2
            filt = plan["plan"]["children"][0]
            assert filt["predicates"] == ["ts >= 1", "ts = 6"]
            assert (filt["children"][0]["clustering_range"]
                    == "ts >= 5 AND ts < 9")
        finally:
            cluster.close()


class TestExplain:
    @pytest.fixture
    def session(self):
        cluster, _ = _ten_rows(flushed=False)
        yield Session(cluster)
        cluster.close()

    def test_full_scan_reports_its_bounds(self, session):
        plan = session.explain(
            "SELECT count(*) FROM t WHERE ts >= ? AND ts < 8 AND v = 3")
        scan = plan["plan"]["children"][0]
        assert scan["op"] == "FullScanAggregate"
        assert scan["clustering_range"] == "ts >= ? AND ts < 8"
        assert scan["residual"] == ["v = 3"]
        assert plan["rules"] == {"predicate_pushdown": 2}

    def test_no_bound_no_attribute(self, session):
        plan = session.explain("SELECT hour, count(*) FROM t"
                               " WHERE v = 3 GROUP BY hour")
        scan = plan["plan"]["children"][0]
        assert list(scan) == ["op", "table", "access", "engine", "group_by",
                              "aggregates", "residual", "children"]
        assert plan["rules"] == {}


# -- three engines, generated ------------------------------------------------

STATES = ["unflushed", "flushed", "half_flushed", "tombstones",
          "replica_killed"]
AGGREGATES = [("count", None), ("count", "amount"), ("sum", "amount"),
              ("min", "amount"), ("max", "amount"), ("avg", "amount"),
              ("min", "ts"), ("max", "ts"), ("count", "src")]
GROUPINGS = [[], ["hour"], ["hour", "kind"], ["src"], ["ts"], ["kind"]]

events = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(["a", "b"]),
              st.integers(0, 12), st.sampled_from(["x", "y", "z"]),
              st.one_of(st.none(), st.integers(0, 9))),
    max_size=40)
ts_terms = st.lists(
    st.tuples(st.just("ts"), st.sampled_from([">", ">=", "<", "<=", "="]),
              st.integers(0, 12)),
    max_size=2)
residuals = st.lists(st.one_of(
    st.tuples(st.just("amount"), st.sampled_from([">=", "<", "="]),
              st.integers(0, 9)),
    st.tuples(st.just("src"), st.just("="), st.sampled_from(["x", "y"])),
    st.tuples(st.just("kind"), st.just("="), st.sampled_from(["a", "b"])),
), max_size=1)


def _load(state, drawn):
    """The cluster in *state*, and the live rows as the oracle sees them
    (absent cells omitted)."""
    killed = state == "replica_killed"
    cluster = Cluster(3, replication_factor=2 if killed else 1)
    cluster.create_table(TableSchema(
        "ev", partition_key=("hour", "kind"), clustering_key=("ts", "seq")))
    rows = []
    for seq, (hour, kind, ts, src, amount) in enumerate(drawn):
        row = {"hour": hour, "kind": kind, "ts": ts, "seq": seq, "src": src}
        if amount is not None:
            row["amount"] = amount
        rows.append(row)
    half = len(rows) // 2 if state == "half_flushed" else len(rows)
    cluster.insert_many("ev", columns_of(rows[:half]))
    if state != "unflushed":
        cluster.flush_all()
    cluster.insert_many("ev", columns_of(rows[half:]))
    if state == "tombstones":
        # Deleted after the flush: the tombstone sits in the memtable
        # and shadows a row of the column block.
        for row in rows[::3]:
            cluster.delete_row("ev", row)
        rows = [r for i, r in enumerate(rows) if i % 3]
    if killed:
        cluster.kill_node(sorted(cluster.nodes)[0])
    return cluster, rows


def _render(predicates, as_params):
    """(WHERE clause, bind parameters): every other value a placeholder
    when *as_params*."""
    terms, params = [], []
    for i, (column, op, value) in enumerate(predicates):
        if as_params and i % 2 == 0:
            terms.append(f"{column} {op} ?")
            params.append(value)
        else:
            terms.append(f"{column} {op} {value!r}")
    return (" WHERE " + " AND ".join(terms) if terms else ""), tuple(params)


class TestThreeEnginesAgree:
    @settings(max_examples=60, deadline=None)
    @given(drawn=events, state=st.sampled_from(STATES),
           aggregates=st.lists(st.sampled_from(AGGREGATES), min_size=1,
                               max_size=3, unique=True),
           group_by=st.sampled_from(GROUPINGS),
           ts_terms=ts_terms, residual=residuals,
           residual_first=st.booleans(), as_params=st.booleans())
    def test_unrouted_aggregate(self, drawn, state, aggregates, group_by,
                                ts_terms, residual, residual_first,
                                as_params):
        predicates = (residual + ts_terms if residual_first
                      else ts_terms + residual)
        where, params = _render(predicates, as_params)
        select = ", ".join(group_by + [
            "count(*)" if column is None else f"{fn}({column})"
            for fn, column in aggregates])
        query = f"SELECT {select} FROM ev{where}" + (
            " GROUP BY " + ", ".join(group_by) if group_by else "")
        cluster, rows = _load(state, drawn)
        sc = SparkletContext(cluster=cluster)
        try:
            want = eval_select(rows, predicates, group_by, aggregates)
            serial = Session(cluster)
            sparklet = Session(cluster, sparklet=sc)
            assert serial.execute(query, params) == want
            assert sparklet.execute(query, params) == want
            for session, engine in ((serial, "serial"),
                                    (sparklet, "sparklet")):
                plan = session.explain(query)
                scan = plan["plan"]["children"][0]
                assert scan["op"] == "FullScanAggregate"
                assert scan["engine"] == engine
                # The first term on the clustering column always finds
                # its side free.
                assert ("clustering_range" in scan) == bool(ts_terms)
                pushed = plan["rules"].get("predicate_pushdown", 0)
                assert pushed >= bool(ts_terms)
                assert len(scan["residual"]) + pushed == len(predicates)
        finally:
            sc.stop()
            cluster.close()


# -- the mechanism, as counts ------------------------------------------------

@pytest.fixture
def flushed_table():
    cluster = Cluster(4, replication_factor=2)
    cluster.create_table(TableSchema(
        "ev", partition_key=("hour", "kind"), clustering_key=("ts",)))
    rows = [{"hour": hour, "kind": kind, "ts": ts, "amount": ts % 5}
            for hour in range(6) for kind in "ab" for ts in range(25)]
    cluster.insert_many("ev", columns_of(rows))
    cluster.flush_all()
    sc = SparkletContext(cluster=cluster)
    yield cluster, sc, rows
    sc.stop()
    cluster.close()


def count_locality_reads(monkeypatch):
    """Patch ``Cluster.read_partition_raw`` (by name, as the benchmark's
    tracer does) to list the partition keys it is entered with."""
    entered = []
    read = Cluster.read_partition_raw

    def counting(self, table, partition_key, **kwargs):
        entered.append((table, partition_key))
        return read(self, table, partition_key, **kwargs)

    monkeypatch.setattr(Cluster, "read_partition_raw", counting)
    return entered


class TestFoldedScanMechanism:
    QUERY = ("SELECT kind, count(*), sum(amount) FROM ev"
             " WHERE ts >= 10 GROUP BY kind")

    def test_flushed_unrouted_aggregate_builds_no_row(self, flushed_table):
        cluster, sc, rows = flushed_table
        built = obs.get_registry().counter("cassdb.vector.rows_materialized")
        session = Session(cluster, sparklet=sc)
        before = built.value
        got = session.execute(self.QUERY)
        assert built.value == before
        assert got == eval_select(
            rows, [("ts", ">=", 10)], ["kind"],
            [("count", None), ("sum", "amount")])

    def test_one_locality_read_per_partition(self, flushed_table,
                                             monkeypatch):
        cluster, sc, _ = flushed_table
        entered = count_locality_reads(monkeypatch)
        Session(cluster, sparklet=sc).execute(self.QUERY)
        assert sorted(entered) == sorted(
            ("ev", pk) for pk in cluster.partition_keys("ev"))
        assert len(entered) == 12

    def test_the_bound_prunes_inside_the_store(self, flushed_table):
        cluster, sc, rows = flushed_table
        pruned = obs.get_registry().counter("cassdb.store.rows_pruned")
        before = pruned.value
        Session(cluster, sparklet=sc).execute(self.QUERY)
        assert pruned.value - before == sum(r["ts"] < 10 for r in rows)


class TestHalfFlushedFoldMechanism:
    """A fold sees only blocks and builds no row, whichever tiers hold
    the partition: hour 0 sits in an SSTable, hour 1 in an SSTable and
    the memtable, hour 2 in the memtable."""

    ROUTED = ("SELECT source, count(*), sum(amount) FROM event_by_time"
              " WHERE hour = 1 AND type = ? GROUP BY source")
    UNROUTED = ("SELECT type, count(*), sum(amount) FROM event_by_time"
                " WHERE ts >= 600 GROUP BY type")

    @pytest.fixture(scope="class")
    def stores(self):
        from repro.core import LogAnalyticsFramework
        from repro.genlog import LogGenerator
        from repro.titan import TitanTopology

        topo = TitanTopology(rows=1, cols=1)
        events = LogGenerator(topo, seed=3, rate_multiplier=40).generate(3)
        early = [e for e in events if e.ts < 5400.0]
        late = [e for e in events if e.ts >= 5400.0]
        common = max(set(e.type for e in late),
                     key=[e.type for e in events].count)
        with LogAnalyticsFramework(topo, db_nodes=3).setup() as flushed, \
                LogAnalyticsFramework(topo, db_nodes=3).setup() as half:
            for fw in (flushed, half):
                fw.ingest_events(early)
            half.cluster.flush_all()
            for fw in (flushed, half):
                fw.ingest_events(late)
            flushed.cluster.flush_all()
            yield flushed, half, common

    @pytest.mark.parametrize("request_", [
        "heatmap", "histogram", "routed", "unrouted", "refresh_synopsis"])
    def test_builds_what_the_flushed_store_builds(self, stores, request_):
        flushed, half, common = stores
        built = obs.get_registry().counter("cassdb.vector.rows_materialized")

        def run(fw):
            # Untyped: the event-type catalogue read is the one
            # dict-building read of the two analytics ops.
            context = fw.context(0.0, 10_800.0)
            before = built.value
            answer = {
                "heatmap": lambda: fw.heatmap(context),
                "histogram": lambda: [
                    list(part) for part in fw.time_histogram(context, 12)],
                "routed": lambda: fw.cql(self.ROUTED, [common]),
                "unrouted": lambda: fw.cql(self.UNROUTED),
                "refresh_synopsis": fw.refresh_synopsis,
            }[request_]()
            return answer, built.value - before

        want, flushed_built = run(flushed)
        got, half_built = run(half)
        assert got == want and want
        assert half_built == flushed_built
        if request_ in ("routed", "unrouted", "refresh_synopsis"):
            assert half_built == 0

    @pytest.mark.parametrize("consistency", [Consistency.ONE,
                                             Consistency.QUORUM])
    def test_a_fold_receives_a_block_view(self, stores, consistency):
        _, half, common = stores
        cluster = half.cluster
        seen = []

        def recording(pk_values, view):
            seen.append(type(view))
            return len(view)

        counts = cluster.aggregate_partitions(
            "event_by_time", [(hour, common) for hour in range(4)],
            fold=recording, consistency=consistency)
        assert counts[1] and counts[2] and not counts[3]
        scanned = list(cluster.fold_table_partitions(
            "event_by_time", recording))
        for pk in cluster.partition_keys("event_by_time"):
            cluster.read_partition_raw("event_by_time", pk, fold=recording)
        assert len(seen) == 4 + 2 * len(scanned)
        assert set(seen) == {BlockView}


class TestAMemtableFaceSurvivesTheRead:
    """A memtable partition keeps its read face until it is written,
    held as a count of faces built (partitions the memtable gathers
    for a read): a full scan over unflushed partitions builds one face
    per partition it reads, the same scan again builds none, and a
    write batch into one partition makes the next scan build exactly
    one."""

    QUERY = "SELECT type, count(*) FROM ev GROUP BY type"

    def test_a_repeated_scan_builds_no_face(self, monkeypatch):
        from repro.cassdb.memtable import Memtable

        built = []
        gather = Memtable.gather

        def counting(memtable, positions):
            built.append(len(positions))
            return gather(memtable, positions)

        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(TableSchema(
            "ev", partition_key=("hour", "type"), clustering_key=("ts",)))
        rows = [{"hour": hour, "type": type_, "ts": ts, "amount": 1}
                for hour in range(6) for type_ in "ab" for ts in range(25)]
        cluster.insert_many("ev", columns_of(rows))
        sc = SparkletContext(cluster=cluster)
        session = Session(cluster, sparklet=sc)
        monkeypatch.setattr(Memtable, "gather", counting)
        try:
            builds = []
            answers = []
            for batch in ([], [], [{"hour": 0, "type": "a", "ts": 99,
                                    "amount": 1}]):
                if batch:
                    cluster.write_batch("ev", columns_of(batch))
                del built[:]
                answers.append(session.execute(self.QUERY))
                builds.append(len(built))
        finally:
            sc.stop()
            cluster.close()
        assert builds == [len(cluster.partition_keys("ev")), 0, 1]
        assert answers[0] == answers[1] == [
            {"type": "a", "count": 150}, {"type": "b", "count": 150}]
        assert answers[2] == [
            {"type": "a", "count": 151}, {"type": "b", "count": 150}]
