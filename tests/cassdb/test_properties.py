"""Property-based tests (hypothesis) for cassdb invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassdb import Cluster, Session, TableSchema
from repro.cassdb.bloom import BloomFilter
from repro.cassdb.hashring import HashRing
from repro.cassdb.row import ClusteringBound, Row
from repro.cassdb.storage import TableStore

from tests.oracle import eval_select

from .test_memtable_sstable import scan_partition

keys = st.text(min_size=1, max_size=20)
node_sets = st.lists(
    st.sampled_from([f"n{i}" for i in range(12)]),
    min_size=1, max_size=8, unique=True,
)


class TestRingProperties:
    @given(nodes=node_sets, key=keys)
    def test_primary_is_member(self, nodes, key):
        ring = HashRing(nodes, vnodes=8)
        assert ring.primary(key) in nodes

    @given(nodes=node_sets, key=keys, rf=st.integers(1, 4))
    def test_replicas_distinct_and_bounded(self, nodes, key, rf):
        ring = HashRing(nodes, vnodes=8, replication_factor=rf)
        reps = ring.replicas(key)
        assert len(reps) == min(rf, len(nodes))
        assert len(set(reps)) == len(reps)

    @given(nodes=node_sets, key=keys)
    def test_placement_deterministic(self, nodes, key):
        r1 = HashRing(nodes, vnodes=8)
        r2 = HashRing(list(reversed(nodes)), vnodes=8)
        assert r1.primary(key) == r2.primary(key)

    @given(nodes=node_sets, key=keys)
    def test_remove_unrelated_node_keeps_placement(self, nodes, key):
        ring = HashRing(nodes, vnodes=8)
        owner = ring.primary(key)
        victim = next((n for n in nodes if n != owner), None)
        if victim is None:
            return
        ring.remove_node(victim)
        assert ring.primary(key) == owner


class TestBloomProperties:
    @given(st.lists(keys, max_size=200))
    def test_never_false_negative(self, items):
        bf = BloomFilter.from_keys(items)
        assert all(k in bf for k in items)


class TestScanProperties:
    ts_lists = st.lists(
        st.integers(min_value=-50, max_value=50), min_size=0, max_size=60,
        unique=True,
    )

    @given(ts=ts_lists, lo=st.integers(-60, 60), hi=st.integers(-60, 60),
           inc_lo=st.booleans(), inc_hi=st.booleans())
    def test_scan_matches_naive_filter(self, ts, lo, hi, inc_lo, inc_hi):
        rows = [Row.from_values((t,), {"v": t}) for t in sorted(ts)]
        got = scan_partition(
            rows,
            lower=ClusteringBound((lo,), inc_lo),
            upper=ClusteringBound((hi,), inc_hi),
        )
        def ok(t):
            lo_ok = t >= lo if inc_lo else t > lo
            hi_ok = t <= hi if inc_hi else t < hi
            return lo_ok and hi_ok
        assert [r.clustering[0] for r in got] == [t for t in sorted(ts) if ok(t)]

    @given(ts=ts_lists)
    def test_reverse_is_reversed_forward(self, ts):
        rows = [Row.from_values((t,), {}) for t in sorted(ts)]
        fwd = scan_partition(rows)
        rev = scan_partition(rows, reverse=True)
        assert rev == fwd[::-1]


# A compact model-based test: the LSM store must behave like a dict
# keyed by clustering tuple, regardless of flush/compaction timing.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 15), st.integers(0, 99)),
        st.tuples(st.just("delete"), st.integers(0, 15), st.just(0)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
        st.tuples(st.just("compact"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


class TestStorageModel:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops)
    def test_lsm_equivalent_to_dict(self, ops):
        store = TableStore(flush_threshold=5, max_sstables=3)
        model: dict[tuple, int] = {}
        ts = 0
        for op, key, val in ops:
            ts += 1
            if op == "write":
                store.write("pk", Row.from_values((key,), {"v": val}, write_ts=ts))
                model[(key,)] = val
            elif op == "delete":
                store.delete("pk", (key,), tombstone_ts=ts)
                model.pop((key,), None)
            elif op == "flush":
                store.flush()
            else:
                store.flush()
                store.compact()
        got = {r.clustering: r.value("v") for r in store.read_partition("pk")}
        assert got == model


class TestClusterProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(["A", "B"]),
                      st.integers(0, 1000)),
            max_size=40, unique=True,
        ),
        rf=st.integers(1, 3),
    )
    def test_read_back_everything_written(self, rows, rf):
        cluster = Cluster(4, replication_factor=rf, flush_threshold=7)
        cluster.create_table(TableSchema(
            "t", partition_key=("hour", "type"), clustering_key=("ts",)
        ))
        for hour, type_, ts in rows:
            cluster.insert("t", {"hour": hour, "type": type_, "ts": ts})
        for hour in range(6):
            for type_ in ("A", "B"):
                expected = sorted(
                    ts for h, t, ts in rows if h == hour and t == type_
                )
                got = [
                    r["ts"]
                    for r in cluster.select_partition("t", (hour, type_))
                ]
                assert got == expected


class TestSelectProperties:
    COLUMNS = ["hour", "ts", "seq", "kind", "amount"]

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", None]),
                      st.one_of(st.none(), st.integers(0, 5))),
            max_size=30),
        flush_at=st.one_of(st.none(), st.integers(0, 30)),
        predicates=st.lists(st.one_of(
            st.tuples(st.just("kind"), st.just("in"),
                      st.frozensets(st.sampled_from(["a", "b", "c"]))),
            st.tuples(st.just("amount"),
                      st.sampled_from(["=", "<", ">="]), st.integers(0, 5)),
            st.tuples(st.just("hour"), st.just("="), st.integers(0, 1)),
        ), max_size=2),
        # The first clustering column, up to three times: repeated
        # bounds on one side, '=' beside a range.
        ts_predicates=st.lists(
            st.tuples(st.just("ts"),
                      st.sampled_from([">", ">=", "<", "<=", "="]),
                      st.integers(0, 30)),
            max_size=3),
        columns=st.one_of(st.none(), st.lists(
            st.sampled_from(COLUMNS), min_size=1, unique=True)),
        reverse=st.booleans(),
        limit=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_select_partition_matches_oracle(self, cells, flush_at,
                                             predicates, ts_predicates,
                                             columns, reverse, limit):
        """Projection x predicates x reverse x limit over memtable,
        SSTable and half-flushed partitions; the projection is drawn
        independently of the predicates, so it often drops the column a
        predicate reads.  The same SELECT as a routed CQL statement
        (where it can be spelled) goes through the optimizer, which
        pushes one bound a side and must keep the rest."""
        predicates = predicates + ts_predicates
        cluster = Cluster(2, replication_factor=1)
        cluster.create_table(TableSchema(
            "t", partition_key=("hour",), clustering_key=("ts", "seq")))
        rows = []
        for ts, (kind, amount) in enumerate(cells):
            if ts == flush_at:
                cluster.flush_all()
            row = {"hour": 0, "ts": ts, "seq": 0}
            if kind is not None:
                row["kind"] = kind
            if amount is not None:
                row["amount"] = amount
            cluster.insert("t", row)
            rows.append(row)
        got = cluster.select_partition(
            "t", (0,), columns=columns, predicates=predicates,
            reverse=reverse, limit=limit)
        want = eval_select(rows, predicates, columns=columns,
                           reverse=reverse, limit=limit)
        if columns is not None:  # the store omits absent cells
            got = [{c: row.get(c) for c in columns} for row in got]
        assert got == want
        if any(col == "hour" or value == frozenset()
               for col, _, value in predicates):
            return
        terms = ["hour = 0"] + [
            f"{col} IN ({', '.join(map(repr, sorted(value)))})"
            if op == "in" else f"{col} {op} {value}"
            for col, op, value in predicates]
        statement = (
            f"SELECT {', '.join(columns) if columns else '*'} FROM t"
            f" WHERE {' AND '.join(terms)}"
            + (" ORDER BY ts DESC" if reverse else "")
            + (f" LIMIT {limit}" if limit is not None else ""))
        assert Session(cluster).execute(statement) == want


@st.composite
def windows(draw):
    """(width, t0, t1, row timestamps): a window on a quarter-bucket grid
    — so t0/t1 land exactly on bucket edges a quarter of the time — at
    simulation (0) or wall-clock (1.7e9) magnitude, with rows anywhere
    in the two buckets either side of it.  Widths are dyadic or
    integral, so every grid point is an exact float."""
    width = draw(st.sampled_from([0.5, 1.0, 60.0, 3600.0]))
    base = draw(st.sampled_from([0.0, round(1.7e9 / width) * width]))
    quarter = width / 4
    a = draw(st.integers(8, 30))
    b = draw(st.integers(a + 1, 32))
    stamps = draw(st.lists(
        st.floats(0, 40, allow_nan=False).map(lambda q: base + q * quarter),
        max_size=40))
    return width, base + a * quarter, base + b * quarter, stamps


class TestWindowProperties:
    @given(windows())
    def test_buckets_cover_exactly_the_window(self, window):
        width, t0, t1, _ = window
        schema = TableSchema("w", partition_key=("bucket",),
                             time_bucket=("bucket", width))
        buckets = schema.buckets(t0, t1)
        assert buckets[0] == schema.bucket_of(t0)
        # No bucket whose span [b*W, (b+1)*W) is disjoint from [t0, t1):
        # the `(t1 - 1e-9) // W` idiom read one too many at 1.7e9.
        assert all(b * width < t1 and (b + 1) * width > t0 for b in buckets)
        assert not schema.buckets(t1, t0) and not schema.buckets(t0, t0)

    @settings(max_examples=40, deadline=None)
    @given(windows(), st.data())
    def test_select_window_matches_oracle(self, window, data):
        width, t0, t1, stamps = window
        schema = TableSchema(
            "w", partition_key=("bucket", "part"),
            clustering_key=("ts", "seq"), time_bucket=("bucket", width))
        cluster = Cluster(3, flush_threshold=7)  # memtable + SSTable reads
        cluster.create_table(schema)
        rows = [
            {"bucket": schema.bucket_of(ts), "ts": ts, "seq": seq, "v": seq,
             "part": data.draw(st.sampled_from(["a", "b"]))}
            for seq, ts in enumerate(stamps)
        ]
        cluster.write_batch("w", rows)
        rows.sort(key=lambda r: (r["bucket"], r["part"], r["ts"], r["seq"]))
        in_window = [("ts", ">=", t0), ("ts", "<", t1)]
        assert cluster.select_window("w", t0, t1) == eval_select(
            rows, in_window)
        for part in "ab":
            assert cluster.select_window("w", t0, t1, (part,)) == eval_select(
                rows, in_window + [("part", "=", part)])
