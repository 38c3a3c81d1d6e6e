"""Property-based tests (hypothesis) for cassdb invariants."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassdb import Cluster, Consistency, Session, TableSchema
from repro.cassdb.hashring import HashRing
from repro.cassdb.memtable import Batch, Memtable
from repro.cassdb.row import ClusteringBound, Row, columns_of, merge_rows
from repro.cassdb.sstable import SSTable, merge_sstables
from repro.cassdb.storage import TableStore
from repro.cassdb.vector import (
    BlockView,
    ColumnBlock,
    column_lists,
    fold_view,
    materialize_dicts,
    merge_views,
    select_rows,
)
from repro.cql.errors import CQLSyntaxError

from tests.oracle import eval_select
from tests.oracle import row as row_oracle

from .test_memtable_sstable import flushed, scan_partition
from .test_row_model import merged_rows, to_oracle, to_store

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
# keyed by clustering tuple, regardless of flush/compaction timing.  A
# read draws fresh bounds, or (``None``) repeats the previous read's,
# so a memtable face kept since that read is what answers it.
bounds = st.one_of(st.none(), st.builds(
    ClusteringBound, st.tuples(st.integers(-1, 16)), st.booleans()))
_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 15), st.integers(0, 99)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
    st.tuples(st.just("compact"), st.just(0), st.just(0)),
    st.tuples(st.just("read"),
              st.one_of(st.none(), st.tuples(bounds, bounds)), st.just(0)),
)
ops = st.lists(_op, max_size=60)
# The same histories over three partitions: each op names the one it
# writes or reads, so runs hold some of them and not others.
_PARTITIONS = ("pk", "pk1", "pk2")
partition_ops = st.lists(st.tuples(st.sampled_from(_PARTITIONS), _op),
                         max_size=60)

_MODEL_SCHEMA = TableSchema("t", partition_key=("p",), clustering_key=("k",))


def _read_matches_model(store, model, lower, upper, pk="pk"):
    """The store's read of *bounds* is the model's: the rows, and the
    ``v`` column a kernel transposes out of the same read (a stale
    column would not show in the rows).  The read looks *pk* up in
    every run's offsets: a run that holds it is probed, the rest are
    skipped, each counted once."""
    want = {key: val for key, val in sorted(model.items())
            if (lower is None or lower.admits_lower(key))
            and (upper is None or upper.admits_upper(key))}
    stats = store.stats
    holding = sum(pk in sst.offsets for sst in store.sstables)
    probes, skips = stats.sstable_probes, stats.bloom_skips
    got = {r.clustering: r.value("v")
           for r in store.read_partition_view(pk, lower, upper).to_rows()}
    assert stats.sstable_probes - probes == holding
    assert stats.bloom_skips - skips == len(store.sstables) - holding
    assert got == want
    view = store.read_partition_view(pk, lower, upper)
    assert column_lists(view, _MODEL_SCHEMA, {}, ["k", "v"]) == [
        [key[0] for key in want], list(want.values())]


# Column-store histories: batches of writes that may repeat a key inside
# one batch and across batches, set different cells of one key and share
# stamps (1-6, so ties are common); hint replays (an earlier write
# again) and repair pushes (a key's merged row, cell stamps included);
# flushes and compactions; reads at either bound kind, in reverse and
# with a limit.
_cells = st.dictionaries(st.sampled_from("abc"), st.integers(0, 3),
                         max_size=3)
_stamped_write = st.tuples(st.integers(0, 7), _cells, st.integers(1, 6))
_column_op = st.one_of(
    st.tuples(st.just("batch"), st.lists(_stamped_write, min_size=1,
                                         max_size=6)),
    st.tuples(st.just("hint"), st.integers(0, 50)),
    st.tuples(st.just("repair"), st.integers(0, 7)),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("compact"), st.none()),
    st.tuples(st.just("read"), st.tuples(
        bounds, bounds, st.booleans(),
        st.one_of(st.none(), st.integers(1, 5)))),
)


class TestStorageModel:
    @settings(max_examples=60, deadline=None)
    @given(ops=partition_ops)
    def test_lsm_equivalent_to_dict(self, ops):
        """Reads between the writes, flushes and compactions of a
        history over three partitions, and at its end, answer what the
        model holds, and count each run as probed or skipped."""
        store = TableStore(flush_threshold=5, max_sstables=3)
        models: dict[str, dict[tuple, int]] = {pk: {} for pk in _PARTITIONS}
        read_bounds = (None, None)
        ts = 0
        for pk, (op, key, val) in ops:
            ts += 1
            model = models[pk]
            if op == "write":
                store.write_rows(Batch.of_rows([(pk, Row.from_values((key,), {"v": val},
                                                       write_ts=ts))]))
                model[(key,)] = val
            elif op == "read":
                if key is not None:
                    read_bounds = key
                _read_matches_model(store, model, *read_bounds, pk=pk)
            elif op == "flush":
                store.flush()
            else:
                store.flush()
                store.compact()
        for pk, model in models.items():
            _read_matches_model(store, model, None, None, pk=pk)

    @settings(max_examples=100, deadline=None)
    @given(history=st.lists(_column_op, max_size=40))
    def test_columns_answer_like_merge_rows(self, history):
        """The store's columnar memtable, its flushes, its compactions —
        asked for, and on its own past two runs — and the merges over
        them answer every read as :func:`merge_rows` folding each key's
        writes, in any order, answers it."""
        store = TableStore(flush_threshold=12, max_sstables=2)
        written: list[Row] = []
        model: dict[tuple, Row] = {}

        def write(rows):
            store.write_rows(Batch.of_rows(("pk", row) for row in rows))
            for row in rows:
                kept = model.get(row.clustering)
                model[row.clustering] = (row if kept is None
                                         else merge_rows(kept, row))

        for op, arg in history:
            if op == "batch":
                rows = [Row((key,), dict(cells), stamp)
                        for key, cells, stamp in arg]
                written += rows
                write(rows)
            elif op == "hint":
                if written:
                    write([written[arg % len(written)]])
            elif op == "repair":
                if (arg,) in model:
                    write([model[(arg,)]])
            elif op == "flush":
                store.flush()
            elif op == "compact":
                store.flush()
                store.compact()
            else:
                lower, upper, reverse, limit = arg
                want = [row for key, row in sorted(model.items())
                        if (lower is None or lower.admits_lower(key))
                        and (upper is None or upper.admits_upper(key))]
                if reverse:
                    want.reverse()
                got = store.read_partition_view("pk", lower, upper,
                                                reverse, limit).to_rows()
                assert got == want[:limit]
        got = store.read_partition_view("pk").to_rows()
        assert got == [row for _key, row in sorted(model.items())]

    @settings(max_examples=60, deadline=None)
    @given(ops=ops, data=st.data())
    def test_memtable_and_run_answer_the_same_slice(self, ops, data):
        """One read face.  At every read, before every flush and
        compaction of a history, and at its end, the active memtable's slice for random
        bounds is the slice of the run a flush would build from it —
        the same rows, the same pruned count — and the store's read of
        those bounds is the model's."""
        store = TableStore(flush_threshold=1000, max_sstables=3)
        model: dict[tuple, int] = {}

        def check():
            lower, upper = data.draw(bounds), data.draw(bounds)
            memtable = store.memtable
            run = SSTable.from_memtable(memtable)
            mine = memtable.slice_partition_view("pk", lower, upper)
            theirs = run.slice_partition_view("pk", lower, upper)
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine[1] == theirs[1]
                assert mine[0].to_rows() == theirs[0].to_rows()
            _read_matches_model(store, model, lower, upper)

        ts = 0
        for op, key, val in ops:
            ts += 1
            if op == "write":
                store.write_rows(Batch.of_rows([("pk", Row.from_values((key,), {"v": val},
                                                         write_ts=ts))]))
                model[(key,)] = val
            elif op == "read":
                check()
            else:
                check()
                store.flush()
                if op == "compact":
                    store.compact()
        check()


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
        if limit == 0:  # a CQL LIMIT is strictly positive
            with pytest.raises(CQLSyntaxError):
                Session(cluster).execute(statement)
        else:
            assert Session(cluster).execute(statement) == want


    @settings(max_examples=40, deadline=None)
    @given(
        amounts=st.lists(st.one_of(st.none(), st.integers(0, 5)),
                         min_size=4, max_size=24),
        flush_at=st.integers(1, 3),
        predicates=st.lists(
            st.tuples(st.just("amount"), st.sampled_from(["<", ">="]),
                      st.integers(0, 5)), max_size=1),
        columns=st.one_of(st.none(), st.just(["ts", "amount"])),
        limit=st.integers(0, 6),
        store=st.sampled_from(["memtable", "half-flushed", "quorum"]),
    )
    def test_reverse_limit_over_merged_reads(self, amounts, flush_at,
                                             predicates, columns, limit,
                                             store):
        """``reverse=True`` + ``limit`` + predicates where the read is a
        merge: memtable only, SSTable + memtable, and a QUORUM reconcile
        of three replicas."""
        cluster = Cluster(3, replication_factor=3)
        cluster.create_table(TableSchema(
            "t", partition_key=("hour",), clustering_key=("ts", "seq")))
        rows = []
        for ts, amount in enumerate(amounts):
            if ts == flush_at and store != "memtable":
                cluster.flush_all()
            row = {"hour": 0, "ts": ts, "seq": 0}
            if amount is not None:
                row["amount"] = amount
            cluster.insert("t", row)
            rows.append(row)
        consistency = (Consistency.QUORUM if store == "quorum"
                       else Consistency.ONE)
        got = cluster.select_partition(
            "t", (0,), columns=columns, predicates=predicates,
            reverse=True, limit=limit, consistency=consistency)
        if columns is not None:  # the store omits absent cells
            got = [{c: row.get(c) for c in columns} for row in got]
        assert got == eval_select(rows, predicates, columns=columns,
                                  reverse=True, limit=limit)

    @settings(max_examples=40, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.one_of(st.none(), st.integers(0, 2))),  # missed by
            min_size=1, max_size=20),
        limit=st.integers(1, 4),
        level=st.sampled_from([Consistency.QUORUM, Consistency.ALL]),
    )
    def test_reverse_limit_over_diverged_replicas(self, writes, limit, level):
        """``reverse=True`` + ``limit`` where the replicas disagree: each
        write at QUORUM may be missed by one of the three (it was down,
        its hint was lost).  A limit cut replica by replica would answer
        a stale value another replica holds a newer write for, or too
        few rows; the reconcile takes whole copies and the limit cuts
        what it leaves."""
        cluster = Cluster(3, replication_factor=3)
        cluster.create_table(TableSchema(
            "t", partition_key=("hour",), clustering_key=("ts", "seq")))
        nodes = sorted(cluster.nodes)
        reference: dict[int, dict] = {}
        for ts, amount, misses in writes:
            if misses is not None:
                cluster.kill_node(nodes[misses])
            row = {"hour": 0, "ts": ts, "seq": 0, "amount": amount}
            cluster.insert("t", row, Consistency.QUORUM)
            reference[ts] = row
            if misses is not None:
                for node in cluster.nodes.values():
                    node.hints.clear()
                cluster.revive_node(nodes[misses])
        got = cluster.select_partition(
            "t", (0,), reverse=True, limit=limit, consistency=level)
        assert got == eval_select([reference[ts] for ts in sorted(reference)],
                                  reverse=True, limit=limit)
        cluster.close()


_ABSENT = object()  # a cell the row does not have (None is a stored null)


@st.composite
def partition_rows(draw):
    """Rows ``ts = 0…n-1`` of one partition as (Row, result dict) pairs:
    ``kind``/``amount`` cells absent, null or valued; one write
    timestamp a row or an older one on ``kind``."""
    out = []
    for ts in range(draw(st.integers(0, 20))):
        values = {}
        kind = draw(st.sampled_from([_ABSENT, None, "a", "b", "c"]))
        if kind is not _ABSENT:
            values["kind"] = kind
        amount = draw(st.one_of(st.just(_ABSENT), st.none(),
                                st.integers(0, 5)))
        if amount is not _ABSENT:
            values["amount"] = amount
        write_ts = draw(st.integers(2, 9))
        mixed = "kind" in values and draw(st.booleans())
        row = Row((ts, 0), values, write_ts,
                  cell_ts={"kind": write_ts - 1} if mixed else None)
        out.append((row, {"hour": 7, "ts": ts, "seq": 0, **values}))
    return out


class TestOneBlockShape:
    """What a kernel answers does not depend on which block backs the
    view: an eager block, a row-backed block over the same rows and the
    reference SELECT agree."""

    SCHEMA = TableSchema("t", partition_key=("hour",),
                         clustering_key=("ts", "seq"))
    PK = {"hour": 7}
    COLUMNS = ["hour", "ts", "kind", "amount", "nowhere"]
    AGGS = [("count", None), ("count", "amount"), ("sum", "amount"),
            ("min", "amount"), ("max", "amount"), ("avg", "amount")]

    @settings(max_examples=120, deadline=None)
    @given(
        pairs=partition_rows(),
        selection=st.sampled_from(["all", "slice", "reversed", "holes"]),
        predicates=st.lists(st.one_of(
            st.tuples(st.just("kind"), st.just("in"),
                      st.frozensets(st.sampled_from(["a", "b", "c"]))),
            st.tuples(st.just("kind"), st.just("="),
                      st.sampled_from(["a", "z"])),
            st.tuples(st.just("amount"),
                      st.sampled_from(["=", "<", ">="]), st.integers(0, 5)),
            st.tuples(st.just("ts"), st.sampled_from([">", "<="]),
                      st.integers(0, 20)),
            st.tuples(st.just("hour"), st.just("="), st.integers(6, 7)),
            st.tuples(st.just("nowhere"), st.just("="), st.just(1)),
        ), max_size=2),
        columns=st.lists(st.sampled_from(COLUMNS), min_size=1, unique=True),
        group_by=st.sampled_from([
            (), ("hour",), ("kind",), ("amount",), ("kind", "ts"),
            ("hour", "kind", "amount")]),
        keep_empty=st.booleans(),
    )
    def test_eager_row_backed_and_oracle_agree(
            self, pairs, selection, predicates, columns, group_by,
            keep_empty):
        schema, pk = self.SCHEMA, self.PK
        rows = [row for row, _ in pairs]
        n = len(rows)
        order = {"all": None, "slice": range(n // 3, n - n // 4),
                 "reversed": range(n)[::-1],
                 "holes": [i for i in range(n) if i % 3 != 1]}[selection]
        picked = list(range(n) if order is None else order)
        dicts = [pairs[i][1] for i in picked]
        sources = [(schema.column_source(c), op, v)
                   for c, op, v in predicates]
        kept = eval_select(dicts, predicates)
        projected = eval_select(dicts, predicates, columns=columns)
        # One group per distinct key, each group's aggregates from the
        # reference (its own GROUP BY sorts keys, and None sorts with
        # nothing).
        groups: dict = {}
        for d in kept:
            groups.setdefault(
                tuple(d.get(c) for c in group_by), []).append(d)
        if keep_empty and not kept and all(c == "hour" for c in group_by):
            groups[tuple(pk[c] for c in group_by)] = []
        want_groups = {
            key: list(eval_select(g, aggregates=self.AGGS)[0].values())
            for key, g in groups.items()}
        eager = ColumnBlock.from_rows(rows)
        if n >= 8 and "kind" in eager.columns:
            # At least 8 rows of at most 256 distinct strings: the coded
            # kernels answer for the eager block.
            assert eager.columns["kind"].codes is not None
        for block in (eager, ColumnBlock.over_rows(rows)):
            view = BlockView(block, order)
            assert view.to_rows() == [rows[i] for i in picked]
            selected = select_rows(view, sources, pk)
            assert materialize_dicts(selected, schema, pk, None) == kept
            # Exactly the cells each row has: a stored null is there,
            # an absent cell is not.
            assert materialize_dicts(selected, schema, pk, columns) == [
                {c: d[c] for c in columns if c in d} for d in kept]
            assert column_lists(view, schema, pk, columns, predicates) == [
                [d[c] for d in projected] for c in columns]
            partials = fold_view(
                selected, [schema.column_source(c) for c in group_by],
                [c and schema.column_source(c) for _, c in self.AGGS],
                [fn for fn, _ in self.AGGS], pk, keep_empty=keep_empty)
            assert {
                key: acc[:5] + [acc[5][0] / acc[5][1] if acc[5][1] else None]
                for key, acc in partials.items()} == want_groups


@st.composite
def sorted_runs(draw):
    """Up to four runs of one partition: overlapping keys, rows that
    merged writes of different stamps (``test_row_model.merged_rows``)."""
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        keys = draw(st.lists(st.integers(0, 4), unique=True, max_size=5))
        runs.append([draw(merged_rows((ck,))) for ck in sorted(keys)])
    return runs


class TestOneMerge:
    """Compaction, a node's read and a replica exchange are one
    reconcile: ``merge_sstables`` and ``merge_views`` over the same runs
    agree with ``tests/oracle/row.py`` folded key by key."""

    @staticmethod
    def _oracle_fold(runs):
        """The runs folded key by key."""
        folded: dict[tuple, row_oracle.Row] = {}
        for run in runs:
            for row in run:
                seen = folded.get(row.clustering)
                folded[row.clustering] = (
                    row if seen is None else row_oracle.merge_rows(seen, row))
        return [folded[key] for key in sorted(folded)]

    @settings(max_examples=150, deadline=None)
    @given(runs=sorted_runs())
    def test_compaction_and_merge_match_the_oracle_fold(self, runs):
        want = self._oracle_fold(runs)
        tables = [flushed({"pk": list(map(to_store, run))}) for run in runs]
        for ordered in (tables, tables[::-1]):
            compacted = merge_sstables(ordered)
            span = compacted.offsets.get("pk")
            assert [to_oracle(row) for row in (
                BlockView(compacted.block, range(*span)).to_rows()
                if span else [])] == want
            views = [BlockView(table.block, range(*span)) for table in ordered
                     if (span := table.offsets.get("pk")) is not None]
            assert [to_oracle(row) for row in merge_views(views)] == want
            assert [to_oracle(row) for row in
                    merge_views(views, reverse=True)] == want[::-1]

    @settings(max_examples=100, deadline=None)
    @given(runs=sorted_runs(), data=st.data())
    def test_views_of_every_tier_in_every_order(self, runs, data):
        """The merge takes views and nothing else: a memtable's slice, a
        run's slice and a copy a replica exchanged reconcile alike,
        whichever order they arrive in."""
        want = self._oracle_fold(runs)
        sources = []
        for run in runs:
            stored = list(map(to_store, run))
            shape = data.draw(st.sampled_from(
                ["memtable", "run", "exchanged"])) if stored else "exchanged"
            if shape == "memtable":
                memtable = Memtable()
                memtable.append(Batch.of_rows(
                    ("pk", row) for row in stored[::-1]))
                view, _ = memtable.slice_partition_view("pk")
            elif shape == "run":
                view, _ = flushed({"pk": stored}).slice_partition_view("pk")
            else:
                view = BlockView(ColumnBlock.over_rows(stored))
            sources.append(view)
        limit = data.draw(st.integers(1, 6))
        for ordered in itertools.permutations(sources):
            views = list(ordered)
            assert [to_oracle(row) for row in merge_views(views)] == want
            assert [to_oracle(row) for row in merge_views(
                views, reverse=True, limit=limit)] == want[::-1][:limit]


@st.composite
def windows(draw):
    """(width, t0, t1, row timestamps): a window on a quarter-bucket grid
    — so t0/t1 land exactly on bucket edges a quarter of the time — at
    simulation (0) or wall-clock (1.7e9) magnitude or straddling zero
    from five buckets below it, with rows anywhere in the two buckets
    either side of it.  Widths are dyadic or integral, so every grid
    point is an exact float."""
    width = draw(st.sampled_from([0.5, 1.0, 60.0, 3600.0]))
    base = draw(st.sampled_from(
        [0.0, round(1.7e9 / width) * width, -5 * width]))
    quarter = width / 4
    a = draw(st.integers(8, 30))
    b = draw(st.integers(a + 1, 32))
    stamps = draw(st.lists(
        st.floats(0, 40, allow_nan=False).map(lambda q: base + q * quarter),
        max_size=40))
    return width, base + a * quarter, base + b * quarter, stamps


# The residuals a windowed read hands the store: none, a regular
# column, a clustering column, the partition key, a membership test.
window_residuals = st.one_of(
    st.none(),
    st.integers(0, 40).map(lambda k: [("v", ">=", k)]),
    st.integers(0, 40).map(lambda k: [("seq", "<", k)]),
    st.sampled_from("ab").map(lambda part: [("part", "=", part)]),
    st.frozensets(st.integers(0, 40), max_size=8).map(
        lambda vs: [("v", "in", vs)]),
)


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

    @settings(max_examples=60, deadline=None)
    @given(windows(), window_residuals, st.booleans(), st.data())
    def test_select_window_matches_oracle(self, window, residual, flush,
                                          data):
        """A window read as rows and as a fold over its partitions, with
        and without residuals, every partition of the buckets or one
        *rest*, over a flushed and a half-flushed store."""
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
        cluster.write_batch("w", columns_of(rows))
        if flush:
            cluster.flush_all()
        rows.sort(key=lambda r: (r["bucket"], r["part"], r["ts"], r["seq"]))
        in_window = [("ts", ">=", t0), ("ts", "<", t1)] + (residual or [])
        names = list(rows[0]) if rows else ["ts"]

        def fold(pk_values, view):
            return column_lists(view, schema, pk_values, names, residual)

        for rest, scoped in [(None, in_window)] + [
                ((part,), in_window + [("part", "=", part)])
                for part in "ab"]:
            want = eval_select(rows, scoped)
            assert cluster.select_window(
                "w", t0, t1, rest, predicates=residual) == want
            partitions, lower, upper = cluster.window_partitions(
                "w", t0, t1, rest)
            chunks = cluster.aggregate_partitions(
                "w", partitions, lower=lower, upper=upper, fold=fold)
            assert [dict(zip(names, cells)) for chunk in chunks
                    for cells in zip(*chunk)] == want
