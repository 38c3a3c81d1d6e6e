"""The row model against its reference: a row carries one write
timestamp, reconciliation stays per cell.

``tests/oracle/row.py`` keeps the ``Cell``-per-column model and its
``merge_rows`` verbatim.  The properties here hold the store's
:func:`repro.cassdb.row.merge_rows`, the column-block round trip and a
multi-run :class:`TableStore` to that reference cell for cell — value
*and* timestamp — and one allocation test holds the write path to what
the model is for: a stored row is one collector-tracked object.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassdb import Cluster, TableSchema
from repro.cassdb.memtable import Batch
from repro.cassdb.row import Row, columns_of, merge_rows
from repro.cassdb.storage import TableStore
from repro.cassdb.vector import BlockView, ColumnBlock

from tests.oracle import row as oracle

COLUMNS = ["a", "b", "c", "d"]
# Few distinct stamps: ties between copies (the repr tie-break) and
# tombstones older than, equal to and newer than cells are the rule.
stamps = st.integers(0, 5)
values = st.one_of(st.none(), st.integers(-3, 3),
                   st.sampled_from(["", "x", "y", "10", "9"]))


@st.composite
def base_rows(draw, clustering=(1,)):
    """What one write leaves: an upsert stamped throughout with one
    timestamp, or a row tombstone."""
    if draw(st.integers(0, 3)) == 0:
        return oracle.Row(clustering, {}, draw(stamps))
    ts = draw(stamps)
    cols = draw(st.lists(st.sampled_from(COLUMNS), unique=True, max_size=4))
    return oracle.Row(clustering,
                      {c: oracle.Cell(draw(values), ts) for c in cols})


@st.composite
def merged_rows(draw, clustering=(1,)):
    """A row as a replica may hold it: one write, or several merged."""
    parts = draw(st.lists(base_rows(clustering), min_size=1, max_size=3))
    row = parts[0]
    for part in parts[1:]:
        row = oracle.merge_rows(row, part)
    return row


def to_store(row: oracle.Row) -> Row:
    return Row.from_stamps(
        row.clustering,
        {name: c.value for name, c in row.cells.items()},
        [c.write_ts for c in row.cells.values()],
        row.tombstone_ts)


def to_oracle(row: Row) -> oracle.Row:
    ts = row.timestamps()
    return oracle.Row(
        row.clustering,
        {name: oracle.Cell(val, ts[name]) for name, val in row.values.items()},
        row.tombstone_ts)


def spelled(row: Row) -> tuple:
    """Every field, representation included."""
    return (row.clustering, row.values, row.write_ts, row.cell_ts,
            row.tombstone_ts)


class TestMergeMatchesReference:
    @given(a=merged_rows(), b=merged_rows())
    def test_cell_for_cell(self, a, b):
        got = merge_rows(to_store(a), to_store(b))
        assert to_oracle(got) == oracle.merge_rows(a, b)
        assert got.is_live == oracle.merge_rows(a, b).is_live
        # Only cells that differ from the row's own stamp are named.
        assert got.cell_ts is None or (
            got.cell_ts and got.write_ts not in got.cell_ts.values()
            and set(got.cell_ts) < set(got.values))

    @given(a=merged_rows(), b=merged_rows())
    def test_commutative(self, a, b):
        a, b = to_store(a), to_store(b)
        assert merge_rows(a, b) == merge_rows(b, a)

    @given(a=merged_rows(), b=merged_rows(), c=merged_rows())
    def test_associative(self, a, b, c):
        a, b, c = to_store(a), to_store(b), to_store(c)
        assert (merge_rows(merge_rows(a, b), c)
                == merge_rows(a, merge_rows(b, c)))

    @given(a=merged_rows())
    def test_idempotent(self, a):
        a = to_store(a)
        assert merge_rows(a, a) == a
        assert spelled(merge_rows(a, a)) == spelled(a)

    @given(a=merged_rows(), b=merged_rows())
    def test_inputs_are_not_mutated(self, a, b):
        a, b = to_store(a), to_store(b)
        before = spelled(a), dict(a.values), spelled(b), dict(b.values)
        merge_rows(a, b)
        assert (spelled(a), a.values, spelled(b), b.values) == before

    def test_equality_is_per_cell_not_per_spelling(self):
        canonical = Row((1,), {"x": 1, "y": 2}, 9, cell_ts={"y": 4})
        other = Row((1,), {"y": 2, "x": 1}, 4, cell_ts={"x": 9})
        assert canonical == other
        assert canonical != Row((1,), {"x": 1, "y": 2}, 9)
        assert Row((1,), {}, 0, 5) == Row((1,), {}, 7, 5)
        assert to_oracle(canonical).cells == {"x": oracle.Cell(1, 9),
                                              "y": oracle.Cell(2, 4)}


class TestBlockRoundTrip:
    @given(rows=st.lists(st.integers(0, 30), unique=True, max_size=12)
           .flatmap(lambda keys: st.tuples(
               *[merged_rows((k,)) for k in sorted(keys)])))
    def test_rows_come_back_exactly(self, rows):
        rows = [to_store(r) for r in rows]
        block = ColumnBlock.from_rows(rows)
        back = BlockView(block).to_rows()
        assert back == rows
        assert [spelled(r) for r in back] == [spelled(r) for r in rows]
        assert [block.row_at(i).is_live for i in range(block.n)] == [
            block.live is None or bool(block.live[i])
            for i in range(block.n)]


_store_ops = st.lists(st.one_of(
    st.tuples(st.just("upsert"), st.sampled_from(["p", "q"]),
              st.integers(0, 4), st.booleans(),
              st.lists(st.tuples(st.sampled_from(COLUMNS), values),
                       min_size=1, max_size=3)),
    st.tuples(st.just("delete"), st.sampled_from(["p", "q"]),
              st.integers(0, 4)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
), max_size=40)


class TestStoreMatchesFoldedReference:
    """A multi-run LSM read equals folding the reference ``merge_rows``
    over everything written, whatever was flushed or compacted when.

    Write stamps never run backwards; neighbouring upserts may tie (the
    ``repr`` tie-break then decides across runs), but a tombstone's
    stamp is its own and every upsert carries a cell.  Compaction
    collects tombstones from the runs it merges, so a write stamped at
    or before one — or a row with no stamp at all — would come back in
    the store while the reference still shadows it: Cassandra's
    gc_grace problem, not this model's."""

    @settings(deadline=None)
    @given(ops=_store_ops)
    def test_read_equals_reference(self, ops):
        store = TableStore(flush_threshold=10_000, max_sstables=64)
        reference: dict[tuple[str, int], oracle.Row] = {}
        clock = 1

        def remember(pk, row):
            seen = reference.get((pk, row.clustering[0]))
            reference[pk, row.clustering[0]] = (
                row if seen is None else oracle.merge_rows(seen, row))

        for op in ops:
            if op[0] == "upsert":
                _, pk, ck, tick, cells = op
                clock += tick
                store.write_rows(Batch.of_rows([(pk, Row.from_values((ck,), dict(cells),
                                                       clock))]))
                remember(pk, oracle.Row(
                    (ck,), {c: oracle.Cell(v, clock)
                            for c, v in dict(cells).items()}))
            elif op[0] == "delete":
                _, pk, ck = op
                clock += 1
                store.write_rows(Batch.of_rows(
                    [(pk, Row((ck,), {}, tombstone_ts=clock))]))
                remember(pk, oracle.Row((ck,), {}, clock))
                clock += 1
            elif op[0] == "flush":
                store.flush()
            else:
                store.compact()
        for pk in ("p", "q"):
            want = [row for (p, _ck), row in sorted(reference.items())
                    if p == pk and row.is_live]
            got = store.read_partition_view(pk).to_rows()
            assert [(r.clustering, to_oracle(r).cells) for r in got] == [
                (r.clustering, r.cells) for r in want]


class TestWrittenRowIsOneObject:
    def test_write_batch_builds_no_cells_and_untracked_values(self):
        """A batch lands as column lists: a thousand rows on two
        replicas leave the collector a few objects per partition copy
        and per store, none per row: no ``Row``, and every cell in a log
        list beside its stamp."""
        schema = TableSchema("event_by_time", partition_key=("hour", "type"),
                             clustering_key=("ts", "seq"))
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(schema)
        n = 1_000
        rows = [{"hour": i % 3, "type": ("MCE", "OOM")[i % 2],
                 "ts": 1000.0 + i, "seq": i, "source": f"c0-0c0s{i % 8}n0",
                 "amount": 1 + i % 5, "msg": f"line {i}", "extra": None}
                for i in range(n)]
        columns = columns_of(rows)
        cluster.write_batch("event_by_time", columns_of(rows[:1]))
        gc.collect()
        objects = gc.get_objects()
        tracked_before = len(objects)
        rows_before = sum(isinstance(o, Row) for o in objects)
        del objects
        cluster.write_batch("event_by_time", columns)
        gc.collect()
        objects = gc.get_objects()
        try:
            assert sum(isinstance(o, Row) for o in objects) == rows_before
            memtables = [node.tables["event_by_time"].memtable
                         for node in cluster.nodes.values()
                         if "event_by_time" in node.tables]
            n_parts = sum(len(m.partitions) for m in memtables)
            assert n_parts == 2 * 6
            # Per partition copy its positions; per store its log lists.
            assert (len(objects) - tracked_before
                    < 2 * n_parts + 20 * len(memtables))
            for m in memtables:
                assert set(m.columns) == {"source", "amount", "msg", "extra"}
                for col in m.columns.values():
                    assert (len(col.values) == len(col.write_ts)
                            == len(m.clustering))
                    assert col.present is None
            # (the warm-up row is rows[0] again: one key, merged)
            assert sum(len(m.resolved(pk)) for m in memtables
                       for pk in m.partitions) == 2 * n
        finally:
            del objects
            cluster.close()
