"""Unit tests for the columnar block layer and vectorized kernels."""

import pytest

from repro.cassdb import Cluster, Session, TableSchema
from repro.cassdb.memtable import Batch, Memtable
from repro.cassdb.row import Row, columns_of
from repro.cassdb.sstable import SSTable
from repro.cassdb.vector import (
    BlockView,
    ColumnBlock,
    column_lists,
    fold_view,
    materialize_dicts,
    merge_views,
    select_rows,
)
from tests.oracle import eval_select


def _row(ts, seq=0, write_ts=1, **cols):
    return Row.from_values((ts, seq), cols, write_ts=write_ts)


def _dead(ts, seq=0, tombstone_ts=9):
    return Row((ts, seq), {}, tombstone_ts=tombstone_ts)


TYPES = ["warn", "error", "info", "warn", "error", "warn", "info", "warn",
         "error", "warn"]


def _block():
    rows = [_row(float(i), write_ts=i + 1, type=TYPES[i], amount=i * 10)
            for i in range(10)]
    return ColumnBlock.from_rows(rows), rows


class TestColumnBlock:
    def test_round_trip_exact(self):
        block, rows = _block()
        assert BlockView(block).to_rows() == rows
        for i, row in enumerate(rows):
            assert block.row_at(i) == row

    def test_round_trip_preserves_timestamps(self):
        block, _ = _block()
        row = block.row_at(3)
        assert row.timestamps()["type"] == 4

    def test_round_trip_tombstones(self):
        rows = [_row(1.0), _dead(2.0), _row(3.0)]
        block = ColumnBlock.from_rows(rows)
        assert block.n_dead == 1
        assert BlockView(block).to_rows() == rows
        assert not block.row_at(1).is_live
        assert block.row_at(1).tombstone_ts == 9

    def test_ragged_columns(self):
        # Schema-flexible rows: columns missing from some rows stay
        # absent (not None-valued) after the round trip.
        rows = [_row(1.0, a=1), _row(2.0, b=2), _row(3.0, a=3, b=4)]
        block = ColumnBlock.from_rows(rows)
        assert BlockView(block).to_rows() == rows
        assert "b" not in block.row_at(0).values

    def test_auto_dict_encoding(self):
        block, _ = _block()
        col = block.columns["type"]
        assert col.codes is not None
        assert sorted(col.dictionary) == ["error", "info", "warn"]
        assert block.columns["amount"].codes is None  # ints stay plain

    def test_small_blocks_not_auto_encoded(self):
        rows = [_row(float(i), type="x") for i in range(3)]
        block = ColumnBlock.from_rows(rows)
        assert block.columns["type"].codes is None

    def test_a_run_of_small_partitions_is_encoded(self):
        # Three 3-row partitions are one 9-row block: its one dictionary
        # spans them, and each partition reads back through it.
        mt = Memtable()
        for pk in ("a", "b", "c"):
            for i in range(3):
                mt.append(Batch.of_rows([(pk, _row(float(i), type=pk + "x"))]))
        sst = SSTable.from_memtable(mt)
        col = sst.block.columns["type"]
        assert col.codes is not None
        assert sorted(col.dictionary) == ["ax", "bx", "cx"]
        for pk in ("a", "b", "c"):
            view, pruned = sst.slice_partition_view(pk)
            assert pruned == 0
            assert [r.values["type"] for r in view.to_rows()] == [pk + "x"] * 3

    def test_high_cardinality_not_encoded(self):
        rows = [_row(float(i), msg=f"unique-{i}") for i in range(300)]
        block = ColumnBlock.from_rows(rows)
        assert block.columns["msg"].codes is None

    def test_absent_cell_codes_negative(self):
        rows = ([_row(float(i), type="a") for i in range(9)]
                + [_row(9.0, other=1)])
        block = ColumnBlock.from_rows(rows)
        col = block.columns["type"]
        assert col.codes is not None
        assert col.codes[9] == -1
        assert col.value_at(9) is None


class TestSelectRows:
    def test_dict_equality(self):
        block, rows = _block()
        view = select_rows(BlockView(block), [(("cell", "type"), "=", "warn")],
                           {})
        want = [i for i, r in enumerate(rows)
                if r.values["type"] == "warn"]
        assert list(view.order) == want

    def test_plain_range(self):
        block, _ = _block()
        view = select_rows(BlockView(block),
                           [(("cell", "amount"), ">=", 50)], {})
        assert list(view.order) == [5, 6, 7, 8, 9]

    def test_clustering_predicate(self):
        block, _ = _block()
        view = select_rows(BlockView(block), [(("ck", 0), "<", 3.0)], {})
        assert list(view.order) == [0, 1, 2]

    def test_pk_predicate_constant(self):
        block, _ = _block()
        pk = {"hour": 7}
        assert len(select_rows(BlockView(block), [(("pk", "hour"), "=", 7)],
                               pk)) == 10
        assert len(select_rows(BlockView(block), [(("pk", "hour"), "=", 8)],
                               pk)) == 0

    def test_conjunction_shrinks(self):
        block, _ = _block()
        view = select_rows(
            BlockView(block),
            [(("cell", "type"), "=", "warn"), (("cell", "amount"), ">", 30)],
            {},
        )
        assert list(view.order) == [5, 7, 9]

    def test_in_predicate_on_dict_column(self):
        block, rows = _block()
        view = select_rows(BlockView(block),
                           [(("cell", "type"), "in", ["error", "info"])], {})
        want = [i for i, r in enumerate(rows)
                if r.values["type"] != "warn"]
        assert list(view.order) == want

    def test_absent_column_matches_nothing(self):
        block, _ = _block()
        view = select_rows(BlockView(block), [(("cell", "nope"), "=", 1)], {})
        assert len(view) == 0

    def test_absent_cells_never_match(self):
        rows = ([_row(float(i), amount=i) for i in range(9)] + [_row(9.0)])
        block = ColumnBlock.from_rows(rows)
        view = select_rows(BlockView(block),
                           [(("cell", "amount"), ">=", 0)], {})
        assert 9 not in view.order


class TestMaterializeDicts:
    def _schema(self):
        from repro.cassdb.schema import TableSchema
        return TableSchema("ev", partition_key=("hour", "type2"),
                           clustering_key=("ts", "seq"))

    def test_full_rows(self):
        block, rows = _block()
        out = materialize_dicts(BlockView(block), self._schema(),
                                {"hour": 7, "type2": "x"}, None)
        assert out[3] == {"hour": 7, "type2": "x", "ts": 3.0, "seq": 0,
                          "type": "warn", "amount": 30}

    def test_projection_mixed_sources(self):
        block, _ = _block()
        out = materialize_dicts(BlockView(block, [2, 5]), self._schema(),
                                {"hour": 7, "type2": "x"},
                                ["hour", "ts", "type"])
        assert out == [{"hour": 7, "ts": 2.0, "type": "info"},
                       {"hour": 7, "ts": 5.0, "type": "warn"}]

    def test_projection_omits_absent_cells(self):
        rows = [_row(1.0, a=1), _row(2.0)]
        block = ColumnBlock.from_rows(rows)
        out = materialize_dicts(BlockView(block), self._schema(), {}, ["a"])
        assert out == [{"a": 1}, {}]

    def test_empty_selection(self):
        block, _ = _block()
        assert materialize_dicts(BlockView(block, []), self._schema(),
                                 {}, None) == []


class TestColumnLists:
    """The column read: the block kernel, the row-form sweep and the
    reference SELECT agree, whatever the selection looks like."""

    PK = {"hour": 7}
    COLUMNS = ["hour", "ts", "seq", "type", "amount", "tag", "load",
               "nowhere"]

    def _schema(self):
        from repro.cassdb.schema import TableSchema
        return TableSchema("ev", partition_key=("hour",),
                           clustering_key=("ts", "seq"))

    def _block(self):
        # type: dictionary, every cell present; tag: dictionary with
        # absent cells; load: plain with absent cells; one dead row.
        rows = []
        for i in range(12):
            cols = {"type": TYPES[i % 10], "amount": i * 10}
            if i % 3:
                cols["tag"] = "odd" if i % 2 else "even"
            if i % 4 == 0:
                cols["load"] = i / 2
            rows.append(_row(float(i), write_ts=i + 1, **cols))
        rows[6] = _dead(6.0)
        block = ColumnBlock.from_rows(rows)
        assert block.columns["tag"].codes is not None
        assert block.columns["tag"].present is not None
        assert block.columns["load"].codes is None
        return block

    @pytest.mark.parametrize("predicates", [
        None,
        [("type", "in", frozenset({"warn", "info"}))],
        [("amount", ">", 20), ("ts", "<", 9.0)],
        [("tag", "=", "odd")],
        [("hour", "=", 7), ("load", ">=", 2.0)],
        [("hour", "=", 8)],
        [("nowhere", "=", 1)],
    ])
    @pytest.mark.parametrize("order", [
        None, range(2, 9), range(5, 5), [1, 4, 5, 8, 11]])
    def test_block_rows_and_oracle_agree(self, order, predicates):
        schema = self._schema()
        view = BlockView(self._block(), order).live()
        got = column_lists(view, schema, self.PK, self.COLUMNS, predicates)
        row_backed = BlockView(ColumnBlock.over_rows(view.to_rows()))
        assert got == column_lists(row_backed, schema, self.PK,
                                   self.COLUMNS, predicates)
        dicts = materialize_dicts(view, schema, self.PK, None)
        want = eval_select(dicts, predicates or (), columns=self.COLUMNS)
        assert got == [[row[c] for row in want] for c in self.COLUMNS]

    def test_contiguous_plain_column_is_a_slice_copy(self):
        block, _ = _block()
        (amounts,) = column_lists(BlockView(block, range(2, 5)),
                                  self._schema(), self.PK, ["amount"])
        assert amounts == [20, 30, 40]
        amounts.append(0)       # the caller owns what it was handed
        assert block.columns["amount"].values[2:6] == [20, 30, 40, 50]

    def test_an_empty_range_reversed_at_offset_zero_reads_nothing(self):
        # range(0, 0)[::-1] is range(-1, -1, -1): sliced as it stands it
        # would be seq[-1::-1], every row backwards.
        block, _ = _block()
        view = BlockView(block, range(0, 0)).ordered(reverse=True)
        assert column_lists(view, self._schema(), self.PK,
                            ["type", "amount"]) == [[], []]
        assert view.to_rows() == []
        assert BlockView(ColumnBlock.over_rows(BlockView(block).to_rows()),
                         range(0, 0)).ordered(reverse=True).to_rows() == []

    def test_counts_cells_not_rows(self):
        from repro.obs import get_registry
        reg = get_registry()
        cells = reg.counter("cassdb.vector.column_cells")
        built = reg.counter("cassdb.vector.rows_materialized")
        block, _ = _block()
        before = cells.value, built.value
        column_lists(BlockView(block), self._schema(), self.PK,
                     ["ts", "amount"], [("type", "=", "warn")])
        assert cells.value - before[0] == 2 * TYPES.count("warn")
        assert built.value == before[1]


class TestFoldView:
    def test_group_by_dict_column(self):
        block, rows = _block()
        groups = fold_view(BlockView(block), [("cell", "type")],
                           [None, ("cell", "amount")], ["count", "sum"], {})
        assert groups[("warn",)] == [5, 0 + 30 + 50 + 70 + 90]
        assert groups[("error",)] == [3, 10 + 40 + 80]
        assert groups[("info",)] == [2, 20 + 60]

    def test_count_star_only_uses_counter_path(self):
        block, _ = _block()
        groups = fold_view(BlockView(block), [("cell", "type")], [None],
                           ["count"], {})
        assert groups == {("warn",): [5], ("error",): [3], ("info",): [2]}

    def test_absent_and_none_share_a_group(self):
        rows = ([_row(float(i), type="a", v=1) for i in range(8)]
                + [_row(8.0, type=None, v=1), _row(9.0, v=1)])
        block = ColumnBlock.from_rows(rows)
        for aggs, fns in ([[None], ["count"]],
                          [[("cell", "v")], ["sum"]]):
            groups = fold_view(BlockView(block), [("cell", "type")],
                               aggs, fns, {})
            assert groups[(None,)] == [2]
            assert groups[("a",)] == [8]

    def test_plain_column_count_star_matches_the_bucket_fold(self):
        # An int column stays plain.  count(*) alone is a Counter over
        # the selected values; with a second input it buckets offsets.
        # Same groups, same order, absent and None together.
        rows = ([_row(float(i), v=i % 3) for i in range(8)]
                + [_row(8.0, v=None), _row(9.0, w=1)])
        block = ColumnBlock.from_rows(rows)
        assert block.columns["v"].codes is None
        for order in (None, range(2, 9), range(7, -1, -1), [0, 3, 8, 9]):
            view = BlockView(block, order)
            counted = fold_view(view, [("cell", "v")], [None, None],
                                ["count", "count"], {})
            bucketed = fold_view(view, [("cell", "v")], [None, ("ck", 0)],
                                 ["count", "count"], {})
            assert list(counted.items()) == list(bucketed.items())
        assert fold_view(BlockView(block), [("cell", "v")], [None],
                         ["count"], {}) == {
            (0,): [3], (1,): [3], (2,): [2], (None,): [2]}

    def test_constant_pk_key_keep_empty(self):
        block, _ = _block()
        empty = BlockView(block, [])
        pk = {"hour": 7}
        assert fold_view(empty, [("pk", "hour")], [None], ["count"],
                         pk) == {(7,): [0]}
        assert fold_view(empty, [("pk", "hour")], [None], ["count"],
                         pk, keep_empty=False) == {}

    def test_avg_partial_matches_row_path(self):
        block, rows = _block()
        groups = fold_view(BlockView(block), [], [("cell", "amount")],
                           ["avg"], {})
        vals = [r.values["amount"] for r in rows]
        assert groups[()] == [[sum(vals, 0.0), len(vals)]]

    def test_min_max_over_clustering(self):
        block, _ = _block()
        groups = fold_view(BlockView(block), [], [("ck", 0), ("ck", 0)],
                           ["min", "max"], {})
        assert groups[()] == [0.0, 9.0]

    def test_multi_column_group(self):
        block, _ = _block()
        groups = fold_view(BlockView(block),
                           [("pk", "hour"), ("cell", "type")], [None],
                           ["count"], {"hour": 7})
        assert groups[(7, "warn")] == [5]

    def test_fold_respects_selection(self):
        block, _ = _block()
        view = select_rows(BlockView(block),
                           [(("cell", "amount"), ">=", 50)], {})
        groups = fold_view(view, [("cell", "type")], [None], ["count"], {})
        assert groups == {("warn",): [3], ("error",): [1], ("info",): [1]}


class TestMergeViews:
    def _view(self, rows):
        block = ColumnBlock.from_rows(rows)
        return BlockView(block)

    def test_single_view_drops_dead(self):
        view = self._view([_row(1.0), _dead(2.0), _row(3.0)])
        out = merge_views([view])
        assert [r.clustering[0] for r in out] == [1.0, 3.0]

    def test_reverse_and_limit(self):
        view = self._view([_row(float(i)) for i in range(5)])
        out = merge_views([view], reverse=True, limit=2)
        assert [r.clustering[0] for r in out] == [4.0, 3.0]

    def test_tombstone_in_one_source_shadows_other(self):
        newer = self._view([_dead(1.0, tombstone_ts=5)])
        older = self._view([_row(1.0, write_ts=1, v=1), _row(2.0, v=2)])
        out = merge_views([newer, older])
        assert [r.clustering[0] for r in out] == [2.0]

    def test_collision_reconciled_by_timestamp(self):
        a = self._view([_row(1.0, write_ts=5, v="new")])
        b = BlockView(ColumnBlock.over_rows(
            [_row(1.0, write_ts=1, v="old"), _row(2.0, write_ts=1, v="x")]))
        out = merge_views([a, b])
        assert out[0].values["v"] == "new"
        assert len(out) == 2

    def test_limit_skips_dead_rows(self):
        a = self._view([_dead(1.0), _row(2.0), _row(3.0)])
        out = merge_views([a], limit=2)
        assert [r.clustering[0] for r in out] == [2.0, 3.0]

    def test_mixed_view_and_row_sources_interleave(self):
        a = self._view([_row(1.0), _row(4.0)])
        b = BlockView(ColumnBlock.over_rows([_row(2.0), _row(3.0)]))
        out = merge_views([a, b])
        assert [r.clustering[0] for r in out] == [1.0, 2.0, 3.0, 4.0]


# The seeded table as the oracle sees it: partitions in hour order,
# clustering (ts, seq) order within each.
EV_ROWS = [
    {"hour": hour, "type": "console", "ts": hour * 1000 + i * 1.0,
     "seq": i, "source": f"n{i % 4}", "amount": i % 7}
    for hour in (1, 2) for i in range(120)
]


def _seed_session(flush=True):
    cluster = Cluster(4, replication_factor=2)
    cluster.create_table(TableSchema(
        "ev", partition_key=("hour", "type"), clustering_key=("ts", "seq")))
    cluster.insert_many("ev", columns_of(EV_ROWS))
    s = Session(cluster)
    if flush:
        s.cluster.flush_all()
    return s


class TestColumnarRowParity:
    """Flushed partitions (ColumnBlock kernels) and unflushed ones
    (memtable row kernels) must both answer every query exactly as the
    reference evaluation does."""

    CONSOLE = ("type", "=", "console")
    HOUR1 = [("hour", "=", 1), CONSOLE]
    # query -> oracle arguments
    QUERIES = {
        "SELECT * FROM ev WHERE hour = 1 AND type = 'console'":
            dict(predicates=HOUR1),
        ("SELECT ts, source FROM ev WHERE hour = 1 AND type = 'console'"
         " AND source = 'n2'"):
            dict(predicates=HOUR1 + [("source", "=", "n2")],
                 columns=["ts", "source"]),
        ("SELECT * FROM ev WHERE hour = 2 AND type = 'console'"
         " AND amount >= 5"):
            dict(predicates=[("hour", "=", 2), CONSOLE,
                             ("amount", ">=", 5)]),
        ("SELECT * FROM ev WHERE hour = 1 AND type = 'console'"
         " AND ts > 1010 ORDER BY ts DESC LIMIT 7"):
            dict(predicates=HOUR1 + [("ts", ">", 1010)], reverse=True,
                 limit=7),
        ("SELECT source, count(*), sum(amount), avg(amount) FROM ev"
         " WHERE hour = 1 AND type = 'console' GROUP BY source"):
            dict(predicates=HOUR1, group_by=["source"],
                 aggregates=[("count", None), ("sum", "amount"),
                             ("avg", "amount")]),
        ("SELECT count(*), min(ts), max(amount) FROM ev"
         " WHERE hour IN (1, 2) AND type = 'console'"):
            dict(predicates=[("hour", "in", (1, 2)), CONSOLE],
                 aggregates=[("count", None), ("min", "ts"),
                             ("max", "amount")]),
        "SELECT source, count(*) FROM ev GROUP BY source":
            dict(group_by=["source"], aggregates=[("count", None)]),
        "SELECT hour, avg(amount) FROM ev WHERE amount > 3 GROUP BY hour":
            dict(predicates=[("amount", ">", 3)], group_by=["hour"],
                 aggregates=[("avg", "amount")]),
    }

    @pytest.mark.parametrize("query", QUERIES)
    def test_same_answers(self, query):
        expected = eval_select(EV_ROWS, **self.QUERIES[query])
        assert _seed_session(flush=True).execute(query) == expected
        assert _seed_session(flush=False).execute(query) == expected

    def test_delete_visible_through_columnar_read(self):
        s = _seed_session()
        s.cluster.delete_row(
            "ev", {"hour": 1, "type": "console", "ts": 1000, "seq": 0})
        out = s.execute("SELECT ts FROM ev WHERE hour = 1"
                        " AND type = 'console' AND ts <= 1001")
        assert [r["ts"] for r in out] == [1001.0]


class TestSSTableColumnar:
    def test_from_memtable_builds_blocks(self):
        mt = Memtable()
        for i in range(10):
            mt.append(Batch.of_rows([("pk", _row(float(i), type=TYPES[i]))]))
        sst = SSTable.from_memtable(mt)
        assert sst.offsets.get("pk") == (0, 10)
        block = sst.block
        assert isinstance(block, ColumnBlock)
        assert block.columns["type"].codes is not None

    def test_partition_pop_affects_columnar_reads(self):
        # The repair tests lose a partition by dropping its offset; the
        # loss must reach the read, not just the partition index.
        mt = Memtable()
        mt.append(Batch.of_rows([("pk", _row(1.0))]))
        sst = SSTable.from_memtable(mt)
        sst.offsets.pop("pk", None)
        assert sst.slice_partition_view("pk", None, None) is None
        assert sst.offsets.get("pk") is None
