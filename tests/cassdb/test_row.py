"""Unit tests for the row/cell model and reconciliation."""

import pytest

from repro.cassdb.row import Cell, ClusteringBound, Row, merge_rows


class TestCell:
    def test_reconcile_newer_wins(self):
        old, new = Cell("a", 1), Cell("b", 2)
        assert old.reconcile(new) is new
        assert new.reconcile(old) is new

    def test_reconcile_tie_is_commutative(self):
        a, b = Cell("x", 5), Cell("y", 5)
        assert a.reconcile(b) == b.reconcile(a)

    def test_reconcile_identical(self):
        a = Cell("v", 3)
        assert a.reconcile(Cell("v", 3)).value == "v"


class TestRow:
    def test_from_values(self):
        row = Row.from_values((1.0, 0), {"src": "n1", "amount": 2}, write_ts=9)
        assert row.clustering == (1.0, 0)
        assert row.value("src") == "n1"
        assert row.cells["amount"].write_ts == 9

    def test_value_default(self):
        row = Row.from_values((1,), {})
        assert row.value("missing", 42) == 42

    def test_as_dict(self):
        row = Row.from_values((1,), {"a": 1, "b": "x"})
        assert row.as_dict() == {"a": 1, "b": "x"}


class TestMergeRows:
    def test_different_clustering_rejected(self):
        with pytest.raises(ValueError):
            merge_rows(Row.from_values((1,), {}), Row.from_values((2,), {}))

    def test_column_wise_lww(self):
        a = Row.from_cells((1,), {"x": Cell(1, 10), "y": Cell("old", 10)})
        b = Row.from_cells((1,), {"y": Cell("new", 20), "z": Cell(3, 5)})
        m = merge_rows(a, b)
        assert m.as_dict() == {"x": 1, "y": "new", "z": 3}

    def test_merge_commutative(self):
        a = Row.from_cells((1,), {"x": Cell(1, 10), "y": Cell(2, 30)})
        b = Row.from_cells((1,), {"x": Cell(9, 20), "y": Cell(8, 25)})
        ab, ba = merge_rows(a, b), merge_rows(b, a)
        assert ab.as_dict() == ba.as_dict()

    def test_tombstone_shadows_older_cells(self):
        data = Row.from_cells((1,), {"x": Cell(1, 10)})
        tomb = Row((1,), {}, tombstone_ts=15)
        m = merge_rows(data, tomb)
        assert m.tombstone_ts == 15
        assert m.as_dict() == {}

    def test_newer_write_survives_tombstone(self):
        tomb = Row((1,), {}, tombstone_ts=15)
        newer = Row.from_cells((1,), {"x": Cell(7, 20)})
        m = merge_rows(tomb, newer)
        assert m.as_dict() == {"x": 7}
        # Row remains marked deleted but the resurrecting cell survives;
        # the read path keeps rows with live cells.
        assert m.tombstone_ts == 15


class TestClusteringBound:
    def test_inclusive_lower(self):
        b = ClusteringBound((5,), inclusive=True)
        assert b.admits_lower((5,))
        assert b.admits_lower((6,))
        assert not b.admits_lower((4,))

    def test_exclusive_lower(self):
        b = ClusteringBound((5,), inclusive=False)
        assert not b.admits_lower((5,))
        assert b.admits_lower((6,))

    def test_inclusive_upper(self):
        b = ClusteringBound((5,), inclusive=True)
        assert b.admits_upper((5,))
        assert b.admits_upper((4,))
        assert not b.admits_upper((6,))

    def test_exclusive_upper(self):
        b = ClusteringBound((5,), inclusive=False)
        assert not b.admits_upper((5,))
        assert b.admits_upper((4,))

    def test_prefix_lower_bound_admits_longer_tuples(self):
        # WHERE ts >= 5 against clustering (ts, seq): (5, 0) admitted.
        b = ClusteringBound((5,), inclusive=True)
        assert b.admits_lower((5, 0))
        assert b.admits_lower((5, 99))
        assert not ClusteringBound((5,), inclusive=False).admits_lower((4, 99))

    def test_prefix_upper_bound(self):
        # WHERE ts <= 5: (5, anything) admitted; WHERE ts < 5: rejected.
        inc = ClusteringBound((5,), inclusive=True)
        exc = ClusteringBound((5,), inclusive=False)
        assert inc.admits_upper((5, 3))
        assert not exc.admits_upper((5, 3))
        assert exc.admits_upper((4, 999))
