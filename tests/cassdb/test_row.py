"""Unit tests for the row/cell model and reconciliation."""

import pytest

from repro.cassdb.row import ClusteringBound, Row, merge_rows


def _row(clustering, cells):
    """A row from ``column -> (value, write_ts)``."""
    return Row.from_stamps(clustering,
                           {name: value for name, (value, _) in cells.items()},
                           [ts for _, ts in cells.values()])


def _cell(value, write_ts):
    """A one-column row: one cell to reconcile through merge_rows."""
    return _row((1,), {"x": (value, write_ts)})


class TestCell:
    def test_reconcile_newer_wins(self):
        old, new = _cell("a", 1), _cell("b", 2)
        for merged in (merge_rows(old, new), merge_rows(new, old)):
            assert merged.values == {"x": "b"}
            assert merged.timestamps() == {"x": 2}

    def test_reconcile_tie_is_commutative(self):
        a, b = _cell("x", 5), _cell("y", 5)
        assert merge_rows(a, b) == merge_rows(b, a)
        assert merge_rows(a, b).values == {"x": "y"}

    def test_reconcile_identical(self):
        merged = merge_rows(_cell("v", 3), _cell("v", 3))
        assert merged.values == {"x": "v"}
        assert merged.timestamps() == {"x": 3}


class TestRow:
    def test_from_values(self):
        row = Row.from_values((1.0, 0), {"src": "n1", "amount": 2}, write_ts=9)
        assert row.clustering == (1.0, 0)
        assert row.value("src") == "n1"
        assert row.timestamps()["amount"] == 9

    def test_value_default(self):
        row = Row.from_values((1,), {})
        assert row.value("missing", 42) == 42

    def test_as_dict(self):
        row = Row.from_values((1,), {"a": 1, "b": "x"})
        assert row.as_dict() == {"a": 1, "b": "x"}

    def test_cell_stamps_are_named(self):
        # A fourth positional argument has no field to land in.
        with pytest.raises(TypeError):
            Row((1,), {"a": 1}, 9, {"a": 5})
        assert Row((1,), {"a": 1}, 9, cell_ts={"a": 5}).timestamps() == {
            "a": 5}


class TestMergeRows:
    def test_different_clustering_rejected(self):
        with pytest.raises(ValueError):
            merge_rows(Row.from_values((1,), {}), Row.from_values((2,), {}))

    def test_column_wise_lww(self):
        a = _row((1,), {"x": (1, 10), "y": ("old", 10)})
        b = _row((1,), {"y": ("new", 20), "z": (3, 5)})
        m = merge_rows(a, b)
        assert m.as_dict() == {"x": 1, "y": "new", "z": 3}

    def test_merge_commutative(self):
        a = _row((1,), {"x": (1, 10), "y": (2, 30)})
        b = _row((1,), {"x": (9, 20), "y": (8, 25)})
        ab, ba = merge_rows(a, b), merge_rows(b, a)
        assert ab.as_dict() == ba.as_dict()


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
