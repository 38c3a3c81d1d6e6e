"""Edge cases for slice bisection and slice merging.

Covers the hazards the bounds bisect and the lazy k-way merge are most
likely to get wrong: runs of duplicate clustering prefixes, bounds on
the last key, reverse-with-limit scans over overlapping slices, and
degenerate empty inputs.
"""

from repro.cassdb.row import ClusteringBound, Row, slice_bounds_keys
from repro.cassdb.vector import BlockView, ColumnBlock, merge_views


def _view(rows):
    """A sorted row list as the merge takes it: a row-backed view."""
    return BlockView(ColumnBlock.over_rows(rows))


def _row(ts, seq=0, write_ts=1, **cols):
    return Row.from_values((ts, seq), cols or {"v": ts}, write_ts=write_ts)


def _check(rows, lower, upper):
    """slice_bounds_keys must equal the brute-force scan."""
    keys = [r.clustering for r in rows]
    lo, hi = slice_bounds_keys(keys, lower, upper)
    want = [
        k for k in keys
        if (lower is None or lower.admits_lower(k))
        and (upper is None or upper.admits_upper(k))
    ]
    assert keys[lo:hi] == want


class TestDuplicatePrefixStraddlingSampleBlocks:
    """A run of equal clustering *prefixes* (same ts, many seqs): the
    bisect must take the whole run, whichever bound meets it, and no
    row of its neighbours."""

    def _rows(self):
        # 4 rows of ts=1.0, then 6 of ts=2.0 (seq 0..5), then 6 of 3.0.
        rows = [_row(1.0, seq=s) for s in range(4)]
        rows += [_row(2.0, seq=s) for s in range(6)]
        rows += [_row(3.0, seq=s) for s in range(6)]
        return rows

    def test_prefix_equality_crosses_boundary(self):
        rows = self._rows()
        eq = ClusteringBound((2.0,))
        _check(rows, eq, eq)

    def test_exclusive_lower_skips_whole_run(self):
        rows = self._rows()
        _check(rows, ClusteringBound((2.0,), inclusive=False), None)

    def test_exclusive_upper_stops_before_run(self):
        rows = self._rows()
        _check(rows, None, ClusteringBound((2.0,), inclusive=False))

    def test_duplicate_run_longer_than_a_sample_block(self):
        rows = [_row(5.0, seq=s) for s in range(40)]
        eq = ClusteringBound((5.0,))
        _check(rows, eq, eq)

    def test_bound_on_last_sample_boundary(self):
        rows = [_row(float(i)) for i in range(16)]
        _check(rows, ClusteringBound((12.0,)), ClusteringBound((12.0,)))
        _check(rows, ClusteringBound((15.0,)), None)


class TestReverseLimit:
    def test_reverse_limit_with_cross_slice_shadowing(self):
        # The newest key sits in both slices: it is emitted once, with
        # the newer write's cell, and counts once toward the limit.
        older = [_row(1.0, v=1), _row(2.0, v=2), _row(3.0, v=3)]
        newer = [_row(3.0, write_ts=8, v=30)]
        out = merge_views([_view(newer), _view(older)], reverse=True, limit=2)
        assert [(r.clustering[0], r.value("v")) for r in out] == [
            (3.0, 30), (2.0, 2)]

    def test_limit_zero(self):
        assert merge_views([_view([_row(1.0)])], limit=0) == []
        assert merge_views([_view([_row(1.0)])], reverse=True, limit=0) == []


class TestEmptyInputs:
    def test_slice_bounds_empty_rows(self):
        assert slice_bounds_keys([], ClusteringBound((1.0,)),
                                 ClusteringBound((2.0,))) == (0, 0)
        assert slice_bounds_keys([], ClusteringBound((1.0,)), None) == (0, 0)

    def test_merge_no_slices(self):
        assert merge_views([]) == []
        assert merge_views([], reverse=True, limit=3) == []

    def test_merge_empty_slices(self):
        assert merge_views([_view([]), _view([])]) == []
        assert merge_views([_view([]), _view([_row(1.0)]), _view([])])[0].clustering == (1.0, 0)

    def test_disjoint_bounds_give_empty_range(self):
        keys = [(float(i), 0) for i in range(8)]
        lo, hi = slice_bounds_keys(keys, ClusteringBound((6.0,)),
                                   ClusteringBound((2.0,)))
        assert lo >= hi or keys[lo:hi] == []
