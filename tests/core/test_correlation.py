"""Tests for cross-correlation and transfer entropy (Fig 7 top)."""

import numpy as np
import pytest

from repro.core import binned_series, te_matrix, transfer_entropy
from repro.core.correlation import cross_correlation, te_pair, te_significance

from .conftest import HORIZON


class TestBinnedSeries:
    def test_counts_and_amounts(self):
        events = [{"ts": 0.5, "amount": 2}, {"ts": 0.9}, {"ts": 5.5}]
        series = binned_series(events, 0.0, 10.0, 1.0)
        assert series.shape == (10,)
        assert series[0] == 3
        assert series[5] == 1

    def test_out_of_range_ignored(self):
        series = binned_series([{"ts": -1.0}, {"ts": 99.0}], 0.0, 10.0, 1.0)
        assert series.sum() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            binned_series([], 0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            binned_series([], 10.0, 0.0, 1.0)

    def test_partial_last_bin(self):
        series = binned_series([{"ts": 9.5}], 0.0, 9.7, 1.0)
        assert series.shape == (10,)
        assert series[9] == 1


class TestCrossCorrelation:
    def test_perfect_lagged_copy(self):
        rng = np.random.default_rng(5)
        x = rng.poisson(2.0, 500).astype(float)
        y = np.roll(x, 3)  # y lags x by 3
        corr = cross_correlation(x, y, max_lag=5)
        assert np.argmax(corr) == 5 + 3

    def test_symmetric_range(self):
        x = np.arange(50, dtype=float)
        corr = cross_correlation(x, x, max_lag=4)
        assert corr.shape == (9,)
        assert corr[4] == pytest.approx(1.0)

    def test_constant_series_zero(self):
        x = np.ones(20)
        corr = cross_correlation(x, x, max_lag=2)
        assert np.allclose(corr, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_correlation([1, 2], [1, 2, 3], 1)
        with pytest.raises(ValueError):
            cross_correlation([1, 2], [1, 2], 5)


class TestTransferEntropy:
    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, 500)
        y = rng.integers(0, 2, 500)
        assert transfer_entropy(x, y) >= 0.0

    def test_zero_for_independent(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 20_000)
        y = rng.integers(0, 2, 20_000)
        assert transfer_entropy(x, y) < 0.002

    def test_detects_driven_series(self):
        """y copies x with one step delay: TE(x→y) >> TE(y→x)."""
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, 2000)
        y = np.roll(x, 1)
        forward = transfer_entropy(x, y)
        reverse = transfer_entropy(y, x)
        assert forward > 0.5   # near 1 bit for a binary copy
        assert forward > 5 * max(reverse, 1e-6)

    def test_short_series(self):
        assert transfer_entropy([1, 0], [0, 1]) == 0.0

    def test_multilevel_discretization(self):
        rng = np.random.default_rng(6)
        x = rng.poisson(3.0, 3000)
        y = np.roll(x, 1)
        assert transfer_entropy(x, y, levels=3) > transfer_entropy(
            rng.permutation(x), y, levels=3
        )

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            transfer_entropy([1, 0, 1], [0, 1, 0], levels=1)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            transfer_entropy([1, 0, 1], [0, 1])


class TestSignificance:
    def test_coupled_series_significant(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, 1000)
        y = np.roll(x, 1)
        p = te_significance(x, y, n_shuffles=100)
        assert p < 0.05

    def test_independent_series_not_significant(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, 1000)
        y = rng.integers(0, 2, 1000)
        p = te_significance(x, y, n_shuffles=100)
        assert p > 0.05


class TestOnFramework:
    def test_cascade_direction_detected(self, fw):
        """The generator injects DRAM_UE → KERNEL_PANIC cascades; TE must
        be larger in the causal direction and significant (Fig 7 top)."""
        ctx = fw.context(0, HORIZON)
        result = fw.transfer_entropy(ctx, "DRAM_UE", "KERNEL_PANIC",
                                     bin_seconds=30.0, n_shuffles=100)
        assert result.te_forward > result.te_reverse
        assert result.net > 0
        assert result.p_value < 0.05
        assert result.bins == int(np.ceil(HORIZON / 30.0))

    def test_unrelated_types_insignificant(self, fw):
        ctx = fw.context(0, HORIZON)
        result = fw.transfer_entropy(ctx, "GPU_XID", "NET_THROTTLE",
                                     bin_seconds=60.0, n_shuffles=100)
        assert result.p_value > 0.01

    def test_te_matrix_shape_and_diagonal(self, fw):
        ctx = fw.context(0, HORIZON)
        types = ["DRAM_UE", "KERNEL_PANIC", "GPU_XID"]
        # 30 s bins: the injected UE→panic delay is 1–20 s, so wider bins
        # collapse cause and effect into the same bin and lose direction.
        m = te_matrix(fw.model, ctx, types, bin_seconds=30.0)
        assert m.shape == (3, 3)
        assert np.all(np.diag(m) == 0.0)
        assert np.all(m >= 0.0)
        # Causal direction dominates in the matrix too.
        assert m[0, 1] > m[1, 0]

    def test_framework_cross_correlation(self, fw):
        ctx = fw.context(0, HORIZON)
        corr = fw.cross_correlation(ctx, "DRAM_UE", "KERNEL_PANIC",
                                    bin_seconds=30.0, max_lag=5)
        assert corr.shape == (11,)
        # Panic follows the UE within a bin or two: peak at lag >= 0.
        assert np.argmax(corr) >= 5
