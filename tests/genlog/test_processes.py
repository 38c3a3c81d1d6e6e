"""Tests for the arrival-process samplers."""

import numpy as np
import pytest

from repro.genlog.processes import hotspot_weights, poisson_arrivals, weibull_arrivals


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestPoisson:
    def test_empty_cases(self, rng):
        assert poisson_arrivals(0.0, 0, 100, rng).size == 0
        assert poisson_arrivals(1.0, 100, 100, rng).size == 0
        assert poisson_arrivals(1.0, 100, 50, rng).size == 0

    def test_rate_matches(self, rng):
        times = poisson_arrivals(2.0, 0, 10_000, rng)
        assert 19_000 < times.size < 21_000

    def test_sorted_and_in_range(self, rng):
        times = poisson_arrivals(0.5, 100, 200, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 100 and times.max() < 200


class TestWeibull:
    def test_rate_matches_mean(self, rng):
        times = weibull_arrivals(1.0, 0.7, 0, 20_000, rng)
        # Renewal process with mean gap 1s: ~20k arrivals (±15%).
        assert 16_000 < times.size < 24_000

    def test_shape_one_similar_to_poisson(self, rng):
        times = weibull_arrivals(1.0, 1.0, 0, 10_000, rng)
        assert 9_000 < times.size < 11_000

    def test_bursty_when_shape_below_one(self, rng):
        bursty = weibull_arrivals(1.0, 0.5, 0, 50_000, rng)
        smooth = weibull_arrivals(1.0, 1.0, 0, 50_000, rng)
        # Coefficient of variation of inter-arrivals is larger for
        # shape < 1 (over-dispersion).
        def cv(t):
            gaps = np.diff(t)
            return gaps.std() / gaps.mean()
        assert cv(bursty) > 1.3 * cv(smooth)

    def test_invalid_shape(self, rng):
        with pytest.raises(ValueError):
            weibull_arrivals(1.0, 0.0, 0, 10, rng)

    def test_empty(self, rng):
        assert weibull_arrivals(0.0, 0.7, 0, 10, rng).size == 0

    def test_in_range_sorted(self, rng):
        times = weibull_arrivals(0.2, 0.8, 50, 1000, rng)
        assert np.all(times >= 50) and np.all(times < 1000)
        assert np.all(np.diff(times) >= 0)


class TestWeights:
    def test_hotspot_weights_boost(self, rng):
        w, hot = hotspot_weights(100, 5, 20.0, rng)
        assert hot.size == 5
        assert abs(w.sum() - 1.0) < 1e-12
        cold = np.setdiff1d(np.arange(100), hot)
        assert np.allclose(w[hot], 20 * w[cold][0])

    def test_hotspot_none(self, rng):
        w, hot = hotspot_weights(10, 0, 5.0, rng)
        assert hot.size == 0
        assert np.allclose(w, 0.1)

    def test_hotspot_validation(self, rng):
        with pytest.raises(ValueError):
            hotspot_weights(10, 11, 5.0, rng)
        with pytest.raises(ValueError):
            hotspot_weights(10, 1, 0.5, rng)

