"""Stochastic arrival processes for synthetic log generation.

The real Titan logs are proprietary; the generator replaces them with
synthetic streams whose *statistical structure* matches what the
paper's analytics are demonstrated on:

* homogeneous Poisson baselines (independent background noise),
* Weibull renewal processes with shape < 1 (bursty/clustered arrivals,
  the empirically observed pattern for HPC faults),
* skewed spatial weights (hot nodes / hot cabinets, so heat maps have
  something to find).

All samplers are vectorized NumPy and take an explicit ``Generator``;
nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "poisson_arrivals",
    "weibull_arrivals",
    "hotspot_weights",
]


def poisson_arrivals(rate: float, t0: float, t1: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Event times of a homogeneous Poisson process on [t0, t1).

    ``rate`` is events per second.  Sampling the count then uniform
    order statistics is exact and fully vectorized.
    """
    if t1 <= t0 or rate <= 0:
        return np.empty(0)
    n = rng.poisson(rate * (t1 - t0))
    if n == 0:
        return np.empty(0)
    return np.sort(rng.uniform(t0, t1, size=n))


def weibull_arrivals(rate: float, shape: float, t0: float, t1: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Renewal process with Weibull inter-arrivals, mean matched to
    ``1/rate`` seconds.

    ``shape < 1`` gives over-dispersed (bursty) arrivals — the shape
    reliability studies report for HPC failures; ``shape == 1`` reduces
    to Poisson.
    """
    if t1 <= t0 or rate <= 0:
        return np.empty(0)
    if shape <= 0:
        raise ValueError("shape must be positive")
    mean_gap = 1.0 / rate
    # Scale lambda so the Weibull mean equals mean_gap.
    from math import gamma

    scale = mean_gap / gamma(1.0 + 1.0 / shape)
    # Draw in chunks until the horizon is covered (expected n + slack).
    expected = int((t1 - t0) * rate) + 1
    times = []
    t = t0
    while t < t1:
        gaps = scale * rng.weibull(shape, size=max(expected, 16))
        arrivals = t + np.cumsum(gaps)
        take = arrivals[arrivals < t1]
        times.append(take)
        if take.size < arrivals.size:  # horizon reached
            break
        t = float(arrivals[-1])
    if not times:
        return np.empty(0)
    return np.concatenate(times)


def hotspot_weights(n: int, num_hot: int, multiplier: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform weights with ``num_hot`` randomly chosen items boosted by
    ``multiplier``.  Returns ``(weights, hot_indices)`` — the injected
    ground truth the Fig-5 heat-map bench checks recovery of.
    """
    if not (0 <= num_hot <= n):
        raise ValueError("num_hot must be within [0, n]")
    if multiplier < 1:
        raise ValueError("multiplier must be >= 1")
    weights = np.ones(n)
    hot = rng.choice(n, size=num_hot, replace=False) if num_hot else np.empty(0, dtype=np.int64)
    weights[hot] = multiplier
    return weights / weights.sum(), np.sort(hot)
