"""Event-stream correlation: cross-correlation and transfer entropy.

Fig 7 (top) shows "the transfer entropy plot of two events measured
within a selected time window" — the framework's tool for deciding
whether one event type's history helps predict another's (a directed,
model-free coupling measure), e.g. whether uncorrectable memory errors
drive kernel panics.

Pipeline: the ``ts``/``amount`` columns of a context's events →
fixed-width binned count series → ``transfer_entropy`` /
``cross_correlation``.  A surrogate-shuffle
significance test guards against reading noise as causality.

Definitions (base-2 logs, bits):

.. math::

    TE_{X\\to Y} = \\sum p(y_{t+1}, y_t, x_t)
        \\log_2 \\frac{p(y_{t+1} | y_t, x_t)}{p(y_{t+1} | y_t)}

with one step of history (k = l = 1), states discretized to
"any event in bin" (binary) by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .model import LogDataModel, event_amounts

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context

__all__ = [
    "binned_series",
    "context_series",
    "cross_correlation",
    "transfer_entropy",
    "te_significance",
    "TransferEntropyResult",
    "te_pair",
    "te_matrix",
]

# The surrogate shifts of :func:`te_significance` are seeded, so a
# p-value is reproducible.
SHUFFLE_SEED = 7


def _bin_counts(ts: np.ndarray, amounts: np.ndarray, t0: float, t1: float,
                bin_seconds: float) -> np.ndarray:
    """Per-bin total of *amounts* on [t0, t1) for events at *ts*.

    Vectorized scatter-add (``np.add.at``) — the hot path of every TE
    computation over a long window.
    """
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    n = int(np.ceil((t1 - t0) / bin_seconds))
    series = np.zeros(n, dtype=np.int64)
    idx = ((ts - t0) / bin_seconds).astype(np.int64)
    # Floor-toward-negative for the rare ts slightly below t0.
    idx = np.where(ts < t0, -1, idx)
    mask = (idx >= 0) & (idx < n)
    np.add.at(series, idx[mask], amounts[mask])
    return series


def binned_series(events: Iterable[dict], t0: float, t1: float,
                  bin_seconds: float) -> np.ndarray:
    """Event rows → per-bin total ``amount`` counts on [t0, t1)."""
    rows = list(events)
    ts = np.fromiter((row["ts"] for row in rows), dtype=float,
                     count=len(rows))
    amounts = np.fromiter((row.get("amount", 1) for row in rows),
                          dtype=np.int64, count=len(rows))
    return _bin_counts(ts, amounts, t0, t1, bin_seconds)


def context_series(model: "LogDataModel", context: "Context",
                   bin_seconds: float) -> np.ndarray:
    """:func:`binned_series` of a context's events over its own
    interval, off the two columns it needs."""
    stamps, amounts = context.columns(model, "ts", "amount")
    return _bin_counts(np.array(stamps, dtype=float),
                       np.array(event_amounts(amounts), dtype=np.int64),
                       context.t0, context.t1, bin_seconds)


def cross_correlation(x: Sequence[float], y: Sequence[float],
                      max_lag: int) -> np.ndarray:
    """Pearson correlation of ``x[t]`` with ``y[t + lag]`` for
    ``lag ∈ [-max_lag, max_lag]``.

    Positive-lag peaks mean x leads y.  Constant series yield zeros
    (correlation undefined → no evidence).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("series must have equal length")
    if max_lag < 0 or max_lag >= x.size:
        raise ValueError("max_lag must be in [0, len(series))")
    out = np.zeros(2 * max_lag + 1)
    for i, lag in enumerate(range(-max_lag, max_lag + 1)):
        if lag >= 0:
            a, b = x[: x.size - lag], y[lag:]
        else:
            a, b = x[-lag:], y[: y.size + lag]
        if a.size < 2:
            continue
        sa, sb = a.std(), b.std()
        if sa == 0 or sb == 0:
            continue
        out[i] = float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))
    return out


def _discretize(series: np.ndarray, levels: int) -> np.ndarray:
    """Counts → small alphabet.  ``levels == 2`` is presence/absence;
    more levels split positive counts by quantile."""
    if levels < 2:
        raise ValueError("levels must be >= 2")
    series = np.asarray(series)
    if levels == 2:
        return (series > 0).astype(np.int64)
    positive = series[series > 0]
    if positive.size == 0:
        return np.zeros(series.size, dtype=np.int64)
    qs = np.quantile(positive, np.linspace(0, 1, levels)[1:-1])
    return np.digitize(series, np.unique(qs)).astype(np.int64)


def transfer_entropy(x: Sequence[float], y: Sequence[float],
                     levels: int = 2) -> float:
    """TE(X → Y) in bits, one history step, plug-in estimator."""
    x = _discretize(np.asarray(x), levels)
    y = _discretize(np.asarray(y), levels)
    if x.shape != y.shape:
        raise ValueError("series must have equal length")
    if x.size < 3:
        return 0.0
    y_next, y_now, x_now = y[1:], y[:-1], x[:-1]
    base = int(max(x.max(), y.max())) + 1
    # Joint histogram via flat indexing (fully vectorized).
    joint_idx = (y_next * base + y_now) * base + x_now
    p_xyz = np.bincount(joint_idx, minlength=base ** 3).astype(float)
    p_xyz /= p_xyz.sum()
    p_xyz = p_xyz.reshape(base, base, base)   # [y_next, y_now, x_now]
    p_yz = p_xyz.sum(axis=0, keepdims=True)   # p(y_now, x_now)
    p_yy = p_xyz.sum(axis=2, keepdims=True)   # p(y_next, y_now)
    p_y = p_xyz.sum(axis=(0, 2), keepdims=True)  # p(y_now)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = p_xyz * p_y
        den = p_yy * p_yz
        ratio = np.where((p_xyz > 0) & (den > 0), num / den, 1.0)
        te = float(np.sum(p_xyz * np.log2(ratio)))
    # Clamp tiny negative rounding artifacts; TE is non-negative.
    return max(te, 0.0)


def te_significance(x: Sequence[float], y: Sequence[float], *,
                    n_shuffles: int = 200) -> float:
    """Permutation p-value for TE(X→Y): fraction of circularly-shifted
    surrogates of X with TE at least the observed value.

    Circular shifts preserve X's autocorrelation while destroying its
    alignment with Y — the standard surrogate for event streams.
    """
    x = np.asarray(x)
    observed = transfer_entropy(x, y)
    rng = np.random.default_rng(SHUFFLE_SEED)
    hits = 0
    for _ in range(n_shuffles):
        shift = int(rng.integers(1, max(2, x.size - 1)))
        if transfer_entropy(np.roll(x, shift), y) >= observed:
            hits += 1
    return (hits + 1) / (n_shuffles + 1)


@dataclass(frozen=True, slots=True)
class TransferEntropyResult:
    """Directional coupling between two event types over a window."""

    source_type: str
    target_type: str
    te_forward: float     # source → target
    te_reverse: float     # target → source
    p_value: float        # significance of the forward direction
    bins: int

    @property
    def net(self) -> float:
        """Net directed information flow (forward minus reverse)."""
        return self.te_forward - self.te_reverse


def te_pair(model: "LogDataModel", context: "Context",
            source_type: str, target_type: str, *,
            bin_seconds: float = 60.0,
            n_shuffles: int = 200) -> TransferEntropyResult:
    """Fig 7 (top): TE between two event types within a context window."""
    sx = context_series(model, context.with_event_types(source_type),
                        bin_seconds)
    sy = context_series(model, context.with_event_types(target_type),
                        bin_seconds)
    return TransferEntropyResult(
        source_type=source_type,
        target_type=target_type,
        te_forward=transfer_entropy(sx, sy),
        te_reverse=transfer_entropy(sy, sx),
        p_value=te_significance(sx, sy, n_shuffles=n_shuffles),
        bins=sx.size,
    )


def te_matrix(model: "LogDataModel", context: "Context",
              types: Sequence[str], *, bin_seconds: float = 60.0
              ) -> np.ndarray:
    """Pairwise TE(row → column) between event types (no significance)."""
    series = [
        context_series(model, context.with_event_types(t), bin_seconds)
        for t in types
    ]
    n = len(types)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = transfer_entropy(series[i], series[j])
    return out
