"""Reference lead–lag precedence: the per-ordered-pair evaluation.

``LeadLagDetector._precedence`` and ``_phi`` as they stood when the
follower's indicator series and its ``follows`` look-ahead were rebuilt
for every ordered pair, kept verbatim with the detector's parameters as
arguments.  Integer arithmetic up to the final division, so the
detector's per-follower evaluation must agree bit for bit.
"""

import math

__all__ = ["phi", "precedence"]


def precedence(sa, series_b, *, max_lag, min_occurrences, min_corr):
    """Peak windowed cross-correlation of A's indicator against
    "B within (0, lag]", and the median observed lead time."""
    sb = [1 if x > 0 else 0 for x in series_b]
    n = min(len(sa), len(sb)) - max_lag
    if n < 2 * min_occurrences:
        return 0.0, 0
    # follows[t] = 1 iff any B fires in (t, t + max_lag].
    follows = [1 if any(sb[t + 1:t + 1 + max_lag]) else 0
               for t in range(n)]
    lead = sa[:n]
    corr = phi(lead, follows)
    if corr < min_corr:
        return corr, 0
    lags = []
    for t in range(n):
        if not lead[t]:
            continue
        for lag in range(1, max_lag + 1):
            if sb[t + lag]:
                lags.append(lag)
                break
    lags.sort()
    median = lags[len(lags) // 2] if lags else 0
    return corr, median


def phi(x, y):
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    num = n * sxy - sx * sy
    den = math.sqrt(sx * (n - sx)) * math.sqrt(sy * (n - sy))
    if den == 0:
        return 0.0
    return num / den
