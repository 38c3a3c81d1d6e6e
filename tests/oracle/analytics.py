"""Reference folds over event rows.

These are the row loops ``repro.core`` ran while every analytic resolved
its context through ``Context.events()`` — one dict per event, read in
time order — kept word for word, so the column-reading folds that
replaced them have something slow and obvious to agree with.
"""

from collections import Counter

import numpy as np


def heatmap(rows, key=lambda source: source):
    """Summed ``amount`` per ``key(source)``."""
    counts = Counter()
    for row in rows:
        counts[key(row["source"])] += int(row.get("amount", 1))
    return dict(counts)


def time_histogram(rows, t0, t1, num_bins):
    counts = np.zeros(num_bins, dtype=np.int64)
    width = (t1 - t0) / num_bins
    for row in rows:
        idx = min(int((row["ts"] - t0) / width), num_bins - 1)
        counts[idx] += int(row.get("amount", 1))
    return counts


def distribution_by_application(rows, runs):
    """*runs* are ``(start, end, app, nodes)``; the first run listed for
    a node that covers the event's time gets the event."""
    per_node = {}
    for start, end, app, nodes in runs:
        for cname in nodes:
            per_node.setdefault(cname, []).append((start, end, app))
    counts = Counter()
    for event in rows:
        app = "(idle)"
        for start, end, name in per_node.get(event["source"], ()):
            if start <= event["ts"] < end:
                app = name
                break
        counts[app] += int(event.get("amount", 1))
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def binned_series(rows, t0, t1, bin_seconds):
    n = int(np.ceil((t1 - t0) / bin_seconds))
    series = np.zeros(n, dtype=np.int64)
    rows = list(rows)
    if not rows:
        return series
    ts = np.fromiter((row["ts"] for row in rows), dtype=float,
                     count=len(rows))
    amounts = np.fromiter((row.get("amount", 1) for row in rows),
                          dtype=np.int64, count=len(rows))
    idx = ((ts - t0) / bin_seconds).astype(np.int64)
    idx = np.where(ts < t0, -1, idx)
    mask = (idx >= 0) & (idx < n)
    np.add.at(series, idx[mask], amounts[mask])
    return series
