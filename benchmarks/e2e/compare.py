#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` each name a set of runs written by ``run.py --json``: a
file, a directory, or a prefix that expands to ``<prefix>*.json`` (so
``baseline/e2e_a`` is ``e2e_a_1.json``, ``e2e_a_2.json``, ...).  For
each workload and end-to-end metric it prints each side's median and
quartiles, the change from A to B against the metric's bound from
``BENCHMARK.json``, and a verdict:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better by more than A's own spread
``same``        neither
``unresolved``  a side's spread (quartile distance over median) is wider
                than the bound, unless every run of one side reads better
                than every run of the other

It then names, per workload, the three layers whose ``self_ms_per_op``
moved most in the traced passes.  Exit code 1 on any ``worse``, 2 when
a set is empty or holds ``--quick`` runs, whose numbers mean nothing.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402


def refuse(why: str) -> None:
    print(f"compare.py: {why}", file=sys.stderr)
    raise SystemExit(2)


def load_set(name: str) -> list[dict]:
    """The single-pass records of every file *name* expands to."""
    if os.path.isdir(name):
        paths = sorted(glob.glob(os.path.join(name, "*.json")))
    elif os.path.isfile(name):
        paths = [name]
    else:
        paths = sorted(glob.glob(name + "*.json"))
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        records.extend(doc["runs"] if "runs" in doc else [doc])
    if not records:
        refuse(f"no runs found for {name!r}")
    if not all(r.get("comparable") for r in records):
        refuse(f"{name!r} holds --quick runs (comparable=false)")
    return records


def values(records: list[dict], workload: str, traced: int, metric: str
           ) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == traced
            and metric in r["metrics"]]


def verdict(a: list[float], b: list[float], better: str, bound: float
            ) -> tuple[str, float]:
    """(verdict, worsening): the change of the median from A to B as a
    share of A's, positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / med_a if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        # Too noisy to call, unless the two sides do not even overlap.
        bad_a, bad_b = [sign * v for v in a], [sign * v for v in b]
        if max(bad_b) < min(bad_a):
            return "better", worsening
        if min(bad_b) > max(bad_a) and worsening > bound:
            return "worse", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if -worsening > spread(a):
        return "better", worsening
    return "same", worsening


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        refuse("usage: compare.py A B")
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    side_a, side_b = load_set(argv[0]), load_set(argv[1])
    status = 0
    print(f"{'workload':16} {'metric':18} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32} {'change':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a = values(side_a, workload, 0, spec["name"])
            b = values(side_b, workload, 0, spec["name"])
            if not a or not b:
                continue
            word, worsening = verdict(a, b, spec["better"], spec["bound"])
            if word == "worse":
                status = 1

            def fmt(vals):
                return "/".join(f"{q:.4g}" for q in quartiles(vals)) \
                    + f" n={len(vals)}"
            print(f"{workload:16} {spec['name']:18} {fmt(a):>32} "
                  f"{fmt(b):>32} {worsening:+8.1%} {spec['bound']:6.0%}  "
                  f"{word}")
    layers = sorted({s["name"].split(".")[0] for s in contract["per_layer"]
                     if s["name"].endswith(".self_ms_per_op")})
    for workload in (w["name"] for w in contract["workloads"]):
        moved = []
        for layer in layers:
            a = values(side_a, workload, 1, f"{layer}.self_ms_per_op")
            b = values(side_b, workload, 1, f"{layer}.self_ms_per_op")
            if a and b:
                med_a, med_b = statistics.median(a), statistics.median(b)
                moved.append((abs(med_b - med_a), layer, med_a, med_b))
        moved.sort(reverse=True)
        if moved:
            print(f"{workload}: self_ms_per_op moved most in " + ", ".join(
                f"{layer} ({med_a:.4g} -> {med_b:.4g} ms)"
                for _, layer, med_a, med_b in moved[:3]))
    return status


if __name__ == "__main__":
    sys.exit(main())
