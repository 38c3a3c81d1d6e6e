#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery (not of the program).

    python3 benchmarks/e2e/selftest.py [--quick]

Checks that inputs are a function of the seed alone, that the span
recorder's self-time arithmetic is right, that the percentile helper
honours the ten-samples-beyond rule, and that a ``run.py --quick`` pass
prints exactly the metric names ``BENCHMARK.json`` lists.  ``--quick``
runs one workload's two passes (under 20 s); without it all four run.
Not collected by the repository's test suite: ``pytest`` only picks up
``test_*.py`` and ``bench_*.py``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import stats  # noqa: E402
import trace  # noqa: E402

RUN = os.path.join(HERE, "run.py")


def input_digests(seed: int) -> dict[str, str]:
    scale = inputs.QUICK
    stream = inputs.live_stream(seed, scale, 0.2, storms=True)
    return {
        "requests": inputs.digest(
            itertools.islice(inputs.read_requests(seed, scale), 500)),
        "jobs": inputs.digest(
            itertools.islice(inputs.job_requests(seed, scale), 200)),
        "lines": inputs.digest(stream.lines),
    }


def test_inputs_follow_the_seed() -> None:
    first, again, other = input_digests(11), input_digests(11), \
        input_digests(12)
    assert first == again, "same seed, different inputs"
    assert all(first[k] != other[k] for k in first), \
        "different seeds, same inputs"
    # A fresh interpreter with another string-hash seed agrees too.
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--digests", "11"],
        env={**os.environ, "PYTHONHASHSEED": "12345"},
        capture_output=True, text=True, check=True)
    assert json.loads(child.stdout) == first, \
        "inputs depend on PYTHONHASHSEED"


def test_self_time_arithmetic() -> None:
    # One request: the server span has two cluster children that
    # overlap on two threads; one of them has a store child.
    spans = [
        (1, 0, 1, "server", "handle", 0.0, 10.0),
        (2, 1, 1, "cluster", "select", 1.0, 5.0),     # thread A
        (3, 1, 1, "cluster", "select", 3.0, 8.0),     # thread B
        (4, 2, 1, "store", "read", 2.0, 4.0),
    ]
    totals = trace.layer_totals(spans)
    assert totals["server"] == {"calls": 1, "self_s": 3.0}, totals
    assert totals["cluster"] == {"calls": 2, "self_s": 7.0}, totals
    assert totals["store"] == {"calls": 1, "self_s": 2.0}, totals
    assert trace.covered([(3.0, 8.0), (1.0, 5.0), (9.0, 12.0)],
                         0.0, 10.0) == 8.0


def test_recorder_links_spans_across_threads() -> None:
    class Toy:
        def outer(self):
            workers = [
                threading.Thread(
                    target=contextvars.copy_context().run,
                    args=(self.inner,))
                for _ in range(2)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=10)
            return list(self.items())

        def inner(self):
            return self.one()

        @classmethod
        def one(cls):
            return 1

        def items(self):
            yield self.inner()

    recorder = trace.Recorder()
    recorder.wrap(Toy, "outer", "server")
    recorder.wrap(Toy, "inner", "cluster")
    recorder.wrap(Toy, "items", "model")
    recorder.wrap(Toy, "one", "store")
    try:
        assert Toy().outer() == [1]
    finally:
        recorder.uninstall()
    assert "outer" in vars(Toy) and not hasattr(Toy.outer, "__wrapped__")
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[4], []).append(span)
    (outer,) = by_name["Toy.outer"]
    (items,) = by_name["Toy.items"]
    assert items[1] == outer[0], "generator span lost its parent"
    parents = sorted(s[1] for s in by_name["Toy.inner"])
    assert parents == sorted([outer[0], outer[0], items[0]]), parents
    assert len(by_name["Toy.one"]) == 3
    assert isinstance(vars(Toy)["one"], classmethod)
    assert {s[2] for s in recorder.spans} == {outer[0]}, \
        "spans of one request must share its id"


def test_percentile_support() -> None:
    pick = stats.highest_supported_percentile
    assert pick(10_000) == 99.9 and pick(1_000) == 99.0
    assert pick(999) == 95.0 and pick(200) == 95.0
    assert pick(199) == 90.0 and pick(150) == 90.0
    assert pick(40) == 75.0 and pick(15) == 50.0
    values = sorted(range(1, 201))
    assert stats.percentile(values, 95) == 190
    assert stats.samples_beyond(200, 95) == 10
    assert stats.spread([90.0, 100.0, 110.0, 100.0]) == \
        (stats.quartiles([90.0, 100.0, 110.0, 100.0])[2]
         - stats.quartiles([90.0, 100.0, 110.0, 100.0])[0]) / 100.0


def test_run_prints_the_listed_metrics(quick: bool) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    if quick:
        names = ["mixed_live"]
    listed = {0: {m["name"] for m in contract["end_to_end"]},
              1: {m["name"] for m in contract["per_layer"]}}
    children = {
        (name, traced): subprocess.Popen(
            [sys.executable, RUN, "--workload", name, "--trace",
             str(traced), "--quick", "--seed", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in names for traced in (0, 1)}
    for (name, traced), child in children.items():
        out, err = child.communicate(timeout=170)
        assert child.returncode == 0, f"{name} trace={traced}: {err}"
        *lines, last = out.strip().splitlines()
        printed = {line.split()[0] for line in lines}
        assert printed == listed[traced], (
            f"{name} trace={traced}: printed but unlisted "
            f"{sorted(printed - listed[traced])}, listed but not printed "
            f"{sorted(listed[traced] - printed)}")
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == listed[traced]
        assert result["correct"] and result["failed"] == 0 \
            and result["attempted"] >= 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--digests"]:
        print(json.dumps(input_digests(int(argv[1]))))
        return 0
    for test in (test_inputs_follow_the_seed, test_self_time_arithmetic,
                 test_recorder_links_spans_across_threads,
                 test_percentile_support):
        test()
        print("ok", test.__name__)
    test_run_prints_the_listed_metrics("--quick" in argv)
    print("ok test_run_prints_the_listed_metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
