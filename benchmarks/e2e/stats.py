"""Order statistics shared by the driver, ``compare.py`` and the self-test."""

from __future__ import annotations

import contextlib
import math
import os
import re
import statistics
import threading
import time
from typing import Sequence

# A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the *pct* percentile among *n* samples
    (rounded first: 99.9 % of 10 000 is 9990, not 9990.000000000002)."""
    return min(n, max(1, math.ceil(round(pct * n / 100.0, 6))))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of *n* samples lie strictly above the *pct* rank."""
    return n - _rank(n, pct)


def highest_supported_percentile(n: int) -> float:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond it (the median when even p75 has too few)."""
    for pct in CANDIDATE_PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


_PROBE_RE = re.compile(r"^(?P<ts>\S+)\s+(?P<component>\S+)\s+"
                       r"(?P<source>console|network):\s+(?P<payload>.*)$")
_PROBE_LINE = ("2017-03-02T00:00:01.123 c3-17c1s5n2 console: Machine Check "
               "Exception: CPU 3 Bank 4: 0xb200000000070f0f")


def probe() -> float:
    """CPU seconds this thread needs for a fixed piece of interpreter
    work (dict updates, a sort, a regex match) — what the program is
    made of.  Thread CPU time, so waiting for the GIL does not count."""
    began = time.thread_time()
    acc: dict = {}
    for i in range(300):
        key = (i % 37, "t%d" % (i % 11))
        acc[key] = acc.get(key, 0.0) + i * 1.5
    sorted(acc.items(), key=lambda kv: -kv[1])
    _PROBE_RE.match(_PROBE_LINE).groupdict()
    return time.thread_time() - began


# What probe() took on the reference box, unpinned, when nothing else
# contended for the core: calibrated times read as if the machine ran
# that fast.
PROBE_REF_S = 250e-6


# The line of /proc/stat that stolen_seconds() reads: every CPU's sum,
# or after pin_to_one_cpu() that CPU's own.
_stat_line = "cpu"


def pin_to_one_cpu() -> None:
    """Keep this thread, and every thread and process started from it,
    on one CPU.

    The program runs up to eight task threads that hand one GIL around.
    Where the kernel spreads them over two virtual CPUs every hand-over
    crosses cores and the same work burns twice the processor time;
    where it happens to keep them together it does not.  Which of the
    two a run gets is the scheduler's choice (it changed with the size
    of the benchmark's own heap), so unpinned runs of the same code fall
    into two groups a factor of two apart on the threaded phases.  One
    interpreter cannot use a second core anyway.  The highest-numbered
    CPU, because interrupts land on the lowest by default."""
    global _stat_line
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return                      # not Linux, or not allowed: run unpinned
    _stat_line = f"cpu{cpu}"


def stolen_seconds() -> float:
    """Seconds so far that a virtual CPU this process may run on had
    work but the hypervisor ran someone else (the steal column of
    /proc/stat); 0.0 where the kernel does not say."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == _stat_line:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class Speedometer:
    """How many times slower than the reference the machine ran.

    Two things slow this sandbox down under a benchmark.  A busy
    neighbour on the core makes every instruction take longer: seen by
    sampling :func:`probe` between operations (at most every ``gap_s``
    of wall time) and taking the median.  A hypervisor that parks the
    virtual CPU makes the wall clock run on while nothing executes: not
    seen by a CPU-time probe, but counted by the kernel as steal.  The
    program keeps one thread busy at a time, so stolen seconds are
    seconds of the run lost."""

    def __init__(self, gap_s: float = 0.01):
        self.gap_s = gap_s
        self.samples: list[float] = []
        self._due = 0.0
        self._since = (time.perf_counter(), stolen_seconds())

    def sample(self, now: float) -> None:
        if now >= self._due:
            self.samples.append(probe())
            self._due = now + self.gap_s

    @contextlib.contextmanager
    def background(self):
        """Sample from a helper thread for the length of the block: for
        one long call into the program, which offers no gap to sample
        in.  The helper takes the GIL for a probe every ``gap_s``."""
        done = threading.Event()

        def run():
            while not done.wait(self.gap_s):
                self.samples.append(probe())
        helper = threading.Thread(target=run, name="e2e-speedometer")
        helper.start()
        try:
            yield
        finally:
            done.set()
            helper.join()

    def take(self) -> float:
        """Slowness since the last take, which starts the next stretch."""
        samples, self.samples = self.samples, []
        (then, stolen_then), self._since = self._since, (
            time.perf_counter(), stolen_seconds())
        wall = self._since[0] - then
        stolen = min(self._since[1] - stolen_then, 0.75 * wall)
        slowness = wall / (wall - stolen) if wall > 0 else 1.0
        if samples:
            slowness *= statistics.median(samples) / PROBE_REF_S
        return slowness
