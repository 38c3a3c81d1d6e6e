"""Coordinator resilience policies: retry, backoff, circuit breaking.

Cassandra drivers never give up after one coordinator error — they
retry with exponential backoff and jitter, hedge slow replica reads
with speculative duplicates, and stop routing to hosts that keep
failing.  This module holds those policies for the simulated cluster:

* :class:`RetryPolicy` — how many attempts a coordinated read/write
  gets, the backoff curve between them, the per-operation time budget,
  and the speculative-read threshold.  Jitter is drawn from an RNG the
  cluster seeds with a constant, so a retry schedule is reproducible.
* :class:`CircuitBreaker` — per-replica CLOSED → OPEN → HALF_OPEN state
  machine: after ``failure_threshold`` consecutive failures the breaker
  opens and the coordinator stops *preferring* that replica for reads;
  after ``cooldown_s`` one probe is allowed through (HALF_OPEN) and a
  success closes it again.

Every cluster runs under a policy — ``RetryPolicy()`` unless it is
given another — and holds one breaker per replica.
``RetryPolicy(max_attempts=1)`` is how a caller says "no retry".
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

__all__ = ["RetryPolicy", "CircuitBreaker", "BreakerState"]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the hardened coordinator.

    Parameters
    ----------
    max_attempts:
        Total tries per coordinated operation (1 = no retry).
    base_delay_ms / max_delay_ms:
        Exponential backoff curve: attempt *n* sleeps
        ``min(max_delay_ms, base_delay_ms * 2**n)`` scaled by jitter.
    jitter:
        Fraction of each delay randomized (0 = deterministic delays,
        0.5 = each delay drawn from [75%, 125%] of nominal).
    request_timeout_ms:
        Per-operation budget: no retry starts after this much wall time
        has elapsed since the first attempt.
    speculative_threshold_ms:
        On QUORUM/ALL reads, replicas that have not answered within
        this window get a duplicate (hedged) read on a spare replica.
    breaker_failures / breaker_cooldown_s:
        Circuit-breaker tuning (see :class:`CircuitBreaker`): the
        consecutive failures that open a replica's breaker (>= 1), and
        how long it stays open before a probe.
    """

    max_attempts: int = 4
    base_delay_ms: float = 2.0
    max_delay_ms: float = 50.0
    jitter: float = 0.5
    request_timeout_ms: float = 2_000.0
    speculative_threshold_ms: float = 10.0
    breaker_failures: int = 3
    breaker_cooldown_s: float = 0.05

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")

    def delay_ms(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry *attempt* (1-based: first retry is 1)."""
        nominal = min(self.max_delay_ms,
                      self.base_delay_ms * (2.0 ** (attempt - 1)))
        if not self.jitter:
            return nominal
        spread = self.jitter * nominal
        return nominal - spread / 2.0 + rng.random() * spread


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Per-replica failure gate (CLOSED → OPEN → HALF_OPEN → CLOSED).

    ``allow()`` answers "should the coordinator route a read here?":
    True while CLOSED; False while OPEN (inside the cooldown); exactly
    one True per cooldown expiry (the HALF_OPEN probe).  Writes are not
    gated — every replica must still receive its copy or a hint — but
    their outcomes feed the same state machine.
    """

    failure_threshold: int = 3
    cooldown_s: float = 0.05
    clock: "object" = time.monotonic
    state: str = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0
    opens: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def allow(self) -> bool:
        with self._lock:
            if self.state == BreakerState.CLOSED:
                return True
            if self.state == BreakerState.OPEN:
                if self.clock() - self.opened_at >= self.cooldown_s:
                    self.state = BreakerState.HALF_OPEN
                    return True  # the probe
                return False
            return False  # HALF_OPEN: probe already in flight

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self.state = BreakerState.CLOSED

    def record_failure(self) -> bool:
        """Record a failed replica op; True when this opened the breaker."""
        with self._lock:
            self.consecutive_failures += 1
            if (self.state == BreakerState.HALF_OPEN
                    or self.consecutive_failures >= self.failure_threshold):
                opened = self.state != BreakerState.OPEN
                if opened:
                    self.opens += 1
                self.state = BreakerState.OPEN
                self.opened_at = self.clock()
                self.consecutive_failures = 0
                return opened
            return False
