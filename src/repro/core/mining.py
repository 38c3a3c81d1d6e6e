"""Event mining: co-occurrence transactions and association rules.

§II-A lists association rules among the techniques the data model is
meant to support, and §V plans "event mining techniques rather than
text pattern matching".  This module supplies the standard pipeline:

1. :func:`window_baskets` — slice a context's events into fixed-width
   windows (optionally per component) and form the set of event types
   seen in each: the transaction database;
2. :func:`apriori` — frequent itemsets by level-wise search;
3. :func:`association_rules` — rules ``antecedent ⇒ consequent`` with
   support, confidence and lift.

On generator data the injected cascade (DRAM_UE → KERNEL_PANIC →
HEARTBEAT_FAULT) surfaces as high-lift rules, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context
    from .model import LogDataModel

__all__ = ["window_baskets", "apriori", "association_rules", "Rule"]


def window_baskets(stamps: Iterable[float], sources: Iterable[str],
                   types: Iterable[str], t0: float, t1: float,
                   window_seconds: float, per_component: bool = True
                   ) -> list[frozenset[str]]:
    """Aligned ``ts``/``source``/``type`` columns → transactions (sets
    of event types per window).

    ``per_component`` scopes windows to a single component — the right
    granularity for cause/effect on one node; global windows capture
    system-wide co-occurrence instead.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    baskets: dict[tuple, set[str]] = {}
    for ts, source, etype in zip(stamps, sources, types):
        if not (t0 <= ts < t1):
            continue
        window = int((ts - t0) // window_seconds)
        key = (window, source) if per_component else (window,)
        baskets.setdefault(key, set()).add(etype)
    return [frozenset(types) for types in baskets.values()]


def apriori(transactions: Sequence[frozenset[str]], min_support: float,
            max_size: int = 3) -> dict[frozenset[str], float]:
    """Frequent itemsets with support ≥ ``min_support`` (fraction).

    Classic level-wise algorithm: candidates of size k are joins of
    frequent (k-1)-itemsets, pruned by the downward-closure property.
    """
    if not (0.0 < min_support <= 1.0):
        raise ValueError("min_support must be in (0, 1]")
    n = len(transactions)
    if n == 0:
        return {}
    # Level 1.
    counts: dict[frozenset[str], int] = {}
    for basket in transactions:
        for item in basket:
            key = frozenset((item,))
            counts[key] = counts.get(key, 0) + 1
    frequent: dict[frozenset[str], float] = {
        itemset: count / n
        for itemset, count in counts.items()
        if count / n >= min_support
    }
    current = [s for s in frequent if len(s) == 1]
    size = 2
    while current and size <= max_size:
        items = sorted({item for s in current for item in s})
        candidates = [
            frozenset(combo) for combo in combinations(items, size)
            if all(frozenset(sub) in frequent
                   for sub in combinations(combo, size - 1))
        ]
        if not candidates:
            break
        level_counts = {c: 0 for c in candidates}
        for basket in transactions:
            for candidate in candidates:
                if candidate <= basket:
                    level_counts[candidate] += 1
        current = []
        for candidate, count in level_counts.items():
            support = count / n
            if support >= min_support:
                frequent[candidate] = support
                current.append(candidate)
        size += 1
    return frequent


@dataclass(frozen=True, slots=True)
class Rule:
    """An association rule ``antecedent ⇒ consequent``."""

    antecedent: frozenset[str]
    consequent: frozenset[str]
    support: float      # P(A ∪ C)
    confidence: float   # P(C | A)
    lift: float         # confidence / P(C)

    def __str__(self) -> str:  # pragma: no cover - display helper
        lhs = " + ".join(sorted(self.antecedent))
        rhs = " + ".join(sorted(self.consequent))
        return (f"{lhs} => {rhs} "
                f"(sup={self.support:.3f}, conf={self.confidence:.2f}, "
                f"lift={self.lift:.1f})")


def association_rules(frequent: dict[frozenset[str], float],
                      min_confidence: float = 0.5) -> list[Rule]:
    """Derive rules from frequent itemsets, sorted by descending lift."""
    if not (0.0 < min_confidence <= 1.0):
        raise ValueError("min_confidence must be in (0, 1]")
    rules: list[Rule] = []
    for itemset, support in frequent.items():
        if len(itemset) < 2:
            continue
        for r in range(1, len(itemset)):
            for antecedent in map(frozenset, combinations(sorted(itemset), r)):
                consequent = itemset - antecedent
                sup_a = frequent.get(antecedent)
                sup_c = frequent.get(consequent)
                if not sup_a or not sup_c:
                    continue
                confidence = support / sup_a
                if confidence >= min_confidence:
                    rules.append(Rule(
                        antecedent=antecedent,
                        consequent=consequent,
                        support=support,
                        confidence=confidence,
                        lift=confidence / sup_c,
                    ))
    rules.sort(key=lambda rule: (-rule.lift, -rule.confidence,
                                 sorted(rule.antecedent)))
    return rules
