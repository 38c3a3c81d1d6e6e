"""Tests for event mining: transactions, apriori, association rules."""

import pytest

from repro.core.mining import Rule, apriori, association_rules, window_baskets

from .conftest import HORIZON


def _event(ts, type_, source="n0"):
    return {"ts": ts, "type": type_, "source": source}


def _baskets(events, t0, t1, window_seconds, **kwargs):
    """:func:`window_baskets` over event rows."""
    return window_baskets([e["ts"] for e in events],
                          [e["source"] for e in events],
                          [e["type"] for e in events],
                          t0, t1, window_seconds, **kwargs)


class TestTransactions:
    def test_per_component_windows(self):
        events = [
            _event(1.0, "A", "n0"), _event(2.0, "B", "n0"),
            _event(1.5, "A", "n1"),
        ]
        tx = _baskets(events, 0.0, 10.0, 10.0)
        assert sorted(map(sorted, tx)) == [["A"], ["A", "B"]]

    def test_global_windows(self):
        events = [_event(1.0, "A", "n0"), _event(2.0, "B", "n1")]
        tx = _baskets(events, 0.0, 10.0, 10.0, per_component=False)
        assert tx == [frozenset({"A", "B"})]

    def test_window_boundaries(self):
        events = [_event(0.5, "A"), _event(1.5, "B")]
        tx = _baskets(events, 0.0, 2.0, 1.0)
        assert len(tx) == 2

    def test_out_of_range_excluded(self):
        tx = _baskets([_event(99.0, "A")], 0.0, 10.0, 1.0)
        assert tx == []

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            _baskets([], 0.0, 10.0, 0.0)


class TestApriori:
    TX = [
        frozenset({"A", "B"}),
        frozenset({"A", "B", "C"}),
        frozenset({"A", "C"}),
        frozenset({"B"}),
        frozenset({"A", "B"}),
    ]

    def test_singleton_supports(self):
        freq = apriori(self.TX, min_support=0.2)
        assert freq[frozenset({"A"})] == pytest.approx(0.8)
        assert freq[frozenset({"B"})] == pytest.approx(0.8)
        assert freq[frozenset({"C"})] == pytest.approx(0.4)

    def test_pair_supports(self):
        freq = apriori(self.TX, min_support=0.2)
        assert freq[frozenset({"A", "B"})] == pytest.approx(0.6)
        assert freq[frozenset({"A", "C"})] == pytest.approx(0.4)

    def test_min_support_prunes(self):
        freq = apriori(self.TX, min_support=0.5)
        assert frozenset({"A", "C"}) not in freq
        assert frozenset({"A", "B"}) in freq

    def test_triple(self):
        freq = apriori(self.TX, min_support=0.2)
        assert freq[frozenset({"A", "B", "C"})] == pytest.approx(0.2)

    def test_max_size_caps(self):
        freq = apriori(self.TX, min_support=0.1, max_size=1)
        assert all(len(s) == 1 for s in freq)

    def test_empty_and_validation(self):
        assert apriori([], 0.5) == {}
        with pytest.raises(ValueError):
            apriori(self.TX, 0.0)

    def test_downward_closure(self):
        freq = apriori(self.TX, min_support=0.2)
        for itemset in freq:
            for item in itemset:
                assert frozenset({item}) in freq


class TestAssociationRules:
    def test_confidence_and_lift(self):
        freq = apriori(TestApriori.TX, min_support=0.2)
        rules = association_rules(freq, min_confidence=0.5)
        by_pair = {
            (tuple(sorted(r.antecedent)), tuple(sorted(r.consequent))): r
            for r in rules
        }
        rule = by_pair[(("A",), ("B",))]
        assert rule.confidence == pytest.approx(0.6 / 0.8)
        assert rule.lift == pytest.approx((0.6 / 0.8) / 0.8)

    def test_min_confidence_filters(self):
        freq = apriori(TestApriori.TX, min_support=0.2)
        rules = association_rules(freq, min_confidence=0.99)
        assert all(r.confidence >= 0.99 for r in rules)

    def test_sorted_by_lift(self):
        freq = apriori(TestApriori.TX, min_support=0.2)
        rules = association_rules(freq, min_confidence=0.3)
        lifts = [r.lift for r in rules]
        assert lifts == sorted(lifts, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            association_rules({}, min_confidence=0.0)

    def test_rule_str(self):
        rule = Rule(frozenset({"A"}), frozenset({"B"}), 0.5, 0.8, 2.0)
        text = str(rule)
        assert "A => B" in text


class TestOnFramework:
    def test_cascade_rule_surfaces(self, fw):
        """DRAM_UE ⇒ KERNEL_PANIC should be a very high lift rule: the
        generator plants the cascade on the same node within seconds."""
        ctx = fw.context(0, HORIZON)
        rules = fw.association_rules(
            ctx, window_seconds=120.0, min_support=0.0005,
            min_confidence=0.3,
        )
        assert rules, "no rules found at all"
        cascade = [
            r for r in rules
            if "DRAM_UE" in r.antecedent and "KERNEL_PANIC" in r.consequent
        ]
        assert cascade
        assert cascade[0].lift > 20
