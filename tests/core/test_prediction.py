"""Tests for precursor mining and failure prediction (§IV/§V)."""

import pytest

from repro.core.prediction import (
    PrecursorPredictor,
    PrecursorRule,
    evaluate_predictor,
    mine_precursors,
)

from .conftest import HORIZON


def _row(ts, type_, source="n0"):
    return {"ts": ts, "type": type_, "source": source, "amount": 1}


class TestMining:
    def test_cascade_rules_mined(self, fw):
        ctx = fw.context(0, HORIZON)
        rules = fw.mine_precursors(ctx, lead_window=120.0, min_support=2)
        pairs = {(r.precursor, r.target) for r in rules}
        assert ("DRAM_UE", "KERNEL_PANIC") in pairs
        assert ("DRAM_UE", "HEARTBEAT_FAULT") in pairs
        by_pair = {(r.precursor, r.target): r for r in rules}
        rule = by_pair[("DRAM_UE", "KERNEL_PANIC")]
        assert rule.precision > 0.3
        assert rule.lift > 50

    def test_no_spurious_rules_from_background(self, fw):
        ctx = fw.context(0, HORIZON)
        rules = fw.mine_precursors(ctx, lead_window=120.0, min_support=2)
        # Background noise types must not predict fatal events.
        precursors = {r.precursor for r in rules}
        assert "NET_THROTTLE" not in precursors
        assert "SEGFAULT" not in precursors

    def test_rules_sorted_by_strength(self, fw):
        ctx = fw.context(0, HORIZON)
        rules = fw.mine_precursors(ctx, lead_window=120.0, min_support=2)
        strengths = [r.precision * r.lift for r in rules]
        assert strengths == sorted(strengths, reverse=True)

    def test_invalid_window(self, fw):
        with pytest.raises(ValueError):
            fw.mine_precursors(fw.context(0, HORIZON), lead_window=0)

    def test_rule_str(self):
        rule = PrecursorRule("A", "B", 60.0, 5, 0.8, 100.0)
        assert "A -> B" in str(rule)


class TestPredictor:
    RULE = PrecursorRule("DRAM_CE", "DRAM_UE", 60.0, 5, 0.5, 50.0)

    def test_observe_raises_warning(self):
        predictor = PrecursorPredictor([self.RULE])
        raised = predictor.observe(_row(10.0, "DRAM_CE", "nX"))
        assert len(raised) == 1
        w = raised[0]
        assert w.component == "nX"
        assert w.target == "DRAM_UE"
        assert w.valid_until == 70.0

    def test_unrelated_event_no_warning(self):
        predictor = PrecursorPredictor([self.RULE])
        assert predictor.observe(_row(10.0, "OOM")) == []

    def test_replay_accumulates(self):
        predictor = PrecursorPredictor([self.RULE])
        predictor.replay([_row(1.0, "DRAM_CE"), _row(2.0, "DRAM_CE")])
        assert len(predictor.warnings) == 2


class TestEvaluation:
    RULE = PrecursorRule("DRAM_CE", "DRAM_UE", 60.0, 5, 0.5, 50.0)

    def test_covered_failure_counts_tp_and_lead(self):
        events = [_row(10.0, "DRAM_CE"), _row(40.0, "DRAM_UE")]
        score = evaluate_predictor(PrecursorPredictor([self.RULE]), events)
        assert score.true_positives == 1
        assert score.false_negatives == 0
        assert score.recall == 1.0
        assert score.median_lead_time == pytest.approx(30.0)
        assert score.precision == 1.0

    def test_uncovered_failure_counts_fn(self):
        events = [_row(10.0, "DRAM_CE"), _row(200.0, "DRAM_UE")]
        score = evaluate_predictor(PrecursorPredictor([self.RULE]), events)
        assert score.true_positives == 0
        assert score.false_negatives == 1
        assert score.recall == 0.0

    def test_wrong_component_not_covered(self):
        events = [_row(10.0, "DRAM_CE", "n1"), _row(30.0, "DRAM_UE", "n2")]
        score = evaluate_predictor(PrecursorPredictor([self.RULE]), events)
        assert score.false_negatives == 1

    def test_useless_warning_hurts_precision(self):
        events = [
            _row(10.0, "DRAM_CE"),          # warning, no failure follows
            _row(500.0, "DRAM_CE"),         # warning, covered
            _row(520.0, "DRAM_UE"),
        ]
        score = evaluate_predictor(PrecursorPredictor([self.RULE]), events)
        assert score.raised_warnings == 2
        assert score.useful_warnings == 1
        assert score.precision == 0.5

    def test_out_of_scope_failures_ignored(self):
        """Failure types no rule predicts don't count against recall."""
        events = [_row(10.0, "GPU_OFF_BUS")]
        score = evaluate_predictor(PrecursorPredictor([self.RULE]), events)
        assert score.false_negatives == 0


class TestEndToEnd:
    def test_out_of_sample_prediction(self, fw, topo):
        """Train on one corpus, predict on a freshly generated one (a
        different seed = genuinely unseen operations)."""
        from repro.core import LogAnalyticsFramework
        from repro.genlog import LogGenerator

        train = fw.context(0, HORIZON)
        predictor = fw.build_predictor(train, lead_window=120.0,
                                       min_support=2)
        assert predictor.rules, "no rules mined from the training corpus"

        gen2 = LogGenerator(topo, seed=918, rate_multiplier=40,
                            cascade_prob=0.8, storms_per_day=0)
        fw2 = LogAnalyticsFramework(topo, db_nodes=2).setup()
        fw2.ingest_events(gen2.generate(24))
        score = fw2.evaluate_predictor(predictor,
                                       fw2.context(0, 24 * 3600))
        fw2.stop()
        assert score.true_positives + score.false_negatives > 0
        assert score.recall > 0.3
        assert score.precision > 0.3
        assert 0 < score.median_lead_time < 120.0
