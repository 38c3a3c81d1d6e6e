"""Tests for tokenizing and storm keywords (Fig 7): word counts, TF-IDF
and background contrast, each one sparklet stage."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import storm_keywords
from repro.core.textmining import tokenize, top_terms
from repro.genlog.templates import render_line
from repro.sparklet import SparkletContext

from tests.oracle import textmining as oracle

MODES = ("tf_idf", "counts", "background")


def _kwargs(mode, background):
    """storm_keywords' keyword arguments for one mode."""
    return {"tf_idf": {}, "counts": {"use_tf_idf": False},
            "background": {"background": background}}[mode]


@pytest.fixture(scope="module")
def sc():
    ctx = SparkletContext(2)
    yield ctx
    ctx.stop()


class TestTokenize:
    def test_keeps_identifiers(self):
        tokens = tokenize("LustreError: o400->atlas-OST0042@10.1.2.3@o2ib")
        assert "atlas-ost0042" in tokens

    def test_drops_stopwords_and_plumbing(self):
        tokens = tokenize(
            "LustreError: 11:0:(client.c:1123:ptlrpc_expire_one_request())"
        )
        assert "client.c" not in tokens
        assert "lustreerror" not in tokens

    def test_drops_numbers_and_ips(self):
        tokens = tokenize("error 4 at 10.36.226.77 code 1234")
        assert "4" not in tokens
        assert "10.36.226.77" not in tokens
        assert "code" in tokens

    def test_lowercases(self):
        assert tokenize("Machine Check")[0] == "machine"

    def test_hex_tokens_survive(self):
        tokens = tokenize("MISC 0xd012000100000000 Bank 4")
        assert "0xd012000100000000" in tokens

    def test_empty(self):
        assert tokenize("") == []


class TestWordCount:
    def test_counts(self, sc):
        messages = ["disk failure imminent", "disk ok", "failure disk"]
        counts = dict(storm_keywords(sc, messages, 10, use_tf_idf=False))
        assert counts["disk"] == 3
        assert counts["failure"] == 2
        assert counts["ok"] == 1

    def test_empty_corpus(self, sc):
        assert storm_keywords(sc, [], 10, use_tf_idf=False) == []


class TestTfIdf:
    def test_rare_terms_weighted_higher(self, sc):
        # Both occur twice; "rare" in one message, "common" in two.
        docs = ["rare rare", "common filler", "common filler"] + \
            ["filler"] * 7
        scores = dict(storm_keywords(sc, docs, 10))
        assert scores["rare"] > scores["common"]

    def test_term_frequency_scales(self, sc):
        docs = ["dup dup dup solo", "other words"]
        scores = dict(storm_keywords(sc, docs, 10))
        assert scores["dup"] == pytest.approx(3 * scores["solo"])

    def test_empty(self, sc):
        assert storm_keywords(sc, []) == []


# Generated messages: log-ish words (identifiers, numbers, IPs,
# timestamps, stopwords, trailing dots) and free text over the token
# alphabet's edges.
_WORDS = st.sampled_from([
    "atlas-OST0042@10.36.226.77@o2ib", "OST01dc", "Machine", "Check",
    "error", "LustreError:", "10.36.226.77", "1234", "2017-03-01T00:00:00",
    "0xd012000100000000", "B.", "-.x", "dup", "a", "x1551", "disk",
    "failure", "Disk", "(client.c:1123:ptlrpc_expire_one_request())",
])
_GENERATED = (st.lists(_WORDS, max_size=10).map(" ".join)
              | st.text(alphabet="aAbZ09._- @:", max_size=30))


class TestAgainstTwoPassReference:
    """The one-stage fold ranks and scores as the two-pass reference
    does, over generated messages and rendered Lustre and MCE console
    lines, with 1 and 3 partitions per corpus."""

    @pytest.fixture(scope="class")
    def corpus(self, events):
        lines = [render_line(e) for e in events
                 if e.type in ("LUSTRE_ERR", "MCE")]
        assert len(lines) > 300
        # Whole lines (timestamp and component included) and the
        # retained message part, as the data model stores it.
        return lines[:150] + [l.split(": ", 1)[-1] for l in lines[150:450]]

    @pytest.fixture(scope="class")
    def contexts(self):
        ctxs = {parts: SparkletContext(2, default_parallelism=parts)
                for parts in (1, 3)}
        yield ctxs
        for ctx in ctxs.values():
            ctx.stop()

    def test_tokenize(self, corpus):
        for line in corpus:
            assert tokenize(line) == oracle.tokenize(line)

    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_storm_keywords(self, contexts, corpus, mode, data):
        message = st.sampled_from(corpus) | _GENERATED
        window = data.draw(st.lists(message, min_size=1, max_size=80))
        quiet = data.draw(st.lists(message, min_size=1, max_size=80))
        n = data.draw(st.integers(1, 30))
        kwargs = _kwargs(mode, quiet)
        want = oracle.top_terms(oracle.keyword_scores(window, **kwargs), n)
        for ctx in contexts.values():
            got = storm_keywords(ctx, window, n, **kwargs)
            assert [t for t, _ in got] == [t for t, _ in want]
            for (_, score), (_, want_score) in zip(got, want):
                assert math.isclose(score, want_score, rel_tol=1e-9)
            assert got == sorted(got, key=lambda kv: (-kv[1], kv[0]))


class TestKeywordsIsOneStage:
    """One storm_keywords call moves the engine's job and stage counts
    (the sparklet.jobs and sparklet.stages counters) by exactly one
    each, in every mode: the window and the background are folded in
    the same narrow stage, with no shuffle."""

    @pytest.mark.parametrize("mode", MODES)
    def test_one_job_one_stage(self, mode):
        messages = ["atlas-OST0042 not responding", "disk ok", "OST0042"]
        with SparkletContext(2) as ctx:
            storm_keywords(ctx, messages, 5,
                           **_kwargs(mode, ["disk ok", "all quiet"]))
            assert (ctx.metrics.jobs, ctx.metrics.stages) == (1, 1)


class TestTopTerms:
    def test_ordering_and_ties(self):
        scores = {"b": 2.0, "a": 2.0, "c": 5.0}
        assert top_terms(scores, 3) == [("c", 5.0), ("a", 2.0), ("b", 2.0)]

    def test_limit(self):
        scores = {str(i): float(i) for i in range(20)}
        assert len(top_terms(scores, 5)) == 5


class TestStormKeywords:
    def test_identifies_failing_ost(self, fw, generator):
        """Fig 7 bottom: the word bubbles of a Lustre storm window must
        surface the failing OST as the dominant term."""
        storm = generator.ground_truth.storms[0]
        ctx = fw.context(storm.start, storm.start + storm.duration,
                         event_types=("LUSTRE_ERR",))
        terms = fw.keywords(ctx, n=5)
        assert terms[0][0] == storm.ost.lower()

    def test_word_count_variant_agrees(self, fw, generator):
        storm = generator.ground_truth.storms[0]
        ctx = fw.context(storm.start, storm.start + storm.duration,
                         event_types=("LUSTRE_ERR",))
        terms = fw.keywords(ctx, n=5, use_tf_idf=False)
        assert terms[0][0] == storm.ost.lower()

    def test_background_contrast(self, fw, generator, sc):
        storm = generator.ground_truth.storms[0]
        ctx = fw.context(storm.start, storm.start + storm.duration,
                         event_types=("LUSTRE_ERR",))
        quiet = fw.context(0.0, storm.start,
                           event_types=("LUSTRE_ERR",))
        terms = storm_keywords(
            sc, fw.raw_messages(ctx), n=5,
            background=fw.raw_messages(quiet),
        )
        assert terms[0][0] == storm.ost.lower()

    def test_empty_messages(self, sc):
        assert storm_keywords(sc, [], 5) == []
