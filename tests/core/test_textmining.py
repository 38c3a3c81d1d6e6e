"""Tests for tokenizing, word count, TF-IDF and storm keywords (Fig 7)."""

import math
import re
from collections import Counter

import pytest

from repro.core import storm_keywords, tf_idf, tokenize, top_terms, word_count
from repro.core.textmining import _STOPWORDS, _TOKEN_RE
from repro.genlog.templates import render_line
from repro.sparklet import SparkletContext

from .conftest import HORIZON


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

    def test_keep_numbers_flag(self):
        assert "1234" in tokenize("code 1234", keep_numbers=True)

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
        counts = word_count(sc, messages)
        assert counts["disk"] == 3
        assert counts["failure"] == 2
        assert counts["ok"] == 1

    def test_empty_corpus(self, sc):
        assert word_count(sc, []) == {}


class TestTfIdf:
    def test_shape(self, sc):
        docs = ["alpha beta", "alpha gamma", "alpha beta beta"]
        vectors = tf_idf(sc, docs)
        assert len(vectors) == 3
        assert set(vectors[0]) == {"alpha", "beta"}

    def test_rare_terms_weighted_higher(self, sc):
        docs = ["common rare"] + ["common filler"] * 9
        vectors = tf_idf(sc, docs)
        assert vectors[0]["rare"] > vectors[0]["common"]

    def test_term_frequency_scales(self, sc):
        docs = ["dup dup dup solo", "other words"]
        vectors = tf_idf(sc, docs)
        assert vectors[0]["dup"] == pytest.approx(3 * vectors[0]["solo"])

    def test_empty(self, sc):
        assert tf_idf(sc, []) == []


def _reference_tokenize(message):
    tokens = []
    for raw in _TOKEN_RE.findall(message):
        token = raw.lower().strip(".-")
        if len(token) < 2 or token in _STOPWORDS:
            continue
        if re.fullmatch(r"[\d.]+", token):
            continue
        if re.match(r"^\d{4}-\d{2}-\d{2}t", token):
            continue
        tokens.append(token)
    return tokens


def _reference_tf_idf(documents):
    """Two plain passes over the corpus, tokenizing in each."""
    df = Counter()
    for doc in documents:
        df.update(set(_reference_tokenize(doc)))
    idf = {token: math.log(len(documents) / (1.0 + count)) + 1.0
           for token, count in df.items()}
    vectors = []
    for doc in documents:
        tokens = _reference_tokenize(doc)
        vectors.append({t: tokens.count(t) * idf[t] for t in set(tokens)})
    return vectors


def _reference_keywords(messages, n, use_tf_idf=True, background=None):
    counts = Counter(t for m in messages for t in _reference_tokenize(m))
    if background:
        bg_df = Counter()
        for doc in background:
            bg_df.update(set(_reference_tokenize(doc)))
        scores = {t: c * (math.log(len(background) / (1.0 + bg_df[t])) + 1.0)
                  for t, c in counts.items()}
    elif not use_tf_idf:
        scores = {t: float(c) for t, c in counts.items()}
    else:
        scores = {}
        for vector in _reference_tf_idf(messages):
            for token, score in vector.items():
                scores[token] = scores.get(token, 0.0) + score
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


class TestAgainstTwoPassReference:
    """Vectors, scores and ranking bit for bit those of the plain
    reference, over generated Lustre and MCE console lines."""

    @pytest.fixture(scope="class")
    def corpus(self, events):
        lines = [render_line(e) for e in events
                 if e.type in ("LUSTRE_ERR", "MCE")]
        assert len(lines) > 300
        # Whole lines (timestamp and component included) and the
        # retained message part, as the data model stores it.
        return lines[:150] + [l.split(": ", 1)[-1] for l in lines[150:450]]

    def test_tokenize(self, corpus):
        for line in corpus:
            assert tokenize(line) == _reference_tokenize(line)

    def test_tf_idf_vectors(self, sc, corpus):
        assert tf_idf(sc, corpus) == _reference_tf_idf(corpus)
        assert tf_idf(sc, corpus, 3) == _reference_tf_idf(corpus)

    @pytest.mark.parametrize("mode", ["tf_idf", "counts", "background"])
    def test_storm_keywords(self, sc, corpus, mode):
        window, quiet = corpus[:200], corpus[200:]
        kwargs = {"tf_idf": {}, "counts": {"use_tf_idf": False},
                  "background": {"background": quiet}}[mode]
        got = storm_keywords(sc, window, 25, **kwargs)
        assert got == _reference_keywords(window, 25, **kwargs)
        assert len(got) == 25


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
