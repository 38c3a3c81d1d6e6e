"""F7b — Fig 7 (bottom): word bubbles from a Lustre storm's raw logs.

Regenerates the text-analytics result: "a simple word counts, which is
rapidly executed by Spark, can locate the source of the problem …
an object storage target is not responding."  The injected storm's OST
must be the top-ranked term by simple counts, by TF-IDF, and by
background-contrast scoring; throughput of the one-stage keywords job
is benchmarked at storm scale.
"""

import pytest

from repro.core import storm_keywords

from conftest import HORIZON, report


@pytest.fixture(scope="module")
def storm(generator):
    return generator.ground_truth.storms[0]


@pytest.fixture(scope="module")
def storm_messages(fw, storm):
    ctx = fw.context(storm.start, storm.start + storm.duration,
                     event_types=("LUSTRE_ERR",))
    return fw.raw_messages(ctx)


class TestOstIdentification:
    def test_word_count_locates_ost(self, benchmark, fw, storm,
                                    storm_messages):
        terms = benchmark(
            lambda: storm_keywords(fw.sc, storm_messages, n=5,
                                   use_tf_idf=False))
        report("Fig 7 (bottom): top words (simple counts)",
               [("term", "count")] + [(t, f"{s:.0f}") for t, s in terms])
        assert terms[0][0] == storm.ost.lower()

    def test_tf_idf_locates_ost(self, benchmark, fw, storm, storm_messages):
        terms = benchmark.pedantic(
            lambda: storm_keywords(fw.sc, storm_messages, n=5,
                                   use_tf_idf=True),
            rounds=3, iterations=1,
        )
        assert terms[0][0] == storm.ost.lower()

    def test_background_contrast_locates_ost(self, benchmark, fw, storm,
                                             storm_messages):
        quiet = fw.context(0.0, storm.start, event_types=("LUSTRE_ERR",))
        background = fw.raw_messages(quiet)
        terms = benchmark.pedantic(
            lambda: storm_keywords(fw.sc, storm_messages, n=5,
                                   background=background),
            rounds=3, iterations=1,
        )
        assert terms[0][0] == storm.ost.lower()
        # Contrastive scoring must separate the OST further from rank 2
        # than plain counts do.
        plain = storm_keywords(fw.sc, storm_messages, n=2,
                               use_tf_idf=False)
        if len(terms) > 1 and len(plain) > 1:
            contrast_gap = terms[0][1] / max(terms[1][1], 1e-9)
            plain_gap = plain[0][1] / max(plain[1][1], 1e-9)
            report("Fig 7 (bottom): OST separation (rank1/rank2 score)", [
                ("scoring", "separation"),
                ("simple counts", f"{plain_gap:.1f}x"),
                ("background contrast", f"{contrast_gap:.1f}x"),
            ])


class TestThroughput:
    def test_word_count_throughput(self, benchmark, fw, storm_messages):
        """Messages/second through the engine word count — the "rapidly
        executed by Spark" claim, at storm scale."""
        corpus = storm_messages * max(1, 5000 // max(1, len(storm_messages)))

        terms = benchmark.pedantic(
            lambda: storm_keywords(fw.sc, corpus, n=1_000_000,
                                   use_tf_idf=False),
            rounds=3, iterations=1)
        assert terms
        report("Fig 7 (bottom): word-count corpus", [
            ("messages", len(corpus)),
            ("distinct terms", len(terms)),
        ])

    def test_tf_idf_throughput(self, benchmark, fw, storm_messages):
        corpus = storm_messages[:1000]
        terms = benchmark.pedantic(
            lambda: storm_keywords(fw.sc, corpus, n=10), rounds=3,
            iterations=1)
        assert terms
