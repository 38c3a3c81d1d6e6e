"""Text analytics over raw log messages (paper §III-C, Fig 7 bottom).

"Once properly filtered, each Lustre event message can be transformed
into a set of words … Such transformations typically involve word
counts and/or term frequency-inverse document frequency (TF-IDF) of log
messages.  Note here a Lustre message is treated as a document. …  We
found that a simple word counts, which is rapidly executed by Spark,
can locate the source of the problem."

Pieces:

* a tokenizer that keeps the tokens that matter in system logs
  (identifiers like ``atlas-OST0042``, hex codes, error codes) and
  drops log boilerplate;
* engine-parallel ``word_count`` and ``tf_idf`` over message corpora;
* :func:`storm_keywords` — the Fig-7 workflow: take the raw messages of
  a window, score tokens, return the "word bubbles" (token, weight)
  list; the failing OST should rank at/near the top.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparklet import SparkletContext

__all__ = ["tokenize", "word_count", "tf_idf", "top_terms", "storm_keywords"]

# '@' intentionally splits tokens: Lustre targets like
# ``atlas-OST01dc@10.36.226.77@o2ib`` must yield the OST id on its own.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_.\-]{2,}")
_NUMERIC_RE = re.compile(r"[\d.]+")
_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}t")

# Boilerplate present in virtually every line of a given log family —
# stopwords for system-log text mining (the "properly filtered" step of
# §III-C: RPC plumbing tokens carry no diagnostic signal).
_STOPWORDS = frozenset({
    "the", "of", "to", "on", "in", "for", "has", "have", "is", "at", "or",
    "and", "a", "an", "with", "from", "not", "no", "by",
    "lustreerror", "error", "console", "network", "application",
    "req", "rc", "sent", "request", "timed", "out",
    # Lustre RPC plumbing (identical in every client timeout line):
    "client.c", "ptlrpc_expire_one_request", "o400", "o2ib", "t0",
    "x1551", "ffff8803",
})


def tokenize(message: str, keep_numbers: bool = False) -> list[str]:
    """Split a raw log message into analysis tokens.

    Lowercases, keeps identifier-ish tokens (letters, digits, ``_ @ . -``),
    drops stopwords, timestamps, and (by default) pure numbers — the
    "properly filtered" step of §III-C.
    """
    tokens = []
    for raw in _TOKEN_RE.findall(message):
        token = raw.lower().strip(".-")
        # Post-strip length check keeps tokenization idempotent ("B." →
        # "b" would vanish on a second pass otherwise).
        if len(token) < 2 or token in _STOPWORDS:
            continue
        if not keep_numbers and _NUMERIC_RE.fullmatch(token):
            continue  # plain numbers and dotted numerics (IP addresses)
        # Timestamps (2017-03-01T…) are line metadata, not content.
        if _TIMESTAMP_RE.match(token):
            continue
        tokens.append(token)
    return tokens


def word_count(sc: "SparkletContext", messages: Iterable[str],
               num_partitions: int | None = None) -> dict[str, int]:
    """Parallel token counts over a message corpus."""
    return dict(
        sc.parallelize(messages, num_partitions)
        .flatMap(tokenize)
        .map(lambda token: (token, 1))
        .reduceByKey(lambda a, b: a + b)
        .collect()
    )


def tf_idf(sc: "SparkletContext", documents: Sequence[str],
           num_partitions: int | None = None) -> list[dict[str, float]]:
    """TF-IDF vectors, one dict per document (message == document).

    ``tf`` is raw term frequency within a document; ``idf`` is the
    smoothed ``log(N / (1 + df)) + 1``.
    """
    n_docs = len(documents)
    if n_docs == 0:
        return []
    # Tokenized once; both passes below read the cached token lists.
    docs = (sc.parallelize(list(enumerate(documents)), num_partitions)
            .map(lambda kv: (kv[0], tokenize(kv[1]))).cache())
    # Document frequency per token.
    df = dict(
        docs.flatMap(lambda kv: {(t, 1) for t in set(kv[1])})
        .reduceByKey(lambda a, b: a + b)
        .collect()
    )
    idf = {
        token: math.log(n_docs / (1.0 + count)) + 1.0
        for token, count in df.items()
    }
    vectors = (
        docs.map(lambda kv: (kv[0], {
            token: kv[1].count(token) * idf[token]
            for token in set(kv[1])
        }))
        .collect()
    )
    out: list[dict[str, float]] = [{} for _ in range(n_docs)]
    for index, vector in vectors:
        out[index] = vector
    return out


def top_terms(scores: dict[str, float], n: int = 10
              ) -> list[tuple[str, float]]:
    """Highest-scoring terms, ties broken alphabetically."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def storm_keywords(sc: "SparkletContext", messages: Sequence[str],
                   n: int = 10, use_tf_idf: bool = True,
                   background: Sequence[str] | None = None
                   ) -> list[tuple[str, float]]:
    """The Fig-7 word bubbles: rank tokens of a window's raw messages.

    With ``use_tf_idf`` the per-document vectors are summed — tokens
    that dominate many messages of the window (like the failing OST id)
    rise; with plain counts the result is the §III-C "simple word
    counts" variant.

    ``background`` (e.g. the same event type over a quiet period) makes
    the ranking *contrastive*: IDF is computed against the background
    corpus, so tokens common in normal operation are suppressed and
    window-specific identifiers — the failing OST — dominate.
    """
    if not messages:
        return []
    if background:
        counts = word_count(sc, messages)
        bg_df: dict[str, int] = {}
        for doc in background:
            for token in set(tokenize(doc)):
                bg_df[token] = bg_df.get(token, 0) + 1
        n_bg = len(background)
        scores = {
            token: count * (math.log(n_bg / (1.0 + bg_df.get(token, 0))) + 1.0)
            for token, count in counts.items()
        }
        return top_terms(scores, n)
    if not use_tf_idf:
        counts = word_count(sc, messages)
        return top_terms({t: float(c) for t, c in counts.items()}, n)
    totals: dict[str, float] = {}
    for vector in tf_idf(sc, messages):
        for token, score in vector.items():
            totals[token] = totals.get(token, 0.0) + score
    return top_terms(totals, n)
