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
* :func:`storm_keywords` — the Fig-7 workflow: take the raw messages of
  a window, score tokens, return the "word bubbles" (token, weight)
  list; the failing OST should rank at/near the top.  One sparklet
  stage folds ``(count, df)`` per token; summed TF-IDF is
  ``Σ_d tf(t, d)·idf(t) = count(t)·idf(t)``, so the driver scores from
  that fold alone.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparklet import SparkletContext

__all__ = ["tokenize", "top_terms", "storm_keywords"]

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


def _kept(raw: str) -> str:
    """The analysis token of one ``_TOKEN_RE`` match, ``""`` if dropped.

    Lowercases and drops stopwords, pure numbers (dotted ones too: IP
    addresses) and timestamps — the "properly filtered" step of §III-C.
    """
    token = raw.lower().strip(".-")
    # Post-strip length check keeps tokenization idempotent ("B." →
    # "b" would vanish on a second pass otherwise).
    if (len(token) < 2 or token in _STOPWORDS
            or _NUMERIC_RE.fullmatch(token)
            # Timestamps (2017-03-01T…) are line metadata, not content.
            or _TIMESTAMP_RE.match(token)):
        return ""
    return token


def tokenize(message: str) -> list[str]:
    """Split a raw log message into analysis tokens (see :func:`_kept`)."""
    return [t for t in map(_kept, _TOKEN_RE.findall(message)) if t]


class _KeptMemo(dict):
    """raw match → :func:`_kept` of it, filtered once per distinct raw."""

    def __missing__(self, raw: str) -> str:
        token = self[raw] = _kept(raw)
        return token


def _fold(side: int, messages: Iterable[str]) -> list[tuple]:
    """One task: ``count`` and ``df`` (messages holding it) per token,
    tagged with the corpus (``side``) the partition belongs to."""
    kept = _KeptMemo().__getitem__
    count: Counter[str] = Counter()
    df: Counter[str] = Counter()
    for message in messages:
        tokens = [t for t in map(kept, _TOKEN_RE.findall(message)) if t]
        count.update(tokens)
        df.update(set(tokens))
    return [(side, count, df)]


def top_terms(scores: dict[str, float], n: int = 10
              ) -> list[tuple[str, float]]:
    """The *n* highest-scoring terms (``n=0``: every term, as a zero
    ``limit`` or ``top`` is every row), ties broken alphabetically."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n or None]


def storm_keywords(sc: "SparkletContext", messages: Sequence[str],
                   n: int = 10, use_tf_idf: bool = True,
                   background: Sequence[str] | None = None
                   ) -> list[tuple[str, float]]:
    """The Fig-7 word bubbles: rank tokens of a window's raw messages.

    With ``use_tf_idf`` a token scores ``count·(log(N/(1+df))+1)`` —
    the sum of its per-message TF-IDF — so tokens that dominate many
    messages of the window (like the failing OST id) rise; with plain
    counts the result is the §III-C "simple word counts" variant.

    ``background`` (e.g. the same event type over a quiet period) makes
    the ranking *contrastive*: IDF is computed against the background
    corpus, so tokens common in normal operation are suppressed and
    window-specific identifiers — the failing OST — dominate.

    Every variant is one sparklet job of one stage: the window (and the
    background) folded per partition, the partials merged here.
    """
    if not messages:
        return []
    corpora = [messages, background] if background else [messages]
    totals = [(Counter(), Counter()) for _ in corpora]
    for side, count, df in sc.union([
            sc.parallelize(corpus).mapPartitions(partial(_fold, side))
            for side, corpus in enumerate(corpora)]).collect():
        totals[side][0].update(count)
        totals[side][1].update(df)
    (count, df), n_docs = totals[0], len(messages)
    if background:
        df, n_docs = totals[1][1], len(background)
    elif not use_tf_idf:
        return top_terms({t: float(c) for t, c in count.items()}, n)
    return top_terms({
        token: c * (math.log(n_docs / (1.0 + df[token])) + 1.0)
        for token, c in count.items()
    }, n)
