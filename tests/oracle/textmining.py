"""Two-pass reference for the Fig-7 word bubbles.

Every message is tokenized in each pass, TF-IDF is one vector per
message and a token's score is the sum of its vectors' entries: slow
and obvious.  The filter is spelled out here again, so a change to the
tokenizer's stopwords or patterns shows up as a disagreement.
"""

import math
import re
from collections import Counter

_TOKEN_RE = re.compile(r"[A-Za-z0-9_.\-]{2,}")
_STOPWORDS = frozenset({
    "the", "of", "to", "on", "in", "for", "has", "have", "is", "at", "or",
    "and", "a", "an", "with", "from", "not", "no", "by",
    "lustreerror", "error", "console", "network", "application",
    "req", "rc", "sent", "request", "timed", "out",
    "client.c", "ptlrpc_expire_one_request", "o400", "o2ib", "t0",
    "x1551", "ffff8803",
})


def tokenize(message):
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


def tf_idf(documents):
    """Two plain passes over the corpus, tokenizing in each."""
    df = Counter()
    for doc in documents:
        df.update(set(tokenize(doc)))
    idf = {token: math.log(len(documents) / (1.0 + count)) + 1.0
           for token, count in df.items()}
    vectors = []
    for doc in documents:
        tokens = tokenize(doc)
        vectors.append({t: tokens.count(t) * idf[t] for t in set(tokens)})
    return vectors


def keyword_scores(messages, use_tf_idf=True, background=None):
    """Every token's score: counts, summed TF-IDF vectors, or counts
    weighted by the background corpus's IDF."""
    counts = Counter(t for m in messages for t in tokenize(m))
    if background:
        bg_df = Counter()
        for doc in background:
            bg_df.update(set(tokenize(doc)))
        return {t: c * (math.log(len(background) / (1.0 + bg_df[t])) + 1.0)
                for t, c in counts.items()}
    if not use_tf_idf:
        return {t: float(c) for t, c in counts.items()}
    scores = {}
    for vector in tf_idf(messages):
        for token, score in vector.items():
            scores[token] = scores.get(token, 0.0) + score
    return scores


def top_terms(scores, n, rel_tol=1e-9):
    """The top ``n`` by score, ties alphabetical.  Scores within
    ``rel_tol`` of each other count as tied: a sum of per-message
    vectors carries float noise an exact tie does not."""
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    groups = []
    for kv in ranked:
        if groups and math.isclose(groups[-1][0][1], kv[1], rel_tol=rel_tol):
            groups[-1].append(kv)
        else:
            groups.append([kv])
    return [kv for group in groups for kv in sorted(group)][:n]
