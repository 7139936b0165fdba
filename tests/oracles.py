"""Independent brute-force reference implementations.

Everything here is deliberately written with plain dicts, lists, and
``math`` arithmetic — no numpy, no scipy, and nothing imported from the
package under test — so a library bug cannot hide inside a shared
dependency. The implementations favor obviousness over speed.

Two exceptions use numpy and scipy, because the library must equal them
bit for bit, not within a tolerance: :func:`tfidf_per_document`, the earlier
one-row-at-a-time construction of ``vectorize``, and :func:`fit_from_counts`
with :func:`predict_from_counts`, the earlier construction of an experiment
round from integer counts.
"""

from __future__ import annotations

import heapq
import math
import unicodedata
from collections import Counter
from itertools import product

import numpy as np
import scipy.sparse as sp

# ---------------------------------------------------------------------------
# tf-idf


def vocabulary(docs):
    """Sorted word list and document frequencies over tokenized docs."""
    df = {}
    for tokens in docs:
        for word in set(tokens):
            df[word] = df.get(word, 0) + 1
    return sorted(df), df


def tfidf_row(tokens, words, df, n_docs):
    """One L2-normalized tf-idf row, evaluated word by word.

    The term frequency divides by the full token count of the document
    (tokens outside ``words`` still count toward the length; the division
    cancels under normalization but matters for the raw weights).
    """
    length = len(tokens)
    counts = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    raw = []
    for word in words:
        count = counts.get(word, 0)
        if count == 0:
            raw.append(0.0)
        else:
            idf = 1.0 + math.log(n_docs / df[word])
            raw.append((count / length) * idf)
    norm = math.sqrt(sum(v * v for v in raw))
    if norm == 0.0:
        return raw
    return [v / norm for v in raw]


def tfidf_rows(docs):
    """Rows for a training corpus whose vocabulary comes from the docs.

    Returns (rows, words, df) so callers can vectorize further documents
    against the same vocabulary via :func:`tfidf_row`.
    """
    words, df = vocabulary(docs)
    rows = [tfidf_row(tokens, words, df, len(docs)) for tokens in docs]
    return rows, words, df


def tfidf_per_document(token_lists, vocab):
    """The CSR matrix ``vectorize`` builds, made the earlier way: idf
    recomputed from ``vocab.df``, one 1-row matrix per document through the
    COO constructor, then ``sp.vstack``. Returns (matrix, empty_rows)."""
    idf = 1.0 + np.log(vocab.n_docs / np.asarray(vocab.df, dtype=float))
    rows = []
    for tokens in token_lists:
        counts = Counter(t for t in tokens if t in vocab.index)
        if not counts:
            rows.append(sp.csr_matrix((1, len(vocab.words))))
            continue
        length = len(tokens)
        cols = np.array([vocab.index[w] for w in counts], dtype=np.int64)
        vals = np.array(
            [counts[w] / length for w in counts], dtype=float
        ) * idf[cols]
        vals /= np.linalg.norm(vals)
        rows.append(
            sp.csr_matrix(
                (vals, (np.zeros_like(cols), cols)), shape=(1, len(vocab.words))
            )
        )
    matrix = sp.vstack(rows, format="csr") if rows else sp.csr_matrix(
        (0, len(vocab.words))
    )
    return matrix, [i for i, row in enumerate(rows) if row.nnz == 0]


# ---------------------------------------------------------------------------
# experiment rounds from a count matrix


def _weights_from_counts(counts, lengths, position, idf):
    """(row, column, weight) entries of count rows over a run's vocabulary:
    (count / len) * idf per entry, entries outside it masked out, then
    L2-normalized per row."""
    row = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
    col = position[counts.indices]
    keep = col >= 0
    row, col = row[keep], col[keep]
    weight = counts.data[keep] / lengths[row] * idf[col]
    norms = np.sqrt(np.bincount(row, weights=weight * weight, minlength=len(lengths)))
    return row, col, weight / norms[row]


def fit_from_counts(counts, lengths, labels, n_classes, train):
    """One round's training side from the integer count matrix, for the
    training positions ``train`` (those with tokens): (position, idf,
    classes, mass, log_prior) as an experiment round fits them."""
    sub = counts[train]
    df = np.bincount(sub.indices, minlength=counts.shape[1])
    position = np.where(df > 0, np.cumsum(df > 0) - 1, -1)
    idf = 1.0 + np.log(len(train) / df[df > 0])
    row, col, weight = _weights_from_counts(sub, lengths[train], position, idf)
    doc_counts = np.bincount(labels[train], minlength=n_classes)
    classes = np.flatnonzero(doc_counts)
    cell = np.searchsorted(classes, labels[train])[row] * len(idf) + col
    mass = np.bincount(cell, weights=weight, minlength=len(classes) * len(idf))
    mass = mass.reshape(len(classes), len(idf))
    log_prior = np.log(doc_counts[classes] / len(train))
    return position, idf, classes, mass, log_prior


def predict_from_counts(counts, lengths, docs, fit, alpha):
    """The class each document at positions ``docs`` gets under smoothing
    alpha, from a :func:`fit_from_counts` result."""
    position, idf, classes, mass, log_prior = fit
    row, col, weight = _weights_from_counts(
        counts[docs], lengths[docs], position, idf
    )
    used, col = np.unique(col, return_inverse=True)
    indptr = np.r_[0, np.cumsum(np.bincount(row, minlength=len(docs)))]
    rows = sp.csr_matrix((weight, col, indptr), shape=(len(docs), len(used)))
    log_denom = np.log(alpha * len(idf) + mass.sum(axis=1))
    scores = rows @ (np.log(alpha + mass[:, used]) - log_denom[:, None]).T
    return classes[np.argmax(scores + log_prior, axis=1)]


# ---------------------------------------------------------------------------
# multinomial naive Bayes


def mnb_fit(rows, labels, alpha):
    """Priors and per-class word probabilities from tf-idf rows.

    Returns a dict with ``classes`` (sorted), ``priors`` (class -> P(C)),
    and ``word_prob`` (class -> list of P(w|C) aligned with the row width).
    """
    classes = sorted(set(labels))
    n_words = len(rows[0]) if rows else 0
    mass = {c: [0.0] * n_words for c in classes}
    n_docs = {c: 0 for c in classes}
    for row, label in zip(rows, labels):
        n_docs[label] += 1
        for j, value in enumerate(row):
            mass[label][j] += value
    total = len(labels)
    priors = {c: n_docs[c] / total for c in classes}
    word_prob = {}
    for c in classes:
        denominator = sum(alpha + m for m in mass[c])
        word_prob[c] = [(alpha + m) / denominator for m in mass[c]]
    return {"classes": classes, "priors": priors, "word_prob": word_prob}


def mnb_score(model, row):
    """Log-space class scores for one tf-idf row, plus the winning class.

    Ties go to the earliest class in the sorted class order (matching a
    plain first-maximum scan).
    """
    scores = {}
    for c in model["classes"]:
        total = math.log(model["priors"][c])
        probs = model["word_prob"][c]
        for j, value in enumerate(row):
            if value != 0.0:
                total += math.log(probs[j]) * value
        scores[c] = total
    predicted = model["classes"][0]
    for c in model["classes"][1:]:
        if scores[c] > scores[predicted]:
            predicted = c
    return scores, predicted


# ---------------------------------------------------------------------------
# exhaustive spanning-tree enumeration (Prüfer sequences)


def prufer_edges(sequence, n_nodes):
    """Edges of the labeled tree encoded by a Prüfer sequence.

    ``sequence`` has length n_nodes - 2 with entries in [0, n_nodes); the
    classic decode removes the smallest current leaf at each step.
    """
    degree = [1] * n_nodes
    for v in sequence:
        degree[v] += 1
    leaves = [v for v in range(n_nodes) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b) if a < b else (b, a))
    return edges


def all_labeled_trees(n_nodes):
    """Edge lists of every labeled tree on n_nodes vertices.

    There are n_nodes^(n_nodes-2) of them (Cayley's formula), one per
    Prüfer sequence. Feasible up to n_nodes = 8 (262144 trees).
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if n_nodes == 2:
        return [[(0, 1)]]
    return [
        prufer_edges(seq, n_nodes)
        for seq in product(range(n_nodes), repeat=n_nodes - 2)
    ]


def min_spanning_weight(weights, trees):
    """Minimum total weight over an explicit list of trees.

    ``weights`` is a full symmetric matrix as nested lists (or anything
    indexable twice); ``trees`` comes from :func:`all_labeled_trees`.
    """
    best = math.inf
    for edges in trees:
        total = 0.0
        for u, v in edges:
            total += weights[u][v]
        if total < best:
            best = total
    return best


# ---------------------------------------------------------------------------
# five-stage text filtering, one token occurrence at a time


def _is_word_char(text, i):
    """Whether text[i] is a regex word character (False off either end)."""
    return 0 <= i < len(text) and (text[i].isalnum() or text[i] == "_")


def _join_phrases(text, concat_map):
    """Stage 1: scan left to right; at each word start try the phrases
    longest first and replace a case-insensitive whole-word match."""
    phrases = sorted(concat_map, key=lambda pair: (-len(pair[0]), pair[0]))
    out = []
    i = 0
    while i < len(text):
        for phrase, joined in phrases:
            end = i + len(phrase)
            if (
                text[i:end].lower() == phrase.lower()
                and not _is_word_char(text, i - 1)
                and not _is_word_char(text, end)
            ):
                out.append(joined)
                i = end
                break
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def _strip_token(token, punctuation):
    """Stage 3: drop punctuation, then every combining mark except a tilde
    directly after a kept n or N; recompose."""
    kept = []
    for ch in unicodedata.normalize("NFD", "".join(
        c for c in token if c not in punctuation
    )):
        if unicodedata.combining(ch) == 0:
            kept.append(ch)
        elif ch == "\u0303" and kept and kept[-1] in ("n", "N"):
            kept.append(ch)
    return unicodedata.normalize("NFC", "".join(kept))


def preprocess(texts, gamma, concat_map, stopwords, punctuation):
    """Filtered texts and case decisions for a list of record texts.

    Stage 2 counts, for every whitespace token with its punctuation removed,
    whether it starts uppercase, keyed by its lowercase form; a form seen
    uppercase N_upper times and lowercase N_lower times is lowered everywhere
    iff N_upper < gamma * (N_lower + N_upper). Decisions are (word, n_lower,
    n_upper, lowered) tuples for the forms seen uppercase, sorted by word.
    Stages 2-5 then run on every token occurrence in turn.
    """
    joined = [_join_phrases(text, concat_map) for text in texts]
    n_lower, n_upper = {}, {}
    for text in joined:
        for token in text.split():
            word = "".join(c for c in token if c not in punctuation)
            if word:
                tally = n_upper if word[0].isupper() else n_lower
                tally[word.lower()] = tally.get(word.lower(), 0) + 1
    decisions = []
    lowered = set()
    for word in sorted(n_upper):
        low, up = n_lower.get(word, 0), n_upper[word]
        decisions.append((word, low, up, up < gamma * (low + up)))
        if up < gamma * (low + up):
            lowered.add(word)
    filtered = []
    for text in joined:
        tokens = []
        for token in text.split():
            word = "".join(c for c in token if c not in punctuation)
            if word and word.lower() in lowered:
                token = token.lower()
            for piece in _strip_token(token, punctuation).split():
                if piece not in stopwords:
                    tokens.append(piece)
        filtered.append(" ".join(tokens))
    return filtered, decisions
