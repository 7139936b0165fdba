"""Independent brute-force reference implementations.

Everything here is deliberately written with plain dicts, lists, and
``math`` arithmetic — no numpy, no scipy, and nothing imported from the
package under test — so a library bug cannot hide inside a shared
dependency. The implementations favor obviousness over speed.

Some exceptions use numpy and scipy, because the library must equal them
bit for bit, not within a tolerance: :func:`tfidf_per_document`, the earlier
one-row-at-a-time construction of ``vectorize``; :func:`genre_vectors`, the
earlier construction of the genre vectors from newline-joined palo texts;
:func:`fit_from_counts` with :func:`predict_from_counts`, the earlier
construction of an experiment round from integer counts; :func:`sttr`, the
earlier set-per-window construction of the sTTR windows;
:func:`heaps_points`, the earlier construction of the Heaps curve from one
list of every token; :func:`mnb_fit_by_class_rows`, the earlier
per-class fit of ``mnb``; :func:`csr_tfidf_row` with :func:`csr_score`, the
earlier one-text row as a SciPy CSR row and its sparse product; and
:func:`csr_genre_vectors`, the earlier CSR genre rows from ``np.unique``.
:func:`concat_full_pattern` uses ``re``: it is the earlier phrase regex of
``preprocess``, run on every text with every phrase.
:func:`stratified_split` and :func:`concat_by_palo` build the package's
corpus records; the split itself, :func:`stratified_positions`, is a full
``random.shuffle`` of each palo then a cut, with its own seed derivation.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import re
import unicodedata
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from lexpalo.corpus_io import Corpus, LyricRecord

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
    COO constructor, then ``sp.vstack``; each row normalised by
    :func:`_norm` of its values in column order. Returns (matrix,
    empty_rows)."""
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
        vals /= _norm(vals[np.argsort(cols)])
        rows.append(
            sp.csr_matrix(
                (vals, (np.zeros_like(cols), cols)), shape=(1, len(vocab.words))
            )
        )
    matrix = sp.vstack(rows, format="csr") if rows else sp.csr_matrix(
        (0, len(vocab.words))
    )
    return matrix, [i for i, row in enumerate(rows) if row.nnz == 0]


def genre_vectors(records):
    """{palo: 1 x |V| CSR row} for (palo, text) pairs in corpus order: each
    palo's texts newline-joined into one document, a vocabulary over those
    documents and :func:`tfidf_per_document` rows."""
    texts = {}
    for palo, text in records:
        texts.setdefault(palo, []).append(text)
    palos = sorted(texts)
    docs = ["\n".join(texts[p]).split() for p in palos]
    words, df = vocabulary(docs)
    vocab = SimpleNamespace(
        words=words,
        index={w: i for i, w in enumerate(words)},
        df=[df[w] for w in words],
        n_docs=len(docs),
    )
    matrix, _ = tfidf_per_document(docs, vocab)
    return {palo: matrix[i] for i, palo in enumerate(palos)}


def _norm(vals):
    """The L2 norm as ``vectorize`` takes it: the square root of the
    squares added one at a time, in the order given, from 0.0 (a plain
    loop: ``sum`` compensates its float additions from Python 3.12 on)."""
    total = 0.0
    for v in vals.tolist():
        total += v * v
    return math.sqrt(total)


def _index_dtype(shape, nnz):
    return np.int32 if max(*shape, nnz) <= np.iinfo(np.int32).max else np.int64


def csr_tfidf_row(tokens, vocab):
    """The 1 x |V| CSR row ``vectorize.tfidf_row`` built before it returned
    arrays: values sorted by column, then normalised by :func:`_norm` in
    that order, with the index dtype SciPy would pick."""
    counts = Counter(t for t in tokens if t in vocab.index)
    shape = (1, len(vocab.words))
    idx_dtype = _index_dtype(shape, len(counts))
    cols = np.array([vocab.index[w] for w in counts], dtype=idx_dtype)
    vals = np.array(list(counts.values()), dtype=float)
    if len(cols):
        vals /= len(tokens)
        vals *= vocab.idf[cols]
        order = np.argsort(cols)
        cols, vals = cols[order], vals[order]
        vals /= _norm(vals)
    indptr = np.array([0, len(cols)], dtype=idx_dtype)
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def csr_score(model, row):
    """A model's class scores of one CSR row, as ``mnb.score`` took them
    before it read arrays: SciPy's product with the word-major table plus
    the log priors."""
    return (row.dot(model._logprob_by_word) + model._log_priors)[0]


def csr_genre_vectors(corpus):
    """{palo: 1 x |V| CSR row} as ``vectorize.genre_vectors`` built them
    before they were dense: the corpus's ``vectorize.encode`` entries reduced
    to (palo, word) cells by one ``np.unique``, each row normalised by
    :func:`_norm` over its values in column order."""
    from lexpalo.vectorize import Vocabulary, encode

    e = encode(corpus)
    lengths = np.bincount(e.label, weights=e.lengths, minlength=len(e.classes))
    cell = e.label[e.doc] * len(e.words) + e.word
    cells, entry = np.unique(cell, return_inverse=True)
    row, word = np.divmod(cells, len(e.words))
    vocab = Vocabulary(
        words=e.words,
        df=tuple(np.bincount(word, minlength=len(e.words)).tolist()),
        n_docs=len(e.classes),
    )
    count = np.bincount(entry, weights=e.count)
    vals = count / lengths[row] * vocab.idf[word]
    indptr = np.searchsorted(row, np.arange(len(lengths) + 1))
    norms = list(map(_norm, np.split(vals, indptr[1:-1])))
    vals /= np.repeat(norms, np.diff(indptr))
    shape = (len(lengths), len(vocab.words))
    idx_dtype = _index_dtype(shape, len(vals))
    matrix = sp.csr_matrix(
        (vals, word.astype(idx_dtype), indptr.astype(idx_dtype)), shape=shape
    )
    return {palo: matrix[i] for i, palo in enumerate(e.classes)}


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


def mnb_fit_by_class_rows(matrix, labels, alpha):
    """(classes, priors, word_logprob) as ``mnb.fit`` computed them before
    one bincount summed every class: each class's rows sliced out of the
    TF-IDF matrix and summed by SciPy, the classes one at a time."""
    classes = tuple(sorted(set(labels)))
    label_arr = np.asarray(labels, dtype=object)
    smoothed = np.empty((len(classes), matrix.shape[1]))
    counts = np.empty(len(classes))
    for k, cls in enumerate(classes):
        row_ix = np.flatnonzero(label_arr == cls)
        counts[k] = len(row_ix)
        smoothed[k] = alpha + np.asarray(matrix[row_ix].sum(axis=0)).ravel()
    priors = {c: float(counts[k] / counts.sum()) for k, c in enumerate(classes)}
    word_logprob = np.log(smoothed) - np.log(smoothed.sum(axis=1))[:, None]
    return classes, priors, word_logprob


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
# lexical statistics over whole token lists


def profile(tokens):
    """(tokens, types, TTR) of one token list."""
    return len(tokens), len(set(tokens)), len(set(tokens)) / len(tokens)


def heaps_points(texts, seed, n_checkpoints=200):
    """(tokens seen, types seen) at the Heaps curve's marks: every token of
    the seeded shuffle of ``texts`` in one list, then one set grown token by
    token."""
    order = list(range(len(texts)))
    random.Random(seed).shuffle(order)
    stream = [tok for i in order for tok in texts[i].split()]
    marks = set(
        np.round(
            np.geomspace(1, len(stream), num=min(n_checkpoints, len(stream)))
        ).astype(int).tolist()
    )
    seen, points = set(), []
    for pos, tok in enumerate(stream, start=1):
        seen.add(tok)
        if pos in marks:
            points.append((pos, len(seen)))
    return points


# ---------------------------------------------------------------------------
# lexical statistics streamed as token strings, one record at a time (the
# library's constructions before its reports read word ids)


def ranked_frequencies(texts):
    """(word, count) over every token of ``texts``, most frequent first,
    ties in word order."""
    counts = Counter(tok for text in texts for tok in text.split())
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def previous_occurrences(tokens):
    """Each position of a token stream -> the last earlier position of its
    word, or -1."""
    last, prev = {}, []
    for i, word in enumerate(tokens):
        prev.append(last.get(word, -1))
        last[word] = i
    return prev


def hapax(records, essential=None):
    """(per-song ratios, per-palo exclusive word sets, overlap with the
    essential lists) of (id, palo, text) records, from one set of words per
    palo and one per song; songs without tokens are skipped."""
    palo_types = {}
    for _, palo, text in records:
        palo_types.setdefault(palo, set()).update(text.split())
    presence = Counter(w for types in palo_types.values() for w in types)
    unique = {
        palo: frozenset(w for w in types if presence[w] == 1)
        for palo, types in palo_types.items()
    }
    per_song = []
    for rec_id, palo, text in records:
        song_types = set(text.split())
        if song_types:
            per_song.append((rec_id, len(song_types & unique[palo]) / len(song_types)))
    shared = {
        palo: len(unique.get(palo, frozenset()) & set(words))
        for palo, words in (essential or {}).items()
    }
    return tuple(per_song), unique, shared


# ---------------------------------------------------------------------------
# windowed type-token ratio


def sttr(document, window_length, n_windows, seed):
    """(mean, stderr) of the TTR over seeded random windows, each window's
    types counted with a set; a window covering the document is taken once."""
    if window_length == len(document):
        return len(set(document)) / len(document), 0.0
    starts = np.random.default_rng(seed).integers(
        0, len(document) - window_length + 1, size=n_windows
    )
    ttrs = np.array(
        [len(set(document[s : s + window_length])) / window_length for s in starts]
    )
    stderr = (
        float(np.std(ttrs, ddof=1) / math.sqrt(n_windows)) if n_windows > 1 else 0.0
    )
    return float(ttrs.mean()), stderr


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


def concat_full_pattern(concat_map):
    """Stage 1 as the earlier ``preprocess`` ran it on every text: one
    case-insensitive, word-bounded regex with a group per phrase, longest
    phrase first, and each match replaced by the replacement of the last
    phrase in that order whose ``lower()`` equals its phrase's. Returns the
    function of a text."""
    ordered = sorted(concat_map, key=lambda pair: (-len(pair[0]), pair[0]))
    pattern = re.compile(
        r"\b(?:" + "|".join(f"({re.escape(p)})" for p, _ in ordered) + r")\b",
        re.IGNORECASE,
    )
    by_lower = {phrase.lower(): joined for phrase, joined in ordered}
    return lambda text: pattern.sub(
        lambda m: by_lower[ordered[m.lastindex - 1][0].lower()], text
    )


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
    """Filtered texts and lowered words for a list of record texts.

    Stage 2 counts, for every whitespace token with its punctuation removed,
    whether it starts uppercase, keyed by its lowercase form; a form seen
    uppercase N_upper times and lowercase N_lower times is lowered everywhere
    iff N_upper < gamma * (N_lower + N_upper).
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
    lowered = {
        word for word, up in n_upper.items()
        if up < gamma * (n_lower.get(word, 0) + up)
    }
    filtered = [
        " ".join(piece for token in text.split()
                 for piece in filter_token(token, lowered, stopwords, punctuation))
        for text in joined
    ]
    return filtered, lowered


def filter_token(token, lowered, stopwords, punctuation):
    """Stages 2-5 on one whitespace token, given the lowered words: the
    pieces it gives."""
    word = "".join(c for c in token if c not in punctuation)
    if word and word.lower() in lowered:
        token = token.lower()
    return [piece for piece in _strip_token(token, punctuation).split()
            if piece not in stopwords]


# ---------------------------------------------------------------------------
# corpus splitting and per-palo aggregation


def stratified_positions(corpus, spec):
    """Sorted train and validation record positions: per palo, its positions
    shuffled whole by a ``random.Random`` seeded with the SHA-256 of
    "seed:stratum:palo", then cut after round-half-up(fraction * n), clamped
    to [1, n - 1], records."""
    train, val = [], []
    for palo, positions in corpus.palo_index.items():
        n = len(positions)
        n_train = min(max(math.floor(spec.train_fraction * n + 0.5), 1), n - 1)
        text = f"{spec.seed}:stratum:{palo}".encode("utf-8")
        seed = int.from_bytes(hashlib.sha256(text).digest()[:8], "big")
        order = list(positions)
        random.Random(seed).shuffle(order)
        train += order[:n_train]
        val += order[n_train:]
    return sorted(train), sorted(val)


def stratified_split(corpus, spec):
    """Split a corpus into train and validation corpora at the positions of
    :func:`stratified_positions`."""
    train_ix, val_ix = stratified_positions(corpus, spec)
    return (
        Corpus(corpus.records[i] for i in train_ix),
        Corpus(corpus.records[i] for i in val_ix),
    )


def concat_by_palo(corpus):
    """Concatenate each palo's lyrics (corpus order, newline-joined) into one
    aggregate record per palo, keyed and id-tagged by the palo name."""
    return {
        palo: LyricRecord(
            id=f"__agg__{palo}",
            text="\n".join(corpus.records[i].text for i in positions),
            palo=palo,
        )
        for palo, positions in corpus.palo_index.items()
    }
