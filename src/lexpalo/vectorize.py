"""Vocabulary construction and row-normalized TF-IDF document-term matrices.

The weighting, for word w in document d against a training corpus D:

    tf(w, d)     = count(w, d) / len(d)          (mean frequency in d)
    idf(w)       = 1 + ln(|D| / df(w))           (natural log)
    tfidf(w, d)  = tf(w, d) * idf(w)

and every document row is then L2-normalized to unit length. |D| and df come
from the vocabulary's training corpus, never from the documents being
vectorized; tokens outside the vocabulary are dropped (their only trace is in
the tf denominator, which cancels under normalization).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .corpus_io import Corpus, TokenIds, token_ids
from .errors import EmptyDocumentError, VocabularyMismatchError

_INT32_MAX = np.iinfo(np.int32).max
# Longest vector whose dot product OpenBLAS computes in one thread.
_BLAS_SERIAL_MAX = 10_000


@dataclass(frozen=True)
class Vocabulary:
    """Sorted word list of a training corpus with document frequencies."""

    words: tuple[str, ...]
    index: dict[str, int]
    df: tuple[int, ...]
    n_docs: int

    @cached_property
    def idf(self) -> np.ndarray:
        """``1 + ln(n_docs / df)`` per word, computed once per vocabulary."""
        idf = 1.0 + np.log(self.n_docs / np.asarray(self.df, dtype=float))
        idf.flags.writeable = False
        return idf


@dataclass(frozen=True)
class TfIdfMatrix:
    """Sparse row-normalized TF-IDF matrix over a fixed vocabulary."""

    matrix: sp.csr_matrix
    vocab: Vocabulary


def build_vocabulary(train: Corpus) -> Vocabulary:
    """Collect the training corpus vocabulary, sorted lexicographically,
    with per-word document frequencies and the training document count."""
    tok = token_ids(train)
    n = len(train.records)
    df = Counter(chain.from_iterable(_id_counts(tok, ((i,) for i in range(n)))))
    return _vocabulary(df, tok.words, n)


def _id_counts(tok: TokenIds, docs):
    """Per document, a sequence of record positions, its word-id counts in
    first-occurrence order, counted record by record."""
    ids, offsets = tok.ids, tok.offsets.tolist()
    for doc in docs:
        counts: Counter[int] = Counter()
        for i in doc:
            counts.update(ids[offsets[i]:offsets[i + 1]].tolist())
        yield counts


def _vocabulary(df: Counter[int], words: tuple[str, ...], n_docs: int) -> Vocabulary:
    """The vocabulary of ``n_docs`` documents with these document
    frequencies, keyed by word id into ``words``."""
    order = sorted(df, key=words.__getitem__)
    vocab_words = tuple(map(words.__getitem__, order))
    return Vocabulary(
        words=vocab_words,
        index={w: i for i, w in enumerate(vocab_words)},
        df=tuple(map(df.__getitem__, order)),
        n_docs=n_docs,
    )


def tfidf_row(tokens: list[str], vocab: Vocabulary) -> sp.csr_matrix:
    """Vectorize one token list as a 1 x |V| L2-normalized sparse row.

    A document without in-vocabulary tokens yields an all-zero row.
    """
    _check_vocabulary(vocab)
    counts = Counter(filter(vocab.index.__contains__, tokens))
    shape = (1, len(vocab.words))
    idx_dtype = _index_dtype(shape, len(counts))
    cols = np.fromiter(map(vocab.index.__getitem__, counts), idx_dtype, len(counts))
    vals = np.fromiter(counts.values(), float, len(counts))
    cols, vals = _unit_row(cols, vals, len(tokens), vocab)
    indptr = np.array([0, len(cols)], dtype=idx_dtype)
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def _check_vocabulary(vocab: Vocabulary) -> None:
    if not vocab.words:
        raise VocabularyMismatchError("vocabulary is empty")


def _index_dtype(shape: tuple[int, int], nnz: int):
    """The index dtype SciPy would pick, so that its constructor neither
    scans nor converts the index arrays."""
    return np.int32 if max(*shape, nnz) <= _INT32_MAX else np.int64


def _unit_row(cols: np.ndarray, vals: np.ndarray, length: int, vocab: Vocabulary):
    """The sorted columns and unit-norm TF-IDF values of one row with these
    columns and word counts, in first-occurrence order, and token count."""
    if len(cols):
        vals /= length
        vals *= vocab.idf[cols]
        # normalised in first-occurrence order, then sorted by column
        vals /= _norm(vals)
        order = np.argsort(cols)
        cols, vals = cols[order], vals[order]
    return cols, vals


def _csr_rows(rows, words: tuple[str, ...], vocab: Vocabulary) -> sp.csr_matrix:
    """One CSR matrix with a row per word-id counts, ids into ``words``,
    column indices sorted. Words outside ``vocab`` are dropped but count in
    the row's token count."""
    _check_vocabulary(vocab)
    column = np.fromiter((vocab.index.get(w, -1) for w in words), np.int64, len(words))
    data, indices, indptr = [np.empty(0)], [np.empty(0, dtype=np.int64)], [0]
    for counts in rows:
        n = len(counts)
        cols = column[np.fromiter(counts, np.int64, n)]
        vals = np.fromiter(counts.values(), float, n)
        kept = cols >= 0
        cols, vals = _unit_row(cols[kept], vals[kept], sum(counts.values()), vocab)
        data.append(vals)
        indices.append(cols)
        indptr.append(indptr[-1] + len(cols))
    shape = (len(indptr) - 1, len(vocab.words))
    idx_dtype = _index_dtype(shape, indptr[-1])
    return sp.csr_matrix(
        (
            np.concatenate(data),
            np.concatenate(indices, dtype=idx_dtype),
            np.array(indptr, dtype=idx_dtype),
        ),
        shape=shape,
    )


def _norm(vals: np.ndarray) -> float:
    """L2 norm, the same for any OpenBLAS thread count. OpenBLAS splits a
    dot product of more than 10,000 values across threads, which changes
    its last bits, so longer vectors are summed without BLAS. Shorter ones
    get what ``np.linalg.norm`` computes for a 1-D float vector, without
    its Python dispatch."""
    if len(vals) > _BLAS_SERIAL_MAX:
        return np.sqrt(np.sum(vals * vals))
    return np.sqrt(vals.dot(vals))


def tfidf(docs: Corpus, vocab: Vocabulary) -> TfIdfMatrix:
    """Vectorize every record of a corpus against ``vocab``.

    Row order follows the corpus; each non-empty row has unit L2 norm.
    """
    tok = token_ids(docs)
    rows = _id_counts(tok, ((i,) for i in range(len(docs.records))))
    return TfIdfMatrix(matrix=_csr_rows(rows, tok.words, vocab), vocab=vocab)


def genre_vectors(corpus: Corpus) -> dict[str, sp.csr_matrix]:
    """Each palo's 1 x |V| TF-IDF row, its songs taken as one document, over
    the vocabulary of those documents; palos in sorted order. Raises
    EmptyDocumentError when a palo counts no token."""
    tok = token_ids(corpus)
    palos = sorted(corpus.palos)
    counts = list(_id_counts(tok, map(corpus.palo_index.__getitem__, palos)))
    for palo, c in zip(palos, counts):
        if not c:
            raise EmptyDocumentError(f"palo {palo!r} has no tokens after preprocessing")
    vocab = _vocabulary(Counter(chain.from_iterable(counts)), tok.words, len(palos))
    matrix = _csr_rows(counts, tok.words, vocab)
    return {palo: matrix[i] for i, palo in enumerate(palos)}
