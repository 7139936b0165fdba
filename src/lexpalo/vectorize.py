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

from .corpus_io import Corpus, token_ids
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
    df_counts: Counter[str] = Counter()
    for rec in train.records:
        df_counts.update(set(rec.text.split()))
    return _vocabulary(df_counts, len(train.records))


def _vocabulary(df_counts: Counter[str], n_docs: int) -> Vocabulary:
    """The vocabulary of ``n_docs`` documents with these document
    frequencies."""
    words = tuple(sorted(df_counts))
    return Vocabulary(
        words=words,
        index={w: i for i, w in enumerate(words)},
        df=tuple(df_counts[w] for w in words),
        n_docs=n_docs,
    )


def tfidf_row(tokens: list[str], vocab: Vocabulary) -> sp.csr_matrix:
    """Vectorize one token list as a 1 x |V| L2-normalized sparse row.

    A document without in-vocabulary tokens yields an all-zero row.
    """
    _check_vocabulary(vocab)
    counts, length = _row_counts(tokens, vocab.index)
    shape = (1, len(vocab.words))
    idx_dtype = _index_dtype(shape, len(counts))
    cols, vals = _unit_row(counts, length, vocab, idx_dtype)
    indptr = np.array([0, len(cols)], dtype=idx_dtype)
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def _row_counts(tokens: list[str], index: dict[str, int]):
    """(in-vocabulary word counts in first-occurrence order, token count)."""
    return Counter(filter(index.__contains__, tokens)), len(tokens)


def _check_vocabulary(vocab: Vocabulary) -> None:
    if not vocab.words:
        raise VocabularyMismatchError("vocabulary is empty")


def _index_dtype(shape: tuple[int, int], nnz: int):
    """The index dtype SciPy would pick, so that its constructor neither
    scans nor converts the index arrays."""
    return np.int32 if max(*shape, nnz) <= _INT32_MAX else np.int64


def _unit_row(counts: Counter[str], length: int, vocab: Vocabulary, idx_dtype):
    """The sorted columns and unit-norm TF-IDF values of one row with these
    word counts and token count. Every counted word must be in ``vocab``."""
    n = len(counts)
    cols = np.fromiter(map(vocab.index.__getitem__, counts), idx_dtype, n)
    vals = np.fromiter(counts.values(), float, n)
    if n:
        vals /= length
        vals *= vocab.idf[cols]
        # normalised in first-occurrence order, then sorted by column
        vals /= _norm(vals)
        order = np.argsort(cols)
        cols, vals = cols[order], vals[order]
    return cols, vals


def _csr_rows(rows, n_rows: int, vocab: Vocabulary) -> sp.csr_matrix:
    """One CSR matrix from ``n_rows`` (word counts, token count) pairs, one
    row per pair, column indices sorted. Every counted word must be in
    ``vocab``."""
    _check_vocabulary(vocab)
    data, indices, indptr = [np.empty(0)], [np.empty(0, dtype=np.int64)], [0]
    for counts, length in rows:
        cols, vals = _unit_row(counts, length, vocab, np.int64)
        data.append(vals)
        indices.append(cols)
        indptr.append(indptr[-1] + len(cols))
    shape = (n_rows, len(vocab.words))
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
    index = vocab.index
    matrix = _csr_rows(
        (_row_counts(rec.text.split(), index) for rec in docs.records),
        len(docs.records),
        vocab,
    )
    return TfIdfMatrix(matrix=matrix, vocab=vocab)


def genre_vectors(corpus: Corpus) -> dict[str, sp.csr_matrix]:
    """Each palo's 1 x |V| TF-IDF row, its songs taken as one document, over
    the vocabulary of those documents; palos in sorted order. Each palo is
    held as its word counts in order of first occurrence, taken from the
    corpus's word ids. Raises EmptyDocumentError when a palo counts no
    token."""
    tok = token_ids(corpus)
    offsets = tok.offsets.tolist()
    counts = {}
    for palo in sorted(corpus.palos):
        ids = np.concatenate(
            [tok.ids[offsets[i]:offsets[i + 1]] for i in corpus.palo_index[palo]]
        )
        if not len(ids):
            raise EmptyDocumentError(f"palo {palo!r} has no tokens after preprocessing")
        # np.unique with first indices would hold 30 bytes a token
        n = np.zeros(len(tok.words), dtype=np.int64)
        np.add.at(n, ids, 1)
        first = np.full(len(tok.words), len(ids))
        np.minimum.at(first, ids, np.arange(len(ids)))
        used = np.flatnonzero(n)
        used = used[np.argsort(first[used])]
        words = map(tok.words.__getitem__, used.tolist())
        counts[palo] = dict(zip(words, n[used].tolist()))
    df = Counter(chain.from_iterable(counts.values()))
    vocab = _vocabulary(df, len(counts))
    matrix = _csr_rows(
        ((c, sum(c.values())) for c in counts.values()), len(counts), vocab
    )
    return {palo: matrix[i] for i, palo in enumerate(counts)}
