"""Vocabulary construction and row-normalized TF-IDF document-term matrices.

The weighting, for word w in document d against a training corpus D:

    tf(w, d)     = count(w, d) / len(d)          (mean frequency in d)
    idf(w)       = 1 + ln(|D| / df(w))           (natural log)
    tfidf(w, d)  = tf(w, d) * idf(w)

and every document row is then L2-normalized to unit length. |D| and df come
from the vocabulary's training corpus, never from the documents being
vectorized; tokens outside the vocabulary are dropped (their only trace is in
the tf denominator, which cancels under normalization).

Every corpus-level call reads one encoding of the corpus's word ids,
:func:`encode`: an entry per (record, word) pair, with the word's count in
the record and the place of its first token. The vocabulary's document
frequencies count the entries of each word; a row's norm is taken over its
values in the order in which its words first occur, as :func:`tfidf_row`
takes it over the words of one text. The experiment rounds of
:mod:`experiments` read the same encoding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .corpus_io import Corpus, token_ids
from .errors import EmptyDocumentError, VocabularyMismatchError

_INT32_MAX = np.iinfo(np.int32).max
# Longest vector whose dot product OpenBLAS computes in one thread.
_BLAS_SERIAL_MAX = 10_000
# Most tokens, and records, whose keys :func:`encode` sorts at once: 128 KiB
# of int64 keys. A longer record is a block of its own.
_BLOCK_TOKENS = 16_384


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


@dataclass(frozen=True)
class Entries:
    """A corpus's tokens as one entry per (record, word) pair it holds,
    ordered by record, then word, and each record's palo."""

    words: tuple[str, ...]  # the corpus's words, sorted
    classes: tuple[str, ...]  # the corpus's palos, sorted
    label: np.ndarray  # per record, its palo's place in ``classes``
    lengths: np.ndarray  # tokens per record
    doc: np.ndarray  # per entry (int32), its record
    word: np.ndarray  # per entry (int32), its place in ``words``
    count: np.ndarray  # per entry (int32), its record's tokens of that word
    first: np.ndarray  # per entry, its first token's place in the corpus's ids


def encode(corpus: Corpus) -> Entries:
    """The entries of the corpus's word ids (:func:`corpus_io.token_ids`).
    They are sorted in blocks of whole records, so no array with a value per
    token of the corpus is made beyond the ids."""
    tok = token_ids(corpus)
    order = sorted(range(len(tok.words)), key=tok.words.__getitem__)
    place = np.argsort(order)  # per word id, its place in sorted order
    n_words = len(order)
    classes = tuple(sorted(corpus.palo_index))
    label = np.array([classes.index(rec.palo) for rec in corpus.records])
    offsets, lengths = tok.offsets, np.diff(tok.offsets)
    blocks, r0 = [], 0
    while r0 < len(lengths):
        r1 = int(np.searchsorted(offsets, offsets[r0] + _BLOCK_TOKENS, "right")) - 1
        r1 = min(max(r1, r0 + 1), r0 + _BLOCK_TOKENS)
        t0, n = offsets[r0], offsets[r1] - offsets[r0]
        # a key per token: (record in the block, word, token in the block),
        # so the first key of each (record, word) run is its first
        # occurrence. Below 2**63 while a record has fewer than 2**32 tokens
        shift = int(n).bit_length()
        key = np.repeat(np.arange(r1 - r0) * n_words, lengths[r0:r1])
        key += place[tok.ids[t0:t0 + n]]
        key <<= shift
        key += np.arange(n)
        key.sort()
        start = np.flatnonzero(np.diff(key >> shift, prepend=-1))
        head = key[start]
        doc, word = np.divmod(head >> shift, n_words)
        small = np.array([doc + r0, word, np.diff(start, append=n)], dtype=np.int32)
        blocks.append((*small, t0 + (head & ((1 << shift) - 1))))
        r0 = r1
    doc, word, count, first = map(np.concatenate, zip(*blocks))
    return Entries(tuple(map(tok.words.__getitem__, order)), classes, label, lengths,
                   doc, word, count, first)


def build_vocabulary(train: Corpus) -> Vocabulary:
    """Collect the training corpus vocabulary, sorted lexicographically,
    with per-word document frequencies and the training document count."""
    entries = encode(train)
    return _vocabulary_of(entries.words, entries.word, len(train.records))


def _vocabulary_of(words: tuple[str, ...], word: np.ndarray, n_docs: int) -> Vocabulary:
    """The vocabulary of ``n_docs`` documents over the sorted ``words``,
    whose (document, word) entries hold the words at places ``word``. Each
    word has an entry, since :func:`corpus_io.word_ids` numbers only the
    words it meets."""
    return Vocabulary(
        words=words,
        index={w: i for i, w in enumerate(words)},
        df=tuple(np.bincount(word, minlength=len(words)).tolist()),
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
    if len(cols):
        vals /= len(tokens)
        vals *= vocab.idf[cols]
        # normalised in first-occurrence order, then sorted by column
        vals /= _norm(vals)
        order = np.argsort(cols)
        cols, vals = cols[order], vals[order]
    indptr = np.array([0, len(cols)], dtype=idx_dtype)
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def _check_vocabulary(vocab: Vocabulary) -> None:
    if not vocab.words:
        raise VocabularyMismatchError("vocabulary is empty")


def _index_dtype(shape: tuple[int, int], nnz: int):
    """The index dtype SciPy would pick, so that its constructor neither
    scans nor converts the index arrays."""
    return np.int32 if max(*shape, nnz) <= _INT32_MAX else np.int64


def _unit_rows(row, column, count, first, lengths, vocab: Vocabulary) -> sp.csr_matrix:
    """One CSR matrix with a row per token count of ``lengths``, from entries
    sorted by row, then column of ``vocab`` (-1 for a word outside it, which
    is dropped but counts in its row's length), with their counts and first
    positions. Each row is normalised in the order of its entries' first
    positions, as :func:`tfidf_row` normalises its row."""
    _check_vocabulary(vocab)
    kept = column >= 0
    row, column = row[kept], column[kept]
    vals = count[kept] / lengths[row] * vocab.idf[column]
    indptr = np.searchsorted(row, np.arange(len(lengths) + 1))
    ordered = vals[np.lexsort((first[kept], row))]
    norms = list(map(_norm, np.split(ordered, indptr[1:-1])))
    vals /= np.repeat(norms, np.diff(indptr))
    shape = (len(lengths), len(vocab.words))
    idx_dtype = _index_dtype(shape, len(vals))
    return sp.csr_matrix(
        (vals, column.astype(idx_dtype), indptr.astype(idx_dtype)), shape=shape
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
    e = encode(docs)
    column = np.fromiter((vocab.index.get(w, -1) for w in e.words), np.int64, len(e.words))
    matrix = _unit_rows(e.doc, column[e.word], e.count, e.first, e.lengths, vocab)
    return TfIdfMatrix(matrix=matrix, vocab=vocab)


def genre_vectors(corpus: Corpus) -> dict[str, sp.csr_matrix]:
    """Each palo's 1 x |V| TF-IDF row, its songs taken as one document, over
    the vocabulary of those documents; palos in sorted order. Raises
    EmptyDocumentError when a palo counts no token."""
    e = encode(corpus)
    lengths = np.bincount(e.label, weights=e.lengths, minlength=len(e.classes))
    for palo, length in zip(e.classes, lengths):
        if not length:
            raise EmptyDocumentError(f"palo {palo!r} has no tokens after preprocessing")
    # the records' entries reduced to palo rows: counts summed, and the first
    # position the least, which is the one of the palo's earliest record
    cell = e.label[e.doc] * len(e.words) + e.word
    cells, earliest, entry = np.unique(cell, return_index=True, return_inverse=True)
    row, word = np.divmod(cells, len(e.words))
    vocab = _vocabulary_of(e.words, word, len(e.classes))
    count = np.bincount(entry, weights=e.count)
    matrix = _unit_rows(row, word, count, e.first[earliest], lengths, vocab)
    return {palo: matrix[i] for i, palo in enumerate(e.classes)}
