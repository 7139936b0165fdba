"""Vocabulary construction and row-normalized TF-IDF document-term matrices.

The weighting, for word w in document d against a training corpus D:

    tf(w, d)     = count(w, d) / len(d)          (mean frequency in d)
    idf(w)       = 1 + ln(|D| / df(w))           (natural log)
    tfidf(w, d)  = tf(w, d) * idf(w)

and every document row is then L2-normalized to unit length. |D| and df come
from the vocabulary's training corpus, never from the documents being
vectorized; tokens outside the vocabulary are dropped (their only trace is in
the tf denominator, which cancels under normalization).

A row's L2 norm is defined once, by :func:`_norms`: the square root of
its values' squares added in column (sorted-word) order from 0.0. The
corpus matrix, one text's row, the genre vectors and the experiment rounds
of :mod:`experiments` all take it, so their bits do not depend on the
order of a text's tokens, on BLAS kernels or on thread counts.

Every corpus-level call reads one encoding of the corpus's word ids,
:func:`encode`: an entry per (record, word) pair, with the word's count in
the record, and the tables made from them on first read (record offsets,
term frequencies, (palo, word) cells, document frequencies). The
vocabulary's document frequencies count the entries of each word. The
experiment rounds read the same encoding and its tables.

Only :func:`tfidf` builds a SciPy matrix, and only it imports SciPy: one
text's row is two numpy arrays, and the genre vectors are dense rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .corpus_io import Corpus, token_ids
from .errors import EmptyDocumentError, VocabularyMismatchError

# Most tokens, and records, whose keys :func:`encode` sorts at once: 128 KiB
# of int64 keys. A longer record is a block of its own.
_BLOCK_TOKENS = 16_384


@dataclass(frozen=True)
class Vocabulary:
    """Sorted word list of a training corpus with document frequencies."""

    words: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int

    @cached_property
    def index(self) -> dict[str, int]:
        """Word -> its column, built at first use."""
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def idf(self) -> np.ndarray:
        """``1 + ln(n_docs / df)`` per word, computed once per vocabulary."""
        return _read_only(1.0 + np.log(self.n_docs / np.asarray(self.df, dtype=float)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TfIdfMatrix:
    """Sparse row-normalized TF-IDF matrix over a fixed vocabulary."""

    matrix: scipy.sparse.csr_matrix  # SciPy is imported where one is built
    vocab: Vocabulary


class TfIdfRow(NamedTuple):
    """One text's row over a vocabulary of ``width`` words: the columns of
    its nonzero values, ascending, and those values."""

    columns: np.ndarray
    values: np.ndarray
    width: int


@dataclass(frozen=True)
class Entries:
    """A corpus's tokens as one entry per (record, word) pair it holds,
    ordered by record, then word, and each record's palo. The tables its
    readers share are read-only properties, made on first read."""

    corpus: Corpus  # the corpus encoded
    words: tuple[str, ...]  # the corpus's words, sorted
    classes: tuple[str, ...]  # the corpus's palos, sorted
    label: np.ndarray  # per record, its palo's place in ``classes``
    lengths: np.ndarray  # tokens per record
    doc: np.ndarray  # per entry (intp), its record
    word: np.ndarray  # per entry (int32), its place in ``words``
    count: np.ndarray  # per entry (int32), its record's tokens of that word

    @cached_property
    def indptr(self) -> np.ndarray:
        """Per record, the place of its first entry; the entry count last."""
        return _read_only(np.searchsorted(self.doc, np.arange(len(self.lengths) + 1)))

    @cached_property
    def column(self) -> np.ndarray:
        """Per entry, ``word`` as an intp index."""
        return _read_only(self.word.astype(np.intp))

    @cached_property
    def tf(self) -> np.ndarray:
        """Per entry, its count over its record's tokens (every token counts)."""
        return _read_only(self.count / self.lengths[self.doc])

    @cached_property
    def cell(self) -> np.ndarray:
        """Per entry, its (palo, word) cell: label * len(words) + word."""
        return _read_only(self.label[self.doc] * len(self.words) + self.word)

    @cached_property
    def df(self) -> np.ndarray:
        """Per word, the records that hold it."""
        return _read_only(np.bincount(self.word, minlength=len(self.words)))

    @cached_property
    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """Two writable float arrays of a value per entry, which the
        experiment rounds of each process refill instead of allocating
        their per-entry arrays afresh."""
        return np.empty(len(self.word)), np.empty(len(self.word))


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
        # a key per token: record in the block x |V| + word
        key = np.repeat(np.arange(r1 - r0) * n_words, lengths[r0:r1])
        key += place[tok.ids[t0:t0 + n]]
        key.sort()
        start = np.flatnonzero(np.diff(key, prepend=-1))
        doc, word = np.divmod(key[start], n_words)
        blocks.append((doc + r0, *np.array([word, np.diff(start, append=n)], dtype=np.int32)))
        r0 = r1
    doc, word, count = map(np.concatenate, zip(*blocks))
    return Entries(corpus, tuple(map(tok.words.__getitem__, order)), classes, label,
                   lengths, doc, word, count)


def build_vocabulary(train: Corpus) -> Vocabulary:
    """Collect the training corpus vocabulary, sorted lexicographically,
    with per-word document frequencies and the training document count.
    Each word has an entry, since :func:`corpus_io.word_ids` numbers only
    the words it meets."""
    e = encode(train)
    return Vocabulary(e.words, tuple(e.df.tolist()), len(e.lengths))


def tfidf_row(tokens: list[str], vocab: Vocabulary) -> TfIdfRow:
    """Vectorize one token list as an L2-normalized row over ``vocab``.

    A document without in-vocabulary tokens yields a row without values.
    """
    _check_vocabulary(vocab)
    counts = Counter(filter(vocab.index.__contains__, tokens))
    cols = np.fromiter(map(vocab.index.__getitem__, counts), np.intp, len(counts))
    vals = np.fromiter(counts.values(), float, len(counts))
    if len(cols):
        order = np.argsort(cols)
        cols, vals = cols[order], vals[order]
        vals /= len(tokens)
        vals *= vocab.idf[cols]
        vals /= _norms(np.zeros(len(vals), np.intp), vals, 1)
    return TfIdfRow(cols, vals, len(vocab.words))


def _check_vocabulary(vocab: Vocabulary) -> None:
    if not vocab.words:
        raise VocabularyMismatchError("vocabulary is empty")


def _norms(rows: np.ndarray, vals: np.ndarray, n_rows: int) -> np.ndarray:
    """The L2 norm of each of ``n_rows`` rows, given each value's row: the
    square root of the row's squares added in the order given, from 0.0.
    Every caller gives each row's values in column order."""
    return np.sqrt(np.bincount(rows, weights=vals * vals, minlength=n_rows))


def tfidf(docs: Corpus, vocab: Vocabulary) -> TfIdfMatrix:
    """Vectorize every record of a corpus against ``vocab``.

    Row order follows the corpus; each non-empty row has unit L2 norm
    (:func:`_norms`). Words outside ``vocab`` are dropped but count in their
    row's length.
    """
    import scipy.sparse as sp  # here, so that commands building no matrix never load it

    e = encode(docs)
    _check_vocabulary(vocab)
    column = np.fromiter((vocab.index.get(w, -1) for w in e.words), np.int64, len(e.words))
    column = column[e.word]
    kept = column >= 0
    row, column = e.doc[kept], column[kept]
    vals = e.tf[kept] * vocab.idf[column]
    indptr = np.searchsorted(row, np.arange(len(e.lengths) + 1))
    # a record's entries, in word order, are in column order
    vals /= _norms(row, vals, len(e.lengths))[row]
    matrix = sp.csr_matrix((vals, column, indptr), shape=(len(e.lengths), len(vocab.words)))
    return TfIdfMatrix(matrix=matrix, vocab=vocab)


def genre_vectors(corpus: Corpus) -> dict[str, np.ndarray]:
    """Each palo's TF-IDF row, dense over the vocabulary of its songs taken
    as one document; palos in sorted order. Raises EmptyDocumentError when a
    palo counts no token."""
    e = encode(corpus)
    shape = (len(e.classes), len(e.words))
    lengths = np.bincount(e.label, weights=e.lengths, minlength=shape[0])
    for palo, length in zip(e.classes, lengths):
        if not length:
            raise EmptyDocumentError(f"palo {palo!r} has no tokens after preprocessing")
    # the records' entries reduced to (palo, word) cells, counts summed
    count = np.bincount(e.cell, weights=e.count, minlength=shape[0] * shape[1]).reshape(shape)
    idf = Vocabulary(e.words, tuple(np.count_nonzero(count, axis=0).tolist()), shape[0]).idf
    # each palo's row of counts becomes its unit row in place; nonzero lists
    # each palo's values in column order
    palo, word = np.nonzero(count)
    vals = count[palo, word] / lengths[palo] * idf[word]
    count[palo, word] = vals / _norms(palo, vals, shape[0])[palo]
    return dict(zip(e.classes, count))
