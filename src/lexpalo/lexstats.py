"""Lexical statistics: token/type counts, TTR, windowed sTTR, palo-hapax
ratios, and Zipf/Heaps power-law fits.

Corpus-level functions take a corpus encoded once by
:func:`corpus_io.token_ids`: every whitespace token as an integer word id,
4 bytes a token, and no list of token strings. Documents are arrays of
those ids. Random draws are seeded explicitly by the caller.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus_io import TokenIds
from .errors import DegenerateFitError, EmptyDocumentError, FormatError
from .seeding import derive_seed
from .vectorize import encode

ZIPF_DEFAULT_MIN_RANK = 10

# Most windows one sTTR call samples. Each window holds a start offset and a
# ratio (16 bytes as arrays, more while the ratios are collected), so the cap
# keeps one call within tens of MB; the paper samples far fewer.
STTR_MAX_WINDOWS = 1_000_000


@dataclass(frozen=True)
class SttrResult:
    """Standardized TTR: mean and standard error over sampled windows."""

    mean: float
    stderr: float
    window_length: int
    n_windows: int


@dataclass(frozen=True)
class HapaxReport:
    """Genre-exclusive vocabulary report.

    per_song maps (song id, share of the song's types that are exclusive to
    its own palo); per_palo_unique holds each palo's exclusive type set;
    shared_with_essential counts the overlap with caller-provided essential
    word lists (empty when none were given).
    """

    per_song: tuple[tuple[str, float], ...]
    per_palo_unique: dict[str, frozenset[str]]
    shared_with_essential: dict[str, int]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares line in log-log space: exponent (slope), intercept,
    coefficient of determination, and the fitted rank/size range."""

    exponent: float
    intercept: float
    r_squared: float
    fit_range: tuple[int, int]


def _previous_occurrences(doc: np.ndarray) -> np.ndarray:
    """Each position of a document of word ids -> the last earlier position
    of its word, or -1."""
    # a stable sort keeps each word's positions in order, one run per word
    order = np.argsort(doc, kind="stable")
    repeat = doc[order[1:]] == doc[order[:-1]]
    prev = np.full(len(doc), -1, dtype=np.int64)
    prev[order[1:][repeat]] = order[:-1][repeat]
    return prev


def _sttr_of(
    prev: np.ndarray, window_length: int, n_windows: int, seed: int
) -> SttrResult:
    """Mean and standard error of TTR over random contiguous windows of a
    document given as its previous-occurrence positions
    (:func:`_previous_occurrences`; any negative value means none), for
    1 <= window_length <= len(prev) and 1 <= n_windows.

    Windows are drawn with replacement from uniformly random start offsets.
    When the window covers the whole document, the single whole-document TTR
    is returned with stderr 0 (one window, no sampling).
    """
    length = len(prev)
    if window_length == length:
        return SttrResult(
            mean=np.count_nonzero(prev < 0) / length,
            stderr=0.0,
            window_length=window_length,
            n_windows=1,
        )
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, length - window_length + 1, size=n_windows)
    # A window starting at s holds one type per position in it whose word
    # last occurred before s.
    ttrs = np.array(
        [
            np.count_nonzero(prev[s : s + window_length] < s) / window_length
            for s in starts
        ]
    )
    stderr = (
        float(np.std(ttrs, ddof=1) / math.sqrt(n_windows)) if n_windows > 1 else 0.0
    )
    return SttrResult(
        mean=float(ttrs.mean()),
        stderr=stderr,
        window_length=window_length,
        n_windows=n_windows,
    )


def profile_and_sttr_rows(tok: TokenIds, n_windows: int, seed: int):
    """Rows of profile.csv (palo, L, |V|, TTR) and sttr.csv (palo, mean,
    stderr, window length, windows): one per palo, sorted, then the whole
    corpus as ``__corpus__``, with its palos in order of first appearance.

    Each palo's songs are taken as one document. The sTTR window is the
    shortest document's length, and each row's windows are seeded by
    ``derive_seed(seed, "sttr", label)``. The corpus document is held as its
    ids and previous-occurrence positions, 12 bytes a token, and each palo's
    document is a slice of it. Raises ValueError unless
    1 <= n_windows <= STTR_MAX_WINDOWS, FormatError when a palo is named
    ``__corpus__``, and EmptyDocumentError when a palo has no tokens.
    """
    if not 1 <= n_windows <= STTR_MAX_WINDOWS:
        raise ValueError(
            f"n_windows must lie in [1, {STTR_MAX_WINDOWS}], got {n_windows}"
        )
    corpus, offsets = tok.corpus, tok.offsets
    if "__corpus__" in corpus.palo_index:
        raise FormatError("palo '__corpus__' is the label of the whole-corpus row")
    # the corpus document holds the palos' documents one after another
    sizes = np.diff(offsets)
    ends = np.cumsum([sizes[list(ix)].sum() for ix in corpus.palo_index.values()])
    bounds = sorted(zip(corpus.palos, [0, *ends.tolist()], ends.tolist()))
    for palo, start, end in bounds:
        if start == end:
            raise EmptyDocumentError(
                f"palo {palo!r} has no tokens after preprocessing"
            )
    window = min(end - start for _, start, end in bounds)
    records = [i for ix in corpus.palo_index.values() for i in ix]
    prev = _previous_occurrences(
        np.concatenate([tok.ids[offsets[i] : offsets[i + 1]] for i in records])
    )

    def rows(label, prev):
        res = _sttr_of(
            prev, window, n_windows, seed=derive_seed(seed, "sttr", label)
        )
        types = np.count_nonzero(prev < 0)
        return (
            [label, len(prev), types, types / len(prev)],
            [label, res.mean, res.stderr, res.window_length, res.n_windows],
        )

    # an occurrence before a palo's slice is no occurrence in its document
    palo_rows = [rows(palo, prev[start:end] - start) for palo, start, end in bounds]
    profile_rows, sttr_rows = zip(*palo_rows, rows("__corpus__", prev))
    return list(profile_rows), list(sttr_rows)


def hapax_report(
    tok: TokenIds, essential: dict[str, Sequence[str]] | None = None
) -> HapaxReport:
    """Find each palo's exclusive vocabulary and per-song exclusivity ratios.

    A type is exclusive to a palo when it occurs in that palo's lyrics and in
    no other palo's. A song's ratio is |song types exclusive to its palo| /
    |song types|; songs without tokens are skipped. The types of each song
    are the (song, word) entries of :func:`vectorize.encode`.
    """
    corpus, e = tok.corpus, encode(tok.corpus)
    shape = (len(e.classes), len(e.words))
    present = np.bincount(e.cell, minlength=shape[0] * shape[1]).reshape(shape) > 0
    exclusive = present & (present.sum(axis=0) == 1)
    rows = dict(zip(e.classes, exclusive))
    unique = {palo: frozenset(map(e.words.__getitem__, np.flatnonzero(rows[palo]).tolist()))
              for palo in corpus.palos}
    # per song, its types exclusive to its palo and all its types
    hits = np.bincount(e.doc[exclusive.reshape(-1)[e.cell]], minlength=len(corpus.records))
    types = np.diff(e.indptr).tolist()
    per_song = [(rec.id, h / n)
                for rec, h, n in zip(corpus.records, hits.tolist(), types) if n]
    shared: dict[str, int] = {}
    if essential is not None:
        shared = {
            palo: len(unique.get(palo, frozenset()) & set(words))
            for palo, words in essential.items()
        }
    return HapaxReport(
        per_song=tuple(per_song),
        per_palo_unique=unique,
        shared_with_essential=shared,
    )


def _power_law(x, y, fit_range: tuple[int, int]) -> PowerLawFit:
    """The least-squares line through (ln x, ln y) as a :class:`PowerLawFit`
    over ``fit_range``, in closed form over the centred values. Every sum
    is exactly rounded by ``math.fsum``, so no BLAS or LAPACK kernel, and
    no summation order, sets its bits."""
    x, y = np.log(x), np.log(y)
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx, dy = x - x_mean, y - y_mean
    slope = math.fsum(dx * dy) / math.fsum(dx * dx)
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    ss_res = math.fsum(residuals * residuals)
    ss_tot = math.fsum(dy * dy)
    if ss_res < 1e-300:
        r_squared = 1.0  # perfect fit, including the constant-y case
    elif ss_tot == 0.0:
        r_squared = 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return PowerLawFit(slope, intercept, r_squared, fit_range)


def ranked_frequencies(tok: TokenIds) -> list[tuple[str, int]]:
    """Type frequencies over all corpus tokens, most frequent first
    (lexicographic tie-break)."""
    counts = np.zeros(len(tok.words), dtype=np.int64)
    np.add.at(counts, tok.ids, 1)  # np.bincount would copy the ids to int64
    by_word = np.array(
        sorted(range(len(tok.words)), key=tok.words.__getitem__), dtype=np.intp
    )
    order = by_word[np.argsort(-counts[by_word], kind="stable")]
    return list(zip([tok.words[j] for j in order.tolist()], counts[order].tolist()))


def zipf_fit(ranked: Sequence[tuple[str, int]]) -> PowerLawFit:
    """Least-squares power-law fit of a rank-frequency distribution, given
    as :func:`ranked_frequencies` lists it.

    The fit runs in log-log space over the 1-based ranks [10, |V|/10], which
    skip head and tail curvature, or over the full range [1, |V|] when the
    vocabulary is too small for that. Raises DegenerateFitError when the
    frequencies in range carry no slope information (all equal) or there
    are fewer than 2 types.
    """
    n_types = len(ranked)
    if n_types < 2:
        raise DegenerateFitError(
            f"need at least 2 distinct types to fit, got {n_types}"
        )
    lo, hi = ZIPF_DEFAULT_MIN_RANK, n_types // 10
    if hi < lo:
        lo, hi = 1, n_types
    freqs = np.array([c for _, c in ranked[lo - 1 : hi]], dtype=float)
    if freqs.max() == freqs.min():
        raise DegenerateFitError(
            f"all frequencies in rank range ({lo}, {hi}) are equal"
        )
    return _power_law(np.arange(lo, hi + 1, dtype=float), freqs, (lo, hi))


def heaps_curve(
    tok: TokenIds, seed: int, n_checkpoints: int = 200
) -> tuple[list[tuple[int, int]], PowerLawFit]:
    """Vocabulary-growth curve and a power-law fit of its tail.

    Records are shuffled once (seeded), tokens streamed in that order, and
    (tokens seen, types seen) recorded at ~n_checkpoints log-spaced token
    counts (the final point is always included). The exponent is fitted over
    the top decade of token counts. Raises ValueError unless
    n_checkpoints >= 1.

    Each word's first position in the shuffled stream is found record by
    record; the types seen at a mark are the words first seen before it.
    """
    if n_checkpoints < 1:
        raise ValueError(f"n_checkpoints must be >= 1, got {n_checkpoints}")
    offsets = tok.offsets.tolist()
    order = list(range(len(offsets) - 1))
    random.Random(seed).shuffle(order)
    total = len(tok.ids)
    if total == 0:
        raise EmptyDocumentError("corpus has no tokens")
    marks = np.unique(
        np.round(np.geomspace(1, total, num=min(n_checkpoints, total))).astype(int)
    )
    first = np.full(len(tok.words), total, dtype=np.int64)
    pos = 0  # tokens streamed so far
    for i in order:
        start, end = offsets[i], offsets[i + 1]
        np.minimum.at(first, tok.ids[start:end], np.arange(pos, pos + end - start))
        pos += end - start
    points = list(zip(marks.tolist(), np.searchsorted(np.sort(first), marks).tolist()))
    tail = [(l, v) for l, v in points if l >= total / 10]
    if len(tail) < 2:
        tail = points
    if len(tail) < 2:
        raise DegenerateFitError(
            "vocabulary-growth curve has fewer than 2 points to fit"
        )
    lengths, sizes = zip(*tail)
    return points, _power_law(lengths, sizes, (lengths[0], lengths[-1]))
