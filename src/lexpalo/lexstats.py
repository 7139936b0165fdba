"""Lexical statistics: token/type counts, TTR, windowed sTTR, palo-hapax
ratios, and Zipf/Heaps power-law fits.

Documents are token sequences; corpus-level functions tokenize record texts
by whitespace. Random draws are seeded explicitly by the caller.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus_io import Corpus
from .errors import (
    DegenerateFitError,
    EmptyDocumentError,
    WindowTooLongError,
)

ZIPF_DEFAULT_MIN_RANK = 10

# Most windows one sTTR call samples. Each window holds a start offset and a
# ratio (16 bytes as arrays, more while the ratios are collected), so the cap
# keeps one call within tens of MB; the paper samples far fewer.
STTR_MAX_WINDOWS = 1_000_000


@dataclass(frozen=True)
class LexicalProfile:
    """Token count L, type count |V|, and type-token ratio of one document."""

    tokens: int
    types: int
    ttr: float


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


def profile(document: Sequence[str]) -> LexicalProfile:
    """Token/type counts and TTR of one tokenized document."""
    n_tokens = len(document)
    if n_tokens == 0:
        raise EmptyDocumentError("cannot profile a document with no tokens")
    n_types = len(set(document))
    return LexicalProfile(tokens=n_tokens, types=n_types, ttr=n_types / n_tokens)


def sttr(
    document: Sequence[str],
    window_length: int,
    n_windows: int,
    seed: int,
) -> SttrResult:
    """Mean and standard error of TTR over random contiguous windows.

    Windows are drawn with replacement from uniformly random start offsets.
    When the window covers the whole document, the single whole-document TTR
    is returned with stderr 0 (one window, no sampling).
    """
    length = len(document)
    if length == 0:
        raise EmptyDocumentError("cannot sample windows from an empty document")
    if window_length < 1:
        raise ValueError(f"window_length must be >= 1, got {window_length}")
    if not 1 <= n_windows <= STTR_MAX_WINDOWS:
        raise ValueError(
            f"n_windows must lie in [1, {STTR_MAX_WINDOWS}], got {n_windows}"
        )
    if window_length > length:
        raise WindowTooLongError(
            f"window of {window_length} tokens exceeds document length {length}"
        )
    if window_length == length:
        whole = profile(document)
        return SttrResult(
            mean=whole.ttr, stderr=0.0, window_length=window_length, n_windows=1
        )
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, length - window_length + 1, size=n_windows)
    ttrs = np.array(
        [
            len(set(document[s : s + window_length])) / window_length
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


def hapax_report(
    corpus: Corpus, essential: dict[str, Sequence[str]] | None = None
) -> HapaxReport:
    """Find each palo's exclusive vocabulary and per-song exclusivity ratios.

    A type is exclusive to a palo when it occurs in that palo's lyrics and in
    no other palo's. A song's ratio is |song types exclusive to its palo| /
    |song types|; songs without tokens are skipped.
    """
    palo_types: dict[str, set[str]] = {p: set() for p in corpus.palos}
    for rec in corpus.records:
        palo_types[rec.palo].update(rec.text.split())
    presence: Counter[str] = Counter()
    for types in palo_types.values():
        presence.update(types)
    unique = {
        palo: frozenset(w for w in types if presence[w] == 1)
        for palo, types in palo_types.items()
    }
    per_song = []
    for rec in corpus.records:
        song_types = set(rec.text.split())
        if not song_types:
            continue
        ratio = len(song_types & unique[rec.palo]) / len(song_types)
        per_song.append((rec.id, ratio))
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


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_res < 1e-300:
        r_squared = 1.0  # perfect fit, including the constant-y case
    elif ss_tot == 0.0:
        r_squared = 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def ranked_frequencies(corpus: Corpus) -> list[tuple[str, int]]:
    """Type frequencies over all corpus tokens, most frequent first
    (lexicographic tie-break)."""
    counts = Counter(tok for rec in corpus.records for tok in rec.text.split())
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def zipf_fit(
    corpus: Corpus, fit_range: tuple[int, int] | None = None
) -> PowerLawFit:
    """Least-squares power-law fit of the rank-frequency distribution.

    The fit runs over 1-based ranks [lo, hi] in log-log space; the default
    range [10, |V|/10] skips head and tail curvature and falls back to the
    full range when the vocabulary is too small for it. Raises
    DegenerateFitError when the frequencies in range carry no slope
    information (all equal) or there are fewer than 2 types.
    """
    return _zipf_from_ranked(ranked_frequencies(corpus), fit_range)


def _zipf_from_ranked(
    ranked: Sequence[tuple[str, int]], fit_range: tuple[int, int] | None = None
) -> PowerLawFit:
    """:func:`zipf_fit` of an already ranked type-frequency list."""
    n_types = len(ranked)
    if n_types < 2:
        raise DegenerateFitError(
            f"need at least 2 distinct types to fit, got {n_types}"
        )
    if fit_range is None:
        lo, hi = ZIPF_DEFAULT_MIN_RANK, n_types // 10
        if hi < lo:
            lo, hi = 1, n_types
    else:
        lo, hi = fit_range
        if not 1 <= lo < hi:
            raise ValueError(f"invalid fit range ({lo}, {hi})")
        hi = min(hi, n_types)
        if hi - lo < 1:
            raise ValueError(
                f"fit range ({lo}, {hi}) leaves fewer than 2 ranks "
                f"for a vocabulary of {n_types} types"
            )
    freqs = np.array([c for _, c in ranked[lo - 1 : hi]], dtype=float)
    if freqs.max() == freqs.min():
        raise DegenerateFitError(
            f"all frequencies in rank range ({lo}, {hi}) are equal"
        )
    ranks = np.arange(lo, hi + 1, dtype=float)
    slope, intercept, r_squared = _linear_fit(np.log(ranks), np.log(freqs))
    return PowerLawFit(
        exponent=slope, intercept=intercept, r_squared=r_squared, fit_range=(lo, hi)
    )


def heaps_curve(
    corpus: Corpus, seed: int, n_checkpoints: int = 200
) -> tuple[list[tuple[int, int]], PowerLawFit]:
    """Vocabulary-growth curve and a power-law fit of its tail.

    Records are shuffled once (seeded), tokens streamed in that order, and
    (tokens seen, types seen) recorded at ~n_checkpoints log-spaced token
    counts (the final point is always included). The exponent is fitted over
    the top decade of token counts.
    """
    order = list(range(len(corpus.records)))
    random.Random(seed).shuffle(order)
    stream = [
        tok for i in order for tok in corpus.records[i].text.split()
    ]
    total = len(stream)
    if total == 0:
        raise EmptyDocumentError("corpus has no tokens")
    marks = np.unique(
        np.round(np.geomspace(1, total, num=min(n_checkpoints, total))).astype(int)
    )
    points: list[tuple[int, int]] = []
    seen: set[str] = set()
    mark_iter = iter(marks.tolist())
    next_mark = next(mark_iter)
    for pos, tok in enumerate(stream, start=1):
        seen.add(tok)
        if pos == next_mark:
            points.append((pos, len(seen)))
            next_mark = next(mark_iter, None)
            if next_mark is None:
                break
    tail = [(l, v) for l, v in points if l >= total / 10]
    if len(tail) < 2:
        tail = points
    if len(tail) < 2:
        raise DegenerateFitError(
            "vocabulary-growth curve has fewer than 2 points to fit"
        )
    xs = np.log([l for l, _ in tail])
    ys = np.log([v for _, v in tail])
    slope, intercept, r_squared = _linear_fit(xs, ys)
    fit = PowerLawFit(
        exponent=slope,
        intercept=intercept,
        r_squared=r_squared,
        fit_range=(tail[0][0], tail[-1][0]),
    )
    return points, fit
