"""Seeded synthetic lyric corpora for the benchmark (stdlib and numpy only).

Songs are lines of Zipf-distributed words. Every palo mixes a shared word
distribution with a palo-specific one (the same words, ranked in a
palo-specific order), so the classifier has signal but not a trivial one.
The text carries everything the preprocessing pipeline acts on:

* accented word forms, n-with-tilde and u-with-diaeresis (accent stripping);
* a capital on the first word of each line and a few random capitals, which
  are rare for ordinary words and so get lowered (case folding);
* proper names that are always capitalised, which keep their capital;
* punctuation from the default set, including inverted marks;
* stop words from the packaged Spanish list (stop-word removal);
* the packaged multiword names, e.g. "Santa Ana" (phrase concatenation);
* a few songs made only of interjections, which preprocess to nothing.

Two palos below the default ``--min-lyrics`` of 100 are added so that
``filter_top_palos`` has records to drop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Common Spanish function words; all but a handful are in the packaged
# stop-word list, the rest become ordinary (very frequent) words.
STOP_WORDS = (
    "de la que el en y a los se del las un por con no una su para es al lo "
    "como mi me te si le yo tu ni pa ay sin sobre cuando porque muy todo "
    "nos ya hay más eso esa ese este esta donde quien tanto bien"
).split()

INTERJECTIONS = ("¡Ay!", "ay,", "¡olé!", "olé,", "¡ay", "ay!", "ay;")

# The packaged concat map joins these (case-insensitive) into one token.
PHRASES = (
    "Santa Ana", "Jerez de la Frontera", "Muralla Real", "San Fernando",
    "Santa María", "santa ana", "san fernando",
)

LINE_END = ("", "", "", ",", ",", ".", ";", ":", "!", "?")

PALOS = (
    "alegrías", "bulerías", "fandangos", "malagueñas",
    "seguiriyas", "soleares", "tangos", "tientos",
)
# Songs per palo in the reference shape: 2,216 in total, all >= 100.
REFERENCE_COUNTS = (236, 352, 402, 218, 246, 301, 262, 199)
# Palos that filter_top_palos removes at the default --min-lyrics of 100.
SMALL_PALOS = (("cabales", 31), ("trilleras", 12))

_ONSETS = (
    "b", "c", "d", "f", "g", "j", "l", "m", "n", "p", "r", "s", "t", "v",
    "ll", "ch", "br", "tr", "pl", "gr", "cr", "ñ", "qu", "z",
)
_VOWELS = "aeiou"
_ACUTE = {"a": "á", "e": "é", "i": "í", "o": "ó", "u": "ú"}


@dataclass(frozen=True)
class Shape:
    """Parameters of one generated corpus."""

    counts: tuple[int, ...] = REFERENCE_COUNTS
    n_words: int = 8100  # content-word lexicon size
    zipf_s: float = 1.07  # exponent of the word-rank distribution
    specific_share: float = 0.1  # share of content words drawn palo-specifically
    line_words: tuple[int, int] = (6, 12)  # content+stop words per line
    lines: tuple[int, int] = (8, 20)
    stop_share: float = 0.34
    name_share: float = 0.012
    phrase_share: float = 0.002
    random_capital: float = 0.01
    n_names: int = 400
    n_empty: int = 7  # songs made only of interjections


REFERENCE = Shape()
# The lexicon workload: 1.5 times the songs, a lexicon twice as wide.
WIDE = Shape(
    counts=tuple(3 * c // 2 for c in REFERENCE_COUNTS),
    n_words=2 * REFERENCE.n_words,
    n_names=2 * REFERENCE.n_names,
    n_empty=2 * REFERENCE.n_empty,
)


def _make_words(rng: np.random.Generator, n: int, names: bool) -> list[str]:
    """Distinct syllabic word forms; some accented, some with n-tilde or u-umlaut."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        n_syl = int(rng.integers(2, 5))
        syllables = [
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(5))]
            for _ in range(n_syl)
        ]
        if rng.random() < 0.3:
            syllables[-1] += "nrsl"[int(rng.integers(4))]
        word = "".join(syllables)
        if rng.random() < 0.18:  # acute accent on the last vowel
            k = max(i for i, ch in enumerate(word) if ch in _VOWELS)
            word = word[:k] + _ACUTE[word[k]] + word[k + 1:]
        elif rng.random() < 0.02:
            word = word.replace("gue", "güe").replace("gui", "güi") + "güe"
        if names:
            word = word.capitalize()
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def _draw(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    ix = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    return np.minimum(ix, len(cdf) - 1)


def _capital(word: str) -> str:
    return word[:1].upper() + word[1:]


def _songs(rng: np.random.Generator, shape: Shape, labels: list[int],
           n_labels: int) -> list[str]:
    """Texts of one song per label, drawn token by token with numpy."""
    words = _make_words(rng, shape.n_words, names=False)
    names = _make_words(rng, shape.n_names, names=True)
    # One string table: content words, names, phrases, stop words.
    table = words + names + list(PHRASES) + STOP_WORDS
    name0, phrase0 = len(words), len(words) + len(names)
    stop0 = phrase0 + len(PHRASES)
    shared_cdf = np.cumsum(_zipf(shape.n_words, shape.zipf_s))
    # palo-specific: the same Zipf law over a palo's own ranking of the lexicon
    perms = np.stack([rng.permutation(shape.n_words) for _ in range(n_labels)])

    n_songs = len(labels)
    n_lines = rng.integers(shape.lines[0], shape.lines[1] + 1, n_songs)
    lengths = rng.integers(shape.line_words[0], shape.line_words[1] + 1,
                           int(n_lines.sum()))
    song_of_line = np.repeat(np.arange(n_songs), n_lines)
    palo_of_tok = np.repeat(np.asarray(labels)[song_of_line], lengths)
    n = int(lengths.sum())

    content = _draw(rng, shared_cdf, n)
    specific = rng.random(n) < shape.specific_share
    content[specific] = perms[palo_of_tok[specific], content[specific]]
    idx = content
    kind = rng.random(n)
    cuts = np.cumsum([shape.stop_share, shape.name_share, shape.phrase_share])
    is_stop = kind < cuts[0]
    is_name = (kind >= cuts[0]) & (kind < cuts[1])
    is_phrase = (kind >= cuts[1]) & (kind < cuts[2])
    idx[is_stop] = stop0 + _draw(rng, np.cumsum(_zipf(len(STOP_WORDS), 0.9)),
                                 int(is_stop.sum()))
    idx[is_name] = name0 + _draw(rng, np.cumsum(_zipf(len(names), 0.8)),
                                 int(is_name.sum()))
    idx[is_phrase] = phrase0 + rng.integers(len(PHRASES), size=int(is_phrase.sum()))
    capital = rng.random(n) < shape.random_capital
    line_start = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    capital[line_start] = True
    tokens = [table[i] for i in idx.tolist()]
    for i in np.flatnonzero(capital).tolist():
        tokens[i] = _capital(tokens[i])

    ends = rng.integers(len(LINE_END), size=len(lengths)).tolist()
    lines = []
    for start, length, end in zip(line_start.tolist(), lengths.tolist(), ends):
        mark = LINE_END[end]
        opener = "¡" if mark == "!" else "¿" if mark == "?" else ""
        lines.append(opener + " ".join(tokens[start:start + length]) + mark)
    songs = []
    pos = 0
    for k in n_lines.tolist():
        songs.append("\n".join(lines[pos:pos + k]))
        pos += k
    return songs


def _empty_song(rng: np.random.Generator) -> str:
    n = int(rng.integers(2, 7))
    return " ".join(INTERJECTIONS[int(i)] for i in rng.integers(len(INTERJECTIONS), size=n))


def generate(seed: int, shape: Shape = REFERENCE, held_out: int = 0):
    """Build a corpus as a list of record dicts, plus ``held_out`` extra songs.

    The held-out songs are drawn from the same palo distributions but are not
    part of the corpus; they are returned as (palo, text) pairs.
    """
    rng = np.random.default_rng([seed, len(shape.counts), shape.n_words])
    palos = list(PALOS[: len(shape.counts)])
    all_palos = palos + [p for p, _ in SMALL_PALOS]
    labels = [k for k, c in enumerate(shape.counts) for _ in range(c)]
    labels += [len(palos) + k for k, (_, c) in enumerate(SMALL_PALOS) for _ in range(c)]
    labels = [labels[i] for i in rng.permutation(len(labels)).tolist()]
    extra_labels = rng.integers(len(palos), size=held_out).tolist()
    texts = _songs(rng, shape, labels + extra_labels, len(all_palos))
    # empty songs only among the palos that survive filtering
    kept = [i for i, k in enumerate(labels) if k < len(palos)]
    for i in rng.choice(kept, size=shape.n_empty, replace=False).tolist():
        texts[i] = _empty_song(rng)
    records = [
        {"id": f"s{i:05d}", "palo": all_palos[k], "text": texts[i]}
        for i, k in enumerate(labels)
    ]
    extra = [(palos[k], texts[len(labels) + j]) for j, k in enumerate(extra_labels)]
    return records, extra


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
