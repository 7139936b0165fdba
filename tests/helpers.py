"""Shared corpus builders and synthetic-data generators for the test suite."""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from lexpalo import corpus_io
from lexpalo.corpus_io import REQUIRED_KEYS, Corpus, LyricRecord, atomic_write


def record(rec_id, text, palo="X", **metadata):
    return LyricRecord(
        id=str(rec_id), text=text, palo=palo,
        metadata={k: str(v) for k, v in metadata.items()},
    )


def spy_on_joins(monkeypatch) -> list[int]:
    """The places of the records whose texts are joined from word ids from
    now on, in the order they are joined (in this process)."""
    seen = []
    join = corpus_io._Texts.join

    def spy(texts, i):
        seen.append(i)
        return join(texts, i)

    monkeypatch.setattr(corpus_io._Texts, "join", spy)
    return seen


def corpus(*items):
    """Build a corpus from (id, text[, palo]) tuples."""
    return Corpus(record(*item) for item in items)


def palo_tokens(corpus: Corpus, palos) -> list[str]:
    """The whitespace tokens of these palos' records, palo by palo, each
    palo's in corpus order."""
    return [
        token for palo in palos for i in corpus.palo_index[palo]
        for token in corpus.records[i].text.split()
    ]


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus atomically as JSON Lines (the schema load_corpus reads)."""
    lines = []
    for rec in corpus.records:
        obj = {"id": rec.id, "palo": rec.palo, "text": rec.text}
        for k, v in rec.metadata.items():
            if k not in REQUIRED_KEYS:
                obj[k] = v
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    atomic_write(path, "".join(lines))


def corpus_from_texts(texts, palo="X", prefix="d"):
    return Corpus(
        record(f"{prefix}{i}", text, palo) for i, text in enumerate(texts)
    )


def labeled_corpus(texts_by_palo):
    """Build a corpus from {palo: [text, ...]} with ids "<palo>-<i>"."""
    records = []
    for palo, texts in texts_by_palo.items():
        for i, text in enumerate(texts):
            records.append(record(f"{palo}-{i}", text, palo))
    return Corpus(records)


def random_labeled_corpus(
    rng: random.Random,
    n_palos=3,
    docs_per_palo=(3, 6),
    pool_size=20,
    doc_len=(2, 10),
    shared_pool=True,
):
    """A corpus of plain ASCII tokens for classifier/statistics tests.

    With ``shared_pool`` the palos draw from one overlapping word pool
    (noisy, realistic); without it each palo gets a disjoint pool
    (perfectly separable).
    """
    texts_by_palo = {}
    for p in range(n_palos):
        palo = f"palo{p}"
        if shared_pool:
            pool = [f"w{i}" for i in range(pool_size)]
        else:
            pool = [f"p{p}w{i}" for i in range(pool_size)]
        n_docs = rng.randint(*docs_per_palo)
        texts = []
        for _ in range(n_docs):
            n_tok = rng.randint(*doc_len)
            texts.append(" ".join(rng.choice(pool) for _ in range(n_tok)))
        texts_by_palo[palo] = texts
    return labeled_corpus(texts_by_palo)


# Fixed spellings (some accented, one with n-with-tilde) so that within any
# generated corpus every post-stripping word form traces back to exactly one
# accent pattern. That keeps the filtering pipeline idempotent: re-running it
# regroups tokens by their already-stripped forms, which only coincide with
# the first pass when accent variants of the same word never mix.
SPANISH_POOL = (
    "casa", "perro", "cádiz", "niña", "corazón", "mar", "sol", "pena",
    "camino", "jaleo", "señora", "alegría", "compás", "duende", "río",
    "luz", "sueño", "baila", "canta", "llora", "verde", "luna",
)

PUNCT_POOL = ("", ",", ";", ".", ":", "¡", "!", "¿", "?", "@", "#", "\\", "$")


def random_spanish_corpus(
    rng: random.Random,
    n_records=(2, 8),
    tokens_per_record=(0, 12),
    capitalize_p=0.3,
    phrase_p=0.05,
):
    """Accent-consistent synthetic lyrics for preprocessing property tests.

    Tokens come from :data:`SPANISH_POOL` with random initial capitalization
    and random punctuation wrappers; occasionally a multiword proper name is
    inserted to exercise phrase concatenation.
    """
    records = []
    for i in range(rng.randint(*n_records)):
        parts = []
        for _ in range(rng.randint(*tokens_per_record)):
            if rng.random() < phrase_p:
                parts.append(rng.choice(("Santa Ana", "Muralla Real")))
                continue
            word = rng.choice(SPANISH_POOL)
            if rng.random() < capitalize_p:
                word = word[0].upper() + word[1:]
            parts.append(rng.choice(PUNCT_POOL) + word + rng.choice(PUNCT_POOL))
        records.append(record(f"r{i}", " ".join(parts), rng.choice(("A", "B"))))
    return Corpus(records)


def _benchmark_generator():
    """perfbench/corpus.py, imported once (its dataclass needs the module
    registered)."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def generated_corpus(seed, counts=(12, 8, 5, 1), n_words=300):
    """A small corpus from the benchmark's lyric generator: accents, case,
    punctuation, stop words, phrases, two small palos and two songs made
    only of interjections (which preprocess to nothing)."""
    gen = _benchmark_generator()
    shape = replace(gen.REFERENCE, counts=counts, n_words=n_words, n_names=20,
                    n_empty=2)
    records, _ = gen.generate(seed, shape)
    return Corpus(LyricRecord(r["id"], r["text"], r["palo"]) for r in records)


def benchmark_corpus(seed, shape="REFERENCE"):
    """A corpus of one of the benchmark generator's full shapes
    (``REFERENCE`` or ``WIDE``), as the benchmark writes it."""
    gen = _benchmark_generator()
    records, _ = gen.generate(seed, getattr(gen, shape))
    return Corpus(LyricRecord(r["id"], r["text"], r["palo"]) for r in records)


def empty_rows(matrix) -> tuple[int, ...]:
    """The positions of a CSR matrix's all-zero rows."""
    return tuple(np.flatnonzero(np.diff(matrix.indptr) == 0).tolist())


def distance(m, a: str, b: str) -> float:
    """The distance between two labels of a ``DistanceMatrix``."""
    return float(m.values[m.labels.index(a), m.labels.index(b)])
