"""Independent oracle for the repeated-training experiments.

It re-derives, from the preprocessed corpus alone, what the package's
``run_trainings``, ``alpha_sweep`` and ``essential_words`` return: the seeded
stratified splits, per-run vocabularies, TF-IDF weighting, smoothed
multinomial naive Bayes and its argmax. It shares no code with the package.
Instead of vectorising every round from text, it encodes the corpus once as a
document-term count matrix over the sorted global vocabulary and slices it,
which keeps checking cheap next to the code under test.

Predicted labels, confusion counts, sweep accuracies (exact ratios of
counts), best alpha and essential-word lists are compared exactly; the
floating-point path differs from the package's only in rounding, which moves
no argmax or ranking on the benchmark corpora.
"""

from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import scipy.sparse as sp


def derive_seed(*parts) -> int:
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def run_seeds(master: int, n_runs: int) -> list[int]:
    return [derive_seed(master, "run", i) for i in range(n_runs)]


class Encoded:
    """A preprocessed corpus as a sparse count matrix plus labels."""

    def __init__(self, records):
        docs = [rec.text.split() for rec in records]
        self.words = sorted({t for doc in docs for t in doc})
        index = {w: j for j, w in enumerate(self.words)}
        indptr = np.cumsum([0] + [len(d) for d in docs])
        cols = np.fromiter((index[t] for d in docs for t in d), dtype=np.int64,
                           count=int(indptr[-1]))
        self.counts = sp.csr_matrix(
            (np.ones(len(cols)), cols, indptr), shape=(len(docs), len(self.words))
        )
        self.counts.sum_duplicates()
        self.nonempty = np.array([bool(d) for d in docs])
        self.strata: dict[str, list[int]] = {}
        for pos, rec in enumerate(records):
            self.strata.setdefault(rec.palo, []).append(pos)
        self.classes = tuple(sorted(self.strata))
        label_of = {c: k for k, c in enumerate(self.classes)}
        self.labels = np.array([label_of[rec.palo] for rec in records])
        self.n_types = [
            int((self.counts[self.labels == k].getnnz(axis=0) > 0).sum())
            for k in range(len(self.classes))
        ]

    def split(self, train_fraction: float, seed: int):
        """Train and validation positions, both sorted."""
        train, val = [], []
        for palo, positions in self.strata.items():
            n = len(positions)
            n_train = min(max(math.floor(train_fraction * n + 0.5), 1), n - 1)
            order = list(positions)
            random.Random(derive_seed(seed, "stratum", palo)).shuffle(order)
            train += order[:n_train]
            val += order[n_train:]
        return np.array(sorted(train)), np.array(sorted(val))

    def fit(self, train_fraction: float, seed: int):
        """One round up to the class masses: (train cols, idf, masses,
        per-class train counts, validation positions)."""
        train, val = self.split(train_fraction, seed)
        train = train[self.nonempty[train]]
        x = self.counts[train]
        df = np.bincount(x.indices, minlength=x.shape[1])
        cols = np.flatnonzero(df)
        idf = 1.0 + np.log(len(train) / df[cols])
        weights = _unit_rows(x[:, cols] @ sp.diags(idf))
        y = self.labels[train]
        indicator = sp.csr_matrix(
            (np.ones(len(y)), (y, np.arange(len(y)))),
            shape=(len(self.classes), len(y)),
        )
        mass = np.asarray((indicator @ weights).todense())
        return cols, idf, mass, np.bincount(y, minlength=len(self.classes)), val

    def _validation(self, cols, idf, val):
        return _unit_rows(self.counts[val][:, cols] @ sp.diags(idf))

    def confusion(self, alpha: float, train_fraction: float, seed: int) -> np.ndarray:
        cols, idf, mass, counts, val = self.fit(train_fraction, seed)
        smoothed = alpha + mass
        logprob = np.log(smoothed) - np.log(smoothed.sum(axis=1))[:, None]
        scores = self._validation(cols, idf, val) @ logprob.T
        predicted = np.argmax(np.asarray(scores) + np.log(counts / counts.sum()), axis=1)
        k = len(self.classes)
        return np.bincount(self.labels[val] * k + predicted, minlength=k * k).reshape(k, k)

    def sweep_accuracies(self, grid, train_fraction: float, seed: int) -> np.ndarray:
        """Validation accuracy at every grid alpha for one split."""
        cols, idf, mass, counts, val = self.fit(train_fraction, seed)
        rows = self._validation(cols, idf, val).tocsc()
        used = np.flatnonzero(rows.getnnz(axis=0))
        rows = rows[:, used]
        row_mass = np.asarray(rows.sum(axis=1)).ravel()
        log_prior = np.log(counts / counts.sum())
        truth = self.labels[val]
        acc = np.empty(len(grid))
        for g, alpha in enumerate(grid):
            log_denom = np.log(alpha * len(cols) + mass.sum(axis=1))
            scores = rows @ np.log(alpha + mass[:, used]).T
            scores = scores - row_mass[:, None] * log_denom + log_prior
            acc[g] = np.count_nonzero(np.argmax(scores, axis=1) == truth) / len(val)
        return acc

    def essential(self, alpha: float, n_runs: int, train_fraction: float,
                  master: int, epsilon: float):
        """Per-palo essential-word lists, by the package's documented rule."""
        n_classes, n_words = len(self.classes), len(self.words)
        deltas = np.zeros((n_classes, n_words))
        total_floor = np.zeros(n_classes)
        flagged = np.zeros((n_classes, n_words), dtype=bool)
        seen = np.zeros(n_words, dtype=bool)
        for seed in run_seeds(master, n_runs):
            cols, _, mass, _, _ = self.fit(train_fraction, seed)
            denom = alpha * len(cols) + mass.sum(axis=1)
            floor = alpha / denom
            probs = (alpha + mass) / denom[:, None]
            total_floor += floor
            deltas[:, cols] += probs - floor[:, None]
            flagged[:, cols] |= probs <= probs.min(axis=1, keepdims=True) * (1.0 + epsilon)
            seen[cols] = True
        present = np.flatnonzero(seen)
        means = (deltas[:, present] + total_floor[:, None]) / n_runs
        per_palo, counts, normalized = {}, {}, {}
        for k, palo in enumerate(self.classes):
            order = np.lexsort((present, -means[k]))  # mean desc, then word
            ranks = np.flatnonzero(flagged[k, present[order]])
            if not len(ranks):
                raise ValueError(f"no floor word for {palo!r}")
            threshold = int(ranks[0])
            per_palo[palo] = tuple(self.words[j] for j in present[order[:threshold]])
            counts[palo] = threshold
            normalized[palo] = threshold / self.n_types[k] if self.n_types[k] else 0.0
        return per_palo, counts, normalized


def _unit_rows(m) -> sp.csr_matrix:
    m = sp.csr_matrix(m)
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    return sp.csr_matrix(sp.diags(1.0 / norms) @ m)


def sweep_mean(per_run) -> tuple[np.ndarray, int]:
    """Mean accuracy over runs and the argmax grid position (first max)."""
    mean = np.mean(per_run, axis=0)
    return mean, int(np.argmax(mean))
