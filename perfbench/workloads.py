"""The four benchmark workloads.

Each workload prepares its inputs from the workload seed (untimed), sets up
three times (``setup_s`` is the median), then measures calls into the
package's public functions. Every call is checked: the repeated-training
results against ``reference``, the classifier's single-text labels against
its batch path, and the lexicon reports against the previous pass.

A workload returns the issue-named metrics, the shape of its corpus and its
operation counts. In a traced run (``Bench.tracer`` set) it runs a fixed
amount of work instead of a timed loop (see ``_traced_pass``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus as gen
import reference as ref
from clock import PoolClock, SpeedClock

ALPHA = 0.11
TRAIN_FRACTION = 0.85
GRID_STEP = 0.005
EPSILON = 1e-9
SETUPS = 3
CLASSIFY_SETUPS = 9  # loading a model takes ~30 ms, so take more samples
# The paper protocol: train --runs 100, sweep-alpha --runs 200, essential --runs 500.
PAPER_RUNS = {"train": 100, "sweep": 200, "essential": 500}
HELD_OUT = 2000
CLASSIFY_MIN_TEXTS = 1000


@dataclass
class Bench:
    """State shared by one benchmark invocation."""

    seed: int
    seconds: float
    workdir: Path
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    detail: dict = field(default_factory=dict)
    pool_rounds: int = 0  # rounds dispatched to worker processes
    clock: SpeedClock | PoolClock | None = None
    probes: list = field(default_factory=list)  # probe times of every clock

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @contextlib.contextmanager
    def measuring(self, pooled: bool = False):
        """Correct the times taken inside for machine speed (untraced runs);
        ``pooled`` when the timed calls run on worker processes."""
        if self.tracer is not None:
            yield
            return
        with PoolClock(self.workdir) if pooled else SpeedClock() as clock:
            self.clock = clock
            try:
                yield
            finally:
                self.clock = None
                self.probes += clock.lengths

    def timed(self, fn, *args, **kwargs):
        """Call fn; returns (result, seconds, wall seconds)."""
        if self.clock is not None:
            return self.clock.timed(fn, *args, **kwargs)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        return result, wall, wall

    @contextlib.contextmanager
    def untraced(self):
        """Keep a check's own calls into the package out of the trace."""
        enabled = self.tracer is not None and self.tracer.enabled
        if enabled:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if enabled:
                self.tracer.enabled = True


def _quiet(fn, *args):
    """Call with the CLI's own stdout captured; the last line is ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------
# corpora and set-up

def _write_corpus(bench: Bench, shape, held_out: int = 0):
    records, extra = gen.generate(bench.seed, shape, held_out=held_out)
    path = bench.workdir / "corpus.jsonl"
    gen.write_jsonl(records, path)
    return path, extra


def _load_and_preprocess(path):
    from lexpalo import default_config, filter_top_palos, load_corpus
    from lexpalo.preprocess import preprocess_with_decisions

    raw = load_corpus(path)
    filtered = filter_top_palos(raw, 100)
    processed, _ = preprocess_with_decisions(filtered, default_config())
    return filtered, processed


def _set_up(bench: Bench, path, repeats: int = SETUPS):
    """Repeat the set-up; records setup_s and the corpus shape."""
    times, results = [], []
    with bench.measuring():
        for _ in range(repeats):
            result, elapsed, _ = bench.timed(_load_and_preprocess, path)
            times.append(elapsed)
            results.append(result)
    filtered, processed = results[-1]
    for other in results[:-1]:
        bench.check(other[1] == processed, "set-up is not deterministic")
    bench.put("setup_s", statistics.median(times), "s")
    raw_tokens = sum(len(r.text.split()) for r in filtered)
    tokens = [t for r in processed for t in r.text.split()]
    bench.detail["corpus"] = {
        "songs": len(processed), "palos": len(processed.palos),
        "raw_tokens": raw_tokens, "tokens": len(tokens), "types": len(set(tokens)),
        "empty_records": sum(1 for r in processed if not r.text),
    }
    return processed


# ---------------------------------------------------------------------------
# repeated-training workloads (protocol, protocol-2w)

class _Phase:
    """One repeated-training command, called in batches of ``n`` rounds."""

    def __init__(self, name, n_min, call, check):
        self.name, self.n_min, self.call, self.check = name, n_min, call, check
        self.n = n_min
        self.per_round: list[float] = []
        self.wall_per_round: list[float] = []
        self.calls = 0

    def run(self, bench: Bench, n: int, record: bool) -> float:
        """One call of n rounds, checked; returns its wall time."""
        master = ref.derive_seed(bench.seed, self.name, self.calls)
        self.calls += 1
        result, elapsed, wall = bench.timed(self.call, n, master)
        self.check(bench, result, n, master)
        if record:
            self.per_round.append(elapsed / n)
            self.wall_per_round.append(wall / n)
        return wall


def _protocol_phases(processed, threads: int, essential: bool, reference):
    from lexpalo import SplitSpec, experiments

    def spec(master):
        return SplitSpec(train_fraction=TRAIN_FRACTION, seed=master)

    def train(n, master):
        runs = experiments.run_trainings(processed, ALPHA, n, spec(master), threads=threads)
        return runs, experiments.aggregate(runs)

    def check_train(bench, result, n, master):
        runs, report = result
        bench.check(len(runs) == n and report.n_runs == n, "train: wrong run count")
        for run, seed in zip(runs, ref.run_seeds(master, n)):
            _, val = reference.split(TRAIN_FRACTION, seed)
            expected = reference.confusion(ALPHA, TRAIN_FRACTION, seed)
            accuracies = list(run.per_class_accuracy.values()) + [run.global_accuracy]
            bench.check(
                run.seed == seed
                and int(run.confusion.sum()) == len(val)
                and all(0.0 <= a <= 1.0 for a in accuracies)
                and np.array_equal(run.confusion, expected),
                f"train: run {seed} differs from the reference",
            )
        bench.check(
            bool(np.allclose(report.mean_confusion.sum(axis=1), 1.0)),
            "train: mean confusion rows do not sum to 1",
        )

    def sweep(n, master):
        return experiments.alpha_sweep(processed, GRID_STEP, n, spec(master), threads=threads)

    def check_sweep(bench, result, n, master):
        per_run = [reference.sweep_accuracies(result.grid, TRAIN_FRACTION, s)
                   for s in ref.run_seeds(master, n)]
        mean, best = ref.sweep_mean(per_run)
        bench.check(
            len(result.grid) == round(1 / GRID_STEP)
            and all(0.0 <= a <= 1.0 for a in result.mean_accuracy)
            and result.mean_accuracy == tuple(float(a) for a in mean)
            and result.best_alpha == result.grid[best],
            f"sweep: master seed {master} differs from the reference",
        )

    def essential_words(n, master):
        return experiments.essential_words(processed, ALPHA, n, spec(master), epsilon=EPSILON)

    def check_essential(bench, result, n, master):
        per_palo, counts, normalized = reference.essential(
            ALPHA, n, TRAIN_FRACTION, master, EPSILON)
        bench.check(
            result.per_palo == per_palo and result.counts == counts
            and result.normalized == normalized,
            f"essential: master seed {master} differs from the reference",
        )

    # pooled calls give each worker at least two rounds, so the pool balances
    batch = 1 if threads == 1 else 2 * threads
    phases = [_Phase("train", batch, train, check_train),
              _Phase("sweep", batch, sweep, check_sweep)]
    if essential:
        phases.append(_Phase("essential", 2, essential_words, check_essential))
    return phases


def _same_as_serial(bench: Bench, processed, threads: int):
    """threads > 1 must reproduce the serial results exactly."""
    from lexpalo import SplitSpec, experiments

    spec = SplitSpec(train_fraction=TRAIN_FRACTION, seed=ref.derive_seed(bench.seed, "serial"))
    fields = ("seed", "classes", "per_class_accuracy", "global_accuracy")
    pooled, serial = (experiments.run_trainings(processed, ALPHA, threads, spec, threads=t)
                      for t in (threads, 1))
    bench.check(
        all(np.array_equal(a.confusion, b.confusion)
            and all(getattr(a, f) == getattr(b, f) for f in fields)
            for a, b in zip(pooled, serial)) and len(pooled) == len(serial),
        "train: pooled runs differ from serial runs",
    )
    pooled, serial = (experiments.alpha_sweep(processed, GRID_STEP, threads, spec, threads=t)
                      for t in (threads, 1))
    bench.check(pooled == serial, "sweep: pooled result differs from serial")


def protocol(bench: Bench, threads: int = 1) -> None:
    """train + aggregate, alpha_sweep and (serial only) essential_words."""
    path, _ = _write_corpus(bench, gen.REFERENCE)
    processed = _set_up(bench, path, repeats=1 if bench.tracer else SETUPS)
    reference = ref.Encoded(processed.records)
    phases = _protocol_phases(processed, threads, threads == 1, reference)
    if threads > 1:
        _same_as_serial(bench, processed, threads)

    if bench.tracer:
        # fixed work: one batch per phase
        def work():
            for phase in phases:
                phase.calls = 0  # both passes run the same seeds
                n = max(phase.n_min, 2)
                phase.run(bench, n, record=False)
                if threads > 1:
                    bench.pool_rounds += n
        _traced_pass(bench, lambda: _load_and_preprocess(path), work)
        return

    with bench.measuring(pooled=threads > 1):
        # warm-up call per phase, which also picks the batch size: about
        # seconds/20 of work per call, a multiple of the worker count
        for phase in phases:
            per_round = phase.run(bench, phase.n_min, record=False) / phase.n_min
            wanted = math.ceil(bench.seconds / 20 / per_round / threads) * threads
            phase.n = min(max(phase.n_min, wanted), PAPER_RUNS[phase.name])
        start, cycles = time.perf_counter(), 0
        while time.perf_counter() - start < bench.seconds or cycles < 3:
            for phase in phases:
                phase.run(bench, phase.n, record=True)
            cycles += 1

    job = wall_job = 0.0
    for phase in phases:
        per_round = statistics.median(phase.per_round)
        job += PAPER_RUNS[phase.name] * per_round
        wall_job += PAPER_RUNS[phase.name] * statistics.median(phase.wall_per_round)
        bench.detail.setdefault("batch_rounds", {})[phase.name] = phase.n
        bench.detail.setdefault("calls", {})[phase.name] = len(phase.per_round)
        unit = "splits/s" if phase.name == "sweep" else "rounds/s"
        bench.put(f"{phase.name}_runs_per_s", 1.0 / per_round, unit)
    bench.put("job_s", job, "s")
    bench.put("wall_job_s", wall_job, "s")


# ---------------------------------------------------------------------------
# lexicon: one pass of the lexical reports over a larger, wider corpus

def _lexicon_pass(bench: Bench, path, processed, out: Path):
    """Returns the (stats, graph, model) times of one pass."""
    from lexpalo import build_vocabulary, cli, mnb, tfidf
    from lexpalo.corpus_io import Corpus

    argv = ["--corpus", str(path), "--output-dir", str(out), "--seed", str(bench.seed)]

    def graph():
        return [_quiet(cli.main, [command, *argv]) for command in ("distances", "mst")]

    def model():
        full = Corpus(r for r in processed.records if r.text.split())
        vocab = build_vocabulary(full)
        fitted = mnb.fit(tfidf(full, vocab), [r.palo for r in full.records], ALPHA)
        mnb.save_model(fitted, out / "model.json")
        return fitted

    code, stats_s, _ = bench.timed(_quiet, cli.main, ["stats", *argv])
    codes, graph_s, _ = bench.timed(graph)
    fitted, model_s, _ = bench.timed(model)
    bench.check([code] + codes == [0, 0, 0], f"lexicon: exit codes {[code] + codes}")
    with bench.untraced():
        loaded, _ = mnb.load_model(out / "model.json")
    bench.check(
        loaded.classes == fitted.classes and loaded.vocab.words == fitted.vocab.words
        and np.array_equal(loaded.word_logprob, fitted.word_logprob),
        "lexicon: saved model does not load back",
    )
    return stats_s, graph_s, model_s


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def lexicon(bench: Bench) -> None:
    """stats, distances and mst through cli.main, then fit and save a model."""
    path, _ = _write_corpus(bench, gen.WIDE)
    processed = _set_up(bench, path, repeats=1 if bench.tracer else SETUPS)
    outputs = []

    def one_pass():
        out = bench.workdir / f"pass{len(outputs)}"
        times = _lexicon_pass(bench, path, processed, out)
        outputs.append(_digests(out))
        if len(outputs) > 1:
            bench.check(outputs[-1] == outputs[0],
                        "lexicon: reports differ between passes")
        return times

    if bench.tracer:
        _traced_pass(bench, lambda: _load_and_preprocess(path), one_pass)
        return
    passes = []
    with bench.measuring():
        start = time.perf_counter()
        while time.perf_counter() - start < bench.seconds or len(passes) < 2:
            passes.append(one_pass())
    stats_s, graph_s, model_s = (statistics.median(p[i] for p in passes) for i in range(3))
    bench.put("stats_s", stats_s, "s")
    bench.put("graph_s", graph_s, "s")
    bench.put("model_s", model_s, "s")
    bench.put("job_s", statistics.median(map(sum, passes)), "s")
    bench.detail["passes"] = len(passes)
    bench.detail["files_per_pass"] = len(outputs[0])


# ---------------------------------------------------------------------------
# classify: one caller, one text at a time, against a saved model

def _load_classifier(model_path):
    from lexpalo import mnb
    from lexpalo.preprocess import PreprocessConfig

    model, state = mnb.load_model(model_path)
    config = PreprocessConfig(
        gamma=state["gamma"],
        concat_map=tuple((p, j) for p, j in state["concat_map"]),
        stopwords=frozenset(state["stopwords"]),
        punctuation=frozenset(state["punctuation"]),
    )
    return model, config, frozenset(state["lowered_words"])


def classify(bench: Bench) -> None:
    """apply_concat_map -> filter_tokens -> tfidf_row -> mnb.score per text."""
    from lexpalo import cli, mnb
    from lexpalo.corpus_io import Corpus, LyricRecord
    from lexpalo.preprocess import apply_concat_map, filter_tokens
    from lexpalo.vectorize import tfidf, tfidf_row

    path, held_out = _write_corpus(bench, gen.REFERENCE, held_out=HELD_OUT)
    model_dir = bench.workdir / "model"
    code = _quiet(cli.main, ["train", "--corpus", str(path), "--runs", "1",
                             "--output-dir", str(model_dir), "--seed", str(bench.seed)])
    bench.check(code == 0, f"classify: lexpalo train exited with {code}")
    model_path = model_dir / "model.json"
    texts = [text for _, text in held_out]
    labels: dict[int, str] = {}
    spans: list[tuple[float, float]] = []

    def classify_one(i):
        start = time.perf_counter()
        tokens = filter_tokens(apply_concat_map(texts[i], config), config, lowered)
        predicted = mnb.score(model, tfidf_row(tokens, model.vocab)).predicted
        spans.append((start, time.perf_counter()))
        bench.check(labels.setdefault(i, predicted) == predicted,
                    f"classify: text {i} changed label")

    def loop(n_min, seconds):
        i = 0
        while i < n_min or spans[-1][1] - spans[0][0] < seconds:
            classify_one(i % len(texts))
            i += 1

    with bench.measuring():
        times, loaded = [], []
        for _ in range(1 if bench.tracer else CLASSIFY_SETUPS):
            result, elapsed, _ = bench.timed(_load_classifier, model_path)
            times.append(elapsed)
            loaded.append(result)
        model, config, lowered = loaded[-1]
        bench.put("setup_s", statistics.median(times), "s")
        if bench.tracer:
            _traced_pass(bench, lambda: _load_classifier(model_path),
                         lambda: loop(CLASSIFY_MIN_TEXTS, 0.0))
        else:
            for i in range(20):  # warm-up
                classify_one(i)
            spans.clear()
            loop(CLASSIFY_MIN_TEXTS, bench.seconds)
            ms = 1e3 * np.array([bench.clock.corrected(a, b) for a, b in spans])
    bench.detail["corpus"] = {"held_out_texts": len(texts), "vocabulary": len(model.vocab.words)}
    if not bench.tracer:
        bench.put("classify_p50_ms", float(np.percentile(ms, 50)), "ms")
        bench.put("classify_p99_ms", float(np.percentile(ms, 99)), "ms")
        bench.put("classify_docs_per_s", len(ms) / ms.sum() * 1e3, "texts/s")
        bench.put("job_s", CLASSIFY_MIN_TEXTS * ms.mean() / 1e3, "s")
        bench.detail["texts_classified"] = len(ms)

    # the batch path must label every text the same way
    seen = sorted(labels)
    batch = Corpus(
        LyricRecord(id=f"h{i}", palo="?", text=" ".join(
            filter_tokens(apply_concat_map(texts[i], config), config, lowered)))
        for i in seen
    )
    predicted = mnb.predict_rows(model, tfidf(batch, model.vocab).matrix)
    mismatches = sum(labels[i] != p for i, p in zip(seen, predicted))
    bench.check(mismatches == 0, f"classify: {mismatches} labels differ from predict_rows")


# ---------------------------------------------------------------------------
# traced runs

def _traced_pass(bench: Bench, set_up, work) -> None:
    """Run set-up plus fixed work untraced, traced, untraced; keep the spans.

    The wall times are corrected for machine speed and the traced pass sits
    between the untraced ones, so the difference is the tracing overhead
    rather than a change of machine state or first-call costs. The spans
    themselves are wall-clock.
    """
    tracer = bench.tracer
    with SpeedClock() as clock:
        _, before, _ = clock.timed(lambda: (set_up(), work()))
        bench.pool_rounds = 0
        tracer.enabled = True
        try:
            _, traced, _ = clock.timed(lambda: (set_up(), work()))
        finally:
            tracer.enabled = False
        rounds = bench.pool_rounds
        _, after, _ = clock.timed(lambda: (set_up(), work()))
        bench.pool_rounds = rounds
    untraced = (before + after) / 2
    bench.put("trace.wall_s", traced, "s")
    bench.put("trace.overhead_s", traced - untraced, "s")


WORKLOADS = {
    "protocol": protocol,
    "lexicon": lexicon,
    "classify": classify,
    "protocol-2w": lambda bench: protocol(bench, threads=2),
}
