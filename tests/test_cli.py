"""End-to-end CLI behavior: reports, determinism, and exit codes."""

import codecs
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexpalo import Corpus, cli, corpus_io, experiments, load_corpus, mnb, preprocess, vectorize
from lexpalo.errors import (
    CorpusIoError, LabelMismatchError, LexpaloError, ModelFormatError,
)
from lexpalo.vectorize import genre_vectors

from helpers import (
    generated_corpus, random_labeled_corpus, random_spanish_corpus, save_corpus,
    spy_on_joins,
)

# the documented exit codes of data and model errors
ERROR_CODES = {cls.exit_code for cls in LexpaloError.__subclasses__()}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    return path


def sample_records():
    """Three palos with overlapping but biased vocabularies, fixed content."""
    rng = random.Random(5)
    pools = {
        "sole": ["pena", "llorar", "noche", "sombra", "camino", "piedra"],
        "alegria": ["mar", "sol", "arena", "barco", "puerto", "brisa"],
        "tango": ["baile", "fiesta", "jaleo", "calle", "plaza", "tambor"],
    }
    shared = ["agua", "luna", "viento", "corazón"]
    records = []
    for palo, pool in pools.items():
        for i in range(6):
            words = [
                rng.choice(pool + shared) for _ in range(rng.randint(6, 10))
            ]
            records.append(
                {"id": f"{palo}-{i}", "palo": palo, "text": " ".join(words)}
            )
    return records


@pytest.fixture
def corpus_file(tmp_path):
    return write_jsonl(tmp_path / "corpus.jsonl", sample_records())


def base_args(corpus_file, out_dir):
    return [
        "--corpus", str(corpus_file),
        "--output-dir", str(out_dir),
        "--min-lyrics", "2",
        "--seed", "7",
    ]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=oct)
def test_written_files_get_the_umask_mode(corpus_file, tmp_path, umask, capsys):
    out = tmp_path / "reports"
    previous = os.umask(umask)
    try:
        assert cli.main(["train", *base_args(corpus_file, out), "--runs", "2"]) == 0
        save_corpus(load_corpus(corpus_file), out / "corpus_copy.jsonl")
    finally:
        os.umask(previous)
    written = sorted(p.name for p in out.iterdir())
    assert written == [
        "accuracy.csv", "confusion_mean.csv", "confusion_only.csv",
        "corpus_copy.jsonl", "model.json",
    ]
    for name in written:
        assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


# ---------------------------------------------------------------------------
# stats


def test_stats_writes_all_reports(corpus_file, tmp_path, capsys):
    out = tmp_path / "reports"
    assert cli.main(["stats", *base_args(corpus_file, out)]) == 0
    for name in (
        "profile.csv", "sttr.csv", "hapax.csv", "hapax_unique.csv",
        "zipf.csv", "heaps.csv", "powerlaw.csv",
    ):
        assert (out / name).is_file()
    assert capsys.readouterr().out.startswith("stats:")

    profile = read_csv(out / "profile.csv")
    assert profile[0] == ["palo", "L", "V", "TTR"]
    palos = [row[0] for row in profile[1:]]
    assert palos == ["alegria", "sole", "tango", "__corpus__"]
    tokens = {row[0]: int(row[1]) for row in profile[1:]}
    assert tokens["__corpus__"] == (
        tokens["alegria"] + tokens["sole"] + tokens["tango"]
    )

    sttr = read_csv(out / "sttr.csv")
    assert sttr[0] == ["palo", "mean", "stderr", "window_length", "n_windows"]
    assert len(sttr) == 5  # three palos + the whole-corpus null row
    assert len({row[3] for row in sttr[1:]}) == 1  # shared window length

    hapax = read_csv(out / "hapax.csv")
    assert len(hapax) == 1 + 18  # every song has tokens
    assert read_csv(out / "hapax_unique.csv")[1:] == sorted(
        read_csv(out / "hapax_unique.csv")[1:]
    )

    zipf_rows = read_csv(out / "zipf.csv")[1:]
    assert [int(r[0]) for r in zipf_rows] == list(range(1, len(zipf_rows) + 1))
    freqs = [int(r[1]) for r in zipf_rows]
    assert freqs == sorted(freqs, reverse=True)

    powerlaw = read_csv(out / "powerlaw.csv")
    assert [row[0] for row in powerlaw[1:]] == ["zipf", "heaps"]


def test_stats_is_byte_deterministic(corpus_file, tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(["stats", *base_args(corpus_file, out1)]) == 0
    assert cli.main(["stats", *base_args(corpus_file, out2)]) == 0
    for name in ("profile.csv", "sttr.csv", "zipf.csv", "powerlaw.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# Integer counts and correctly rounded divisions only, so the same on every
# platform and BLAS.
PINNED_STATS_SHA256 = {
    "profile.csv": "9bde640211b89cd7471f2314065107a4dd42027adb1bc58d6d8d57636f49ef83",
    "hapax.csv": "530b0a164246933370add1a169f37b36bf914f4ef34b22ba1b797db94f3776af",
    "hapax_unique.csv": "ab1e74c722297d0e62a40b50bfc91402615ca71626d75b388ca687399c8b7638",
    "zipf.csv": "3c493799ea0212bef024f1d61d77b8b6a980fc26381f895cf53cf71bbb7069b7",
    "heaps.csv": "0cffd06d6c932d91a88386f3820d1ca810a59fad1f71562e46a50f3e2d4321ef",
}


def test_stats_reports_keep_their_pinned_digests(tmp_path, capsys):
    # accented, punctuated, cased songs shared by two palos, and three palos
    # of words of their own
    rng = random.Random(16)
    c = Corpus(
        random_spanish_corpus(rng, n_records=(60, 60), tokens_per_record=(1, 30)).records
        + random_labeled_corpus(rng, n_palos=3, docs_per_palo=(5, 10), pool_size=25,
                                doc_len=(1, 20), shared_pool=False).records
    )
    save_corpus(c, tmp_path / "corpus.jsonl")
    out = tmp_path / "out"
    assert cli.main([
        "stats", "--corpus", str(tmp_path / "corpus.jsonl"), "--output-dir", str(out),
        "--min-lyrics", "1", "--seed", "7",
    ]) == 0
    for name, digest in PINNED_STATS_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# Ratios of counts and word lists: a rounding change would have to flip a
# classification or a ranking to move them.
PINNED_EXPERIMENT_SHA256 = {
    "accuracy.csv": "7ca973c30768819ca1dc97034ea190d1c475c85f3b0d627e57cc8a3a329e74ab",
    "confusion_mean.csv": "dc4421aff87cd5ae92a03fe15bd363d63b6eb947c82f62ba18f61ec646928e2a",
    "confusion_only.csv": "7896ed129eb4fea4fb318639bdf5346f1c132bf0d617705c54940ce85c413cb6",
    "alpha_sweep.csv": "e1824576b269a6f038808abfd968fc8e90b03198272647babf24b5ca98acc044",
    "essential_counts.csv": "44aec6adb7b51642e436ab2cb750fdd9afdfdb4931e69e1f81b00b09ac415313",
    "essential_alegrías.txt": "fe4257fc522ddfeee08eb2f7a0f79fff1be4879746c6a687a006c37ddb2645a9",
    "essential_bulerías.txt": "b0d3fe3a9c4e5b5544095ecb076bbc112b3335f6bb2bbfe7c1a583bbeb011cc1",
    "essential_cabales.txt": "e5e7fe3f76f23f49d703c5c293ba5ee0a537b93c923e5adf54ab214652fb2d59",
    "essential_fandangos.txt": "c52b70125f4036f81657e930d8e62c8540362cf1fcb7b11a05aae4fb2889b505",
    "essential_malagueñas.txt": "a518493cc18677b186fbac145845299767ce541a89dfc67e72eabd0269a43121",
    "essential_trilleras.txt": "e84f3ab162b5541e1b2fcb99e9ffc79ec3eeb43580558a4b53f1e579ba49abe2",
}


def test_experiment_reports_keep_their_pinned_digests(tmp_path, capsys):
    # six palos sharing a word pool, two songs that preprocess to nothing
    save_corpus(generated_corpus(20, counts=(30, 20, 12, 8), n_words=120),
                tmp_path / "corpus.jsonl")
    out = tmp_path / "out"
    for command, extra in (
        ("train", ["--runs", "3"]),
        ("sweep-alpha", ["--runs", "2", "--grid-step", "0.05"]),
        ("essential", ["--runs", "4"]),
    ):
        assert cli.main([
            command, "--corpus", str(tmp_path / "corpus.jsonl"), "--output-dir", str(out),
            "--min-lyrics", "2", "--seed", "7", *extra,
        ]) == 0
    essential = {p.name for p in out.glob("essential_*.txt")}
    assert essential == {n for n in PINNED_EXPERIMENT_SHA256 if n.endswith(".txt")}
    for name, digest in PINNED_EXPERIMENT_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# train


def train_args(corpus_file, out):
    return [
        "train", *base_args(corpus_file, out),
        "--runs", "3", "--train-fraction", "0.5", "--alpha", "0.3",
    ]


def test_train_writes_reports_and_model(corpus_file, tmp_path, capsys):
    out = tmp_path / "train"
    assert cli.main(train_args(corpus_file, out)) == 0
    assert capsys.readouterr().out.startswith("train:")

    accuracy = read_csv(out / "accuracy.csv")
    assert accuracy[0] == ["run", "seed", "palo", "accuracy"]
    assert len(accuracy) == 1 + 3 * 4  # 3 runs x (3 palos + __global__)
    assert [row[2] for row in accuracy[1:5]] == [
        "alegria", "sole", "tango", "__global__"
    ]

    confusion = read_csv(out / "confusion_mean.csv")
    assert confusion[0] == ["true", "alegria", "sole", "tango"]
    for row in confusion[1:]:
        assert sum(float(x) for x in row[1:]) == pytest.approx(1.0, abs=1e-9)

    only = read_csv(out / "confusion_only.csv")
    for i, row in enumerate(only[1:]):
        assert float(row[1 + i]) == 0.0  # no self-confusion on the diagonal

    model, state = mnb.load_model(out / "model.json")
    assert model.classes == ("alegria", "sole", "tango")
    assert state is not None and state["gamma"] == 0.2


def test_train_is_byte_deterministic_and_thread_invariant(
    corpus_file, tmp_path, monkeypatch
):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(train_args(corpus_file, out1)) == 0
    assert cli.main(train_args(corpus_file, out2)) == 0
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "2")
    assert cli.main(train_args(corpus_file, out3)) == 0
    for name in ("accuracy.csv", "confusion_mean.csv", "confusion_only.csv",
                 "model.json"):
        reference = (out1 / name).read_bytes()
        assert (out2 / name).read_bytes() == reference
        assert (out3 / name).read_bytes() == reference


def test_train_tokenizes_the_corpus_once(corpus_file, tmp_path, monkeypatch):
    calls, word_ids = [], corpus_io.word_ids

    def counted(texts):
        calls.append(len(texts))
        return word_ids(texts)

    monkeypatch.setattr(corpus_io, "word_ids", counted)
    monkeypatch.setattr(preprocess, "word_ids", counted)
    assert cli.main(train_args(corpus_file, tmp_path / "train")) == 0
    # preprocessing's call: the rounds and the full-corpus model reuse its ids
    assert calls == [18]


def test_train_encodes_the_corpus_once_and_builds_no_tfidf_matrix(
    corpus_file, tmp_path, monkeypatch
):
    functions = vectorize.encode, vectorize.tfidf
    calls = {"encode": [], "tfidf": []}

    def counted(function):
        def spy(corpus, *args):
            calls[function.__name__].append(len(corpus.records))
            return function(corpus, *args)
        return spy

    # every lexpalo module that holds either function, under any name
    for module in [m for name, m in sys.modules.items() if name.startswith("lexpalo")]:
        for name, value in list(vars(module).items()):
            if any(value is function for function in functions):
                monkeypatch.setattr(module, name, counted(value))
    assert cli.main(train_args(corpus_file, tmp_path / "train")) == 0
    # the rounds' encoding, from which the full-corpus model is fitted too
    assert calls == {"encode": [18], "tfidf": []}


@pytest.mark.parametrize(
    "command, options", [("sweep-alpha", ["--grid-step", "0.25"]), ("essential", [])]
)
def test_round_reports_are_thread_invariant(
    command, options, corpus_file, tmp_path, monkeypatch
):
    # two CPUs, so that LEXPALO_THREADS=2 starts a pool on any host; the
    # forked workers inherit the no-op placement, so a one-CPU host is not
    # asked for a second CPU
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(experiments.os, "sched_setaffinity", lambda pid, mask: None)
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv(cli.THREADS_ENV_VAR, threads)
        outs.append(tmp_path / threads)
        assert cli.main([
            command, *base_args(corpus_file, outs[-1]),
            "--runs", "3", "--train-fraction", "0.5", *options,
        ]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


# ---------------------------------------------------------------------------
# sweep-alpha / essential


def test_sweep_alpha_writes_grid(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep-alpha", *base_args(corpus_file, out),
        "--runs", "2", "--train-fraction", "0.5", "--grid-step", "0.25",
    ])
    assert code == 0
    rows = read_csv(out / "alpha_sweep.csv")
    assert rows[0] == ["alpha", "mean_accuracy"]
    assert [float(r[0]) for r in rows[1:]] == [0.25, 0.5, 0.75, 1.0]
    for r in rows[1:]:
        assert 0.0 <= float(r[1]) <= 1.0
    assert capsys.readouterr().out.startswith("sweep-alpha: best alpha")


def test_essential_writes_lists_and_counts(corpus_file, tmp_path):
    out = tmp_path / "essential"
    code = cli.main([
        "essential", *base_args(corpus_file, out),
        "--runs", "2", "--train-fraction", "0.5", "--alpha", "0.3",
    ])
    assert code == 0
    counts = read_csv(out / "essential_counts.csv")
    assert counts[0] == ["palo", "count", "normalized"]
    assert [row[0] for row in counts[1:]] == ["alegria", "sole", "tango"]
    for palo, count, normalized in counts[1:]:
        listing = (out / f"essential_{palo}.txt").read_text(encoding="utf-8")
        words = listing.splitlines()
        assert len(words) == int(count)
        assert 0.0 <= float(normalized) <= 1.0
        assert len(set(words)) == len(words)


def test_essential_palos_sharing_a_list_file_exit_four(tmp_path, capsys):
    # "a b" and "a/b" both map to essential_a_b.txt
    records = [
        {"id": f"{palo}-{i}", "palo": palo, "text": text}
        for palo, texts in (
            ("a b", ["mar sol arena", "sol barco mar", "arena brisa sol"]),
            ("a/b", ["pena noche sombra", "noche llorar pena", "piedra sombra noche"]),
        )
        for i, text in enumerate(texts)
    ]
    corpus = write_jsonl(tmp_path / "clash.jsonl", records)
    out = tmp_path / "out"
    code = cli.main(["essential", *base_args(corpus, out), "--runs", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "'a b'" in err and "'a/b'" in err and "essential_a_b.txt" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command, palo, options",
    [("stats", "__corpus__", []), ("train", "__global__", ["--runs", "2"])],
)
def test_a_palo_named_as_a_report_row_exits_four(
    command, palo, options, tmp_path, capsys
):
    records = [
        {"id": f"{name}-{i}", "palo": name, "text": text}
        for name in ("__corpus__", "tangos", "__global__")
        for i, text in enumerate(["mar sol arena", "pena noche sombra", "baile sol noche"])
    ]
    corpus = write_jsonl(tmp_path / "reserved.jsonl", records)
    out = tmp_path / "out"
    code = cli.main([command, *base_args(corpus, out), *options])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(palo) in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# distances / mst


def test_distances_writes_matrix_and_dendrogram(corpus_file, tmp_path, capsys):
    out = tmp_path / "dist"
    assert cli.main(["distances", *base_args(corpus_file, out)]) == 0
    rows = read_csv(out / "distances.csv")
    labels = rows[0][1:]
    assert labels == ["alegria", "sole", "tango"]
    values = {
        (row[0], lab): float(x)
        for row in rows[1:]
        for lab, x in zip(labels, row[1:])
    }
    for a in labels:
        assert values[(a, a)] == 0.0
        for b in labels:
            assert values[(a, b)] == values[(b, a)]
            assert 0.0 <= values[(a, b)] <= 1.0

    dendro = json.loads((out / "dendrogram.json").read_text(encoding="utf-8"))
    assert dendro["labels"] == labels
    assert dendro["linkage"] == "average"
    assert len(dendro["merges"]) == 2
    assert capsys.readouterr().out.startswith("distances:")


def test_mst_writes_dot_files(corpus_file, tmp_path):
    out = tmp_path / "mst"
    assert cli.main(["mst", *base_args(corpus_file, out)]) == 0
    mst = (out / "mst.dot").read_text(encoding="utf-8")
    network = (out / "network.dot").read_text(encoding="utf-8")
    assert mst.startswith("graph mst {")
    assert network.startswith("graph complete {")
    assert mst.count(" -- ") == 2
    assert network.count(" -- ") == 3


def long_genre_records():
    """Eight palos of about 11,700 shared and 300 own words each, every word
    1-3 times in random order: genre vectors of about 12,000 values. The
    words are plain lowercase letters and digits, which preprocessing keeps
    as they are."""
    rng = random.Random(3)
    records = []
    for k in range(8):
        words = [f"w{i}" for i in range(12_000) if rng.random() < 0.95]
        words += [f"p{k}w{i}" for i in range(300)]
        tokens = [w for w in words for _ in range(rng.randint(1, 3))]
        rng.shuffle(tokens)
        for s in range(4):
            records.append({"id": f"{k}-{s}", "palo": f"palo{k}",
                            "text": " ".join(tokens[s::4])})
    return records


SCIPY_PROBE = """
import sys
from lexpalo import cli
code = cli.main(sys.argv[1:])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy")[:1])
"""


def test_only_the_commands_that_fit_models_import_scipy(corpus_file, tmp_path):
    # each command in a fresh interpreter; train loads SciPy, so the probe
    # can see it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = tmp_path / "out"

    def probe(*argv):
        done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        return done.stdout.splitlines()[-1]

    assert probe(*train_args(corpus_file, out)) == "0 ['scipy']"
    for command in ("stats", "distances", "mst"):
        assert probe(command, *base_args(corpus_file, out)) == "0 []", command
    assert probe("classify", "--model", out / "model.json", "--text", "mar sol") == "0 []"


def test_distances_of_long_genre_vectors_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of more than 10,000 values, as in
    # np.linalg.norm, across threads
    records = long_genre_records()
    path = write_jsonl(tmp_path / "long.jsonl", records)
    vectors = genre_vectors(load_corpus(path))
    assert min(np.count_nonzero(row) for row in vectors.values()) > 10_000
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = tmp_path / f"out-{threads}"
        subprocess.run(
            [sys.executable, "-m", "lexpalo.cli", "distances", "--corpus", str(path),
             "--min-lyrics", "1", "--output-dir", str(out)],
            env=env, capture_output=True, timeout=120, check=True,
        )
        outputs.append((out / "distances.csv").read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# a long s in a multiword name: re.IGNORECASE matches it to s


def long_s_records(spelling):
    records = sample_records()
    for rec in records[:3]:  # three "sole" songs name the saint
        rec["text"] += f" {spelling} pena"
    return records


STATS_OF_PROCESSED_TEXT = ("profile.csv", "sttr.csv", "hapax.csv", "hapax_unique.csv")


def test_stats_joins_a_long_s_name(tmp_path, capsys):
    outputs = {}
    for spelling in ("ſanta ana", "SantaAna"):
        path = write_jsonl(tmp_path / f"{spelling}.jsonl", long_s_records(spelling))
        out = tmp_path / spelling
        assert cli.main(["stats", *base_args(path, out)]) == 0
        outputs[spelling] = {
            name: (out / name).read_bytes() for name in STATS_OF_PROCESSED_TEXT
        }
    assert outputs["ſanta ana"] == outputs["SantaAna"]


def test_classify_joins_a_long_s_name(tmp_path, capsys):
    path = write_jsonl(tmp_path / "corpus.jsonl", long_s_records("ſanta ana"))
    out = tmp_path / "model-dir"
    assert cli.main(train_args(path, out)) == 0
    model = out / "model.json"
    assert "SantaAna" in mnb.load_model(model)[0].vocab.words
    capsys.readouterr()
    long_s = classify_output(capsys, model, "--text", "ſanta ana", "--scores")
    joined = classify_output(capsys, model, "--text", "SantaAna", "--scores")
    unknown = classify_output(capsys, model, "--text", "ſanta", "--scores")
    assert long_s == joined
    assert long_s[0] == "sole"
    assert long_s != unknown


# ---------------------------------------------------------------------------
# classify


@pytest.fixture
def trained_model(corpus_file, tmp_path):
    out = tmp_path / "model-dir"
    assert cli.main(train_args(corpus_file, out)) == 0
    return out / "model.json"


def classify_output(capsys, model, *extra):
    code = cli.main(["classify", "--model", str(model), *extra])
    assert code == 0
    return capsys.readouterr().out.splitlines()


def test_classify_prints_a_palo(trained_model, capsys):
    lines = classify_output(capsys, trained_model, "--text", "mar sol arena")
    assert lines == [lines[0]]
    assert lines[0] in {"alegria", "sole", "tango"}


def test_classify_applies_stored_preprocessing(trained_model, capsys):
    plain = classify_output(capsys, trained_model, "--text", "mar sol arena")
    noisy = classify_output(
        capsys, trained_model, "--text", "¡mar! que sol de arena"
    )
    assert noisy == plain  # stopwords and punctuation strip to the same tokens


def test_classify_scores_are_sorted_and_parseable(trained_model, capsys):
    lines = classify_output(
        capsys, trained_model, "--text", "mar sol arena", "--scores"
    )
    assert len(lines) == 4
    scored = [line.split("\t") for line in lines[1:]]
    assert sorted(p for p, _ in scored) == ["alegria", "sole", "tango"]
    values = [float(s) for _, s in scored]
    assert values == sorted(values, reverse=True)
    assert scored[0][0] == lines[0]


def test_classify_reads_text_from_file(trained_model, tmp_path, capsys):
    via_text = classify_output(capsys, trained_model, "--text", "pena noche")
    lyric = tmp_path / "lyric.txt"
    lyric.write_text("pena noche", encoding="utf-8")
    via_file = classify_output(capsys, trained_model, "--file", str(lyric))
    assert via_file == via_text


@pytest.mark.parametrize(
    "reader, error",
    [
        ("corpus", CorpusIoError),
        ("stopwords", CorpusIoError),
        ("concat-map", CorpusIoError),
        ("classify-file", CorpusIoError),
        ("model", ModelFormatError),
    ],
)
def test_non_utf8_input_file_exits_with_its_documented_code(
    reader, error, corpus_file, trained_model, tmp_path, capsys
):
    """Each input file the CLI reads, saved in Latin-1 with an accent in it."""
    bad = tmp_path / "latin1"
    stats = ["stats", *base_args(corpus_file, tmp_path / "out")]
    text, argv = {
        "corpus": (corpus_file.read_text(encoding="utf-8"),
                   ["stats", *base_args(bad, tmp_path / "out")]),
        "stopwords": ("él\n", [*stats, "--stopwords", str(bad)]),
        "concat-map": ("José María\tJoséMaría\n", [*stats, "--concat-map", str(bad)]),
        "classify-file": ("corazón", ["classify", "--model", str(trained_model),
                                      "--file", str(bad)]),
        "model": (trained_model.read_text(encoding="utf-8"),
                  ["classify", "--model", str(bad), "--text", "mar"]),
    }[reader]
    bad.write_bytes(text.encode("latin-1"))
    capsys.readouterr()
    assert cli.main(argv) == error.exit_code
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "UTF-8" in err


def csv_text(records):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["id", "palo", "text"])
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


@pytest.mark.parametrize(
    "reader",
    ["corpus-jsonl", "corpus-csv", "stopwords", "concat-map", "classify-file",
     "model"],
)
def test_input_file_with_a_byte_order_mark_reads_as_the_plain_file(
    reader, corpus_file, trained_model, tmp_path, capsys
):
    """Each input file the CLI reads, saved plainly and after the UTF-8
    byte-order mark that Excel's "CSV UTF-8" and Notepad write."""
    out = tmp_path / "out"
    first, second = sample_records()[6]["text"].split()[:2]  # an alegria song's

    def stats(path, *extra):
        return ["stats", *base_args(path, out), *extra]

    def with_corpus(option):
        return lambda path: stats(corpus_file, option, str(path))

    text, argv = {
        "corpus-jsonl": (corpus_file.read_text(encoding="utf-8"), stats),
        "corpus-csv": (csv_text(sample_records()),
                       lambda path: stats(path, "--format", "csv")),
        "stopwords": (f"{first}\n{second}\n", with_corpus("--stopwords")),
        "concat-map": (f"{first} {second}\tJoined\n", with_corpus("--concat-map")),
        "classify-file": ("mar sol arena", lambda path: [
            "classify", "--scores", "--model", str(trained_model), "--file", str(path)
        ]),
        "model": (trained_model.read_text(encoding="utf-8"), lambda path: [
            "classify", "--scores", "--model", str(path), "--text", "mar sol arena"
        ]),
    }[reader]
    seen = []
    for bom in (b"", codecs.BOM_UTF8):
        path = tmp_path / "input"
        path.write_bytes(bom + text.encode("utf-8"))
        capsys.readouterr()
        assert cli.main(argv(path)) == 0
        reports = sorted((f.name, f.read_bytes()) for f in out.glob("*"))
        seen.append((capsys.readouterr().out, reports))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("command", ["stats", "distances", "mst"])
def test_palo_emptied_by_preprocessing_exits_eight(command, tmp_path, capsys):
    records = [*sample_records(), *(
        {"id": f"bulerias-{i}", "palo": "bulerias", "text": "que de la el"}
        for i in range(3)
    )]
    corpus = write_jsonl(tmp_path / "emptied.jsonl", records)
    code = cli.main([command, *base_args(corpus, tmp_path / "out")])
    assert code == 8
    err = capsys.readouterr().err
    assert err.endswith("palo 'bulerias' has no tokens after preprocessing\n")


def test_classify_rejects_model_without_preprocessing_state(
    trained_model, tmp_path, capsys
):
    model, _ = mnb.load_model(trained_model)
    bare = tmp_path / "bare.json"
    mnb.save_model(model, bare)
    code = cli.main(["classify", "--model", str(bare), "--text", "mar"])
    assert code == ModelFormatError.exit_code
    assert "preprocessing state" in capsys.readouterr().err


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value

    return edit


def _delete(*keys):
    def edit(payload):
        for key in keys[:-1]:
            payload = payload[key]
        del payload[keys[-1]]

    return edit


def _rename_first_prior(payload):
    first = next(iter(payload["priors"]))
    payload["priors"]["not-a-class"] = payload["priors"].pop(first)


def _drop_last_df(payload):
    payload["vocab"]["df"].pop()


def _every_prior_true(payload):
    payload["priors"] = {c: True for c in payload["classes"]}


def _every_df(value):
    def edit(payload):
        payload["vocab"]["df"] = [value] * len(payload["vocab"]["df"])

    return edit


def _n_docs_and_every_df_true(payload):
    _every_df(True)(payload)
    payload["vocab"]["n_docs"] = True


def _raise_a_log_prob(payload):
    payload["word_logprob"][0][0] += 2.0


def _first_prior(value):
    def edit(payload):
        payload["priors"][payload["classes"][0]] = value

    return edit


def _empty_vocabulary(payload):
    payload["vocab"]["words"] = []
    payload["vocab"]["df"] = []
    payload["word_logprob"] = [[] for _ in payload["classes"]]


MODEL_CORRUPTIONS = {
    "no-gamma": _delete("preprocess", "gamma"),
    "no-punctuation": _delete("preprocess", "punctuation"),
    "no-stopwords": _delete("preprocess", "stopwords"),
    "no-concat-map": _delete("preprocess", "concat_map"),
    "no-lowered-words": _delete("preprocess", "lowered_words"),
    "gamma-string": _set("preprocess", "gamma", "0.2"),
    "gamma-out-of-range": _set("preprocess", "gamma", 5),
    "punctuation-number": _set("preprocess", "punctuation", 7),
    "stopwords-number": _set("preprocess", "stopwords", 3),
    "stopwords-non-strings": _set("preprocess", "stopwords", ["de", 1]),
    "stopword-with-space": _set("preprocess", "stopwords", ["de la"]),
    "concat-map-flat": _set("preprocess", "concat_map", ["Santa Ana"]),
    "concat-map-triples": _set("preprocess", "concat_map", [["a b", "ab", "c"]]),
    "lowered-words-nested": _set("preprocess", "lowered_words", [["mar"]]),
    "preprocess-list": _set("preprocess", []),
    "empty-priors": _set("priors", {}),
    "priors-keys-differ": _rename_first_prior,
    "prior-string": _set("priors", "sole", "0.3"),
    "prior-true": _every_prior_true,
    "df-length-differs": _drop_last_df,
    "df-fraction": _every_df(1.5),
    "n-docs-string": _set("vocab", "n_docs", "18"),
    "n-docs-fraction": _set("vocab", "n_docs", 30.5),
    "n-docs-bool": _n_docs_and_every_df_true,
    "n-docs-zero": _set("vocab", "n_docs", 0),
    "df-zero": _set("vocab", "df", 0, 0),
    "log-prob-nan": _set("word_logprob", 0, 0, float("nan")),
    "log-prob-string": _set("word_logprob", 0, 0, "-1.5"),
    "log-prob-true": _set("word_logprob", 0, 0, True),
    "log-prob-false": _set("word_logprob", 0, 0, False),
    "log-prob-positive": _set("word_logprob", 0, 0, 3.0),
    "log-prob-raised": _raise_a_log_prob,
    "prior-above-one": _first_prior(1.5),
    "prior-huge": _first_prior(1e6),
    "alpha-string": _set("alpha", "x"),
    "alpha-zero": _set("alpha", 0),
    "empty-vocabulary": _empty_vocabulary,
}


@pytest.mark.parametrize("corrupt", MODEL_CORRUPTIONS.values(),
                         ids=MODEL_CORRUPTIONS.keys())
def test_classify_rejects_corrupted_model(trained_model, tmp_path, capsys, corrupt):
    payload = json.loads(trained_model.read_text(encoding="utf-8"))
    corrupt(payload)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload), encoding="utf-8")
    code = cli.main(["classify", "--model", str(broken), "--text", "mar sol"])
    assert code == ModelFormatError.exit_code
    assert str(broken) in capsys.readouterr().err


def assert_rejected_model(path, capsys):
    """classify refuses the model file with exit 19, one error line naming
    the file and nothing on stdout."""
    capsys.readouterr()
    code = cli.main(["classify", "--model", str(path), "--text", "mar sol"])
    assert code == ModelFormatError.exit_code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(path) in err


@pytest.mark.parametrize("payload", [[], "x", 1, None], ids=repr)
def test_classify_rejects_a_model_that_is_not_an_object(payload, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert_rejected_model(path, capsys)


def _rewritten(trained_model, tmp_path, edit):
    payload = json.loads(trained_model.read_text(encoding="utf-8"))
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_classify_rejects_classes_given_as_a_string(trained_model, tmp_path, capsys):
    def two_classes_as_one_string(payload):
        payload["classes"] = "ab"
        payload["priors"] = {"a": 0.5, "b": 0.5}
        del payload["word_logprob"][2:]

    path = _rewritten(trained_model, tmp_path, two_classes_as_one_string)
    assert_rejected_model(path, capsys)


def test_classify_rejects_a_word_listed_twice(trained_model, tmp_path, capsys):
    def repeat_first_word(payload):
        words = payload["vocab"]["words"]
        words[1] = words[0]

    path = _rewritten(trained_model, tmp_path, repeat_first_word)
    assert_rejected_model(path, capsys)


def test_classify_rejects_a_word_that_is_not_a_string(trained_model, tmp_path, capsys):
    path = _rewritten(trained_model, tmp_path, _set("vocab", "words", 0, 7))
    assert_rejected_model(path, capsys)


@pytest.fixture(scope="module")
def small_model_text(tmp_path_factory):
    """A saved model with a short stop-word list and concat map, so that
    every part of its file is a likely target of a mutation."""
    root = tmp_path_factory.mktemp("small-model")
    corpus = write_jsonl(root / "corpus.jsonl", sample_records())
    (root / "stop.txt").write_text("agua\n", encoding="utf-8")
    (root / "map.tsv").write_text("mar sol\tMarSol\n", encoding="utf-8")
    out = root / "out"
    assert cli.main([
        "train", *base_args(corpus, out), "--runs", "1",
        "--stopwords", str(root / "stop.txt"), "--concat-map", str(root / "map.tsv"),
    ]) == 0
    return (out / "model.json").read_text(encoding="utf-8")


def _json_kind(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
_JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
)


def _paths(node, path=()):
    """The path of every value below ``node``, itself included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, (*path, key))


def _parent_of(payload, path):
    for key in path[:-1]:
        payload = payload[key]
    return payload


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_classify_survives_a_mutated_model_file(small_model_text, tmp_path_factory, data):
    payload = json.loads(small_model_text)
    mutation = data.draw(st.sampled_from(["truncate", "retype", "drop", "wrap"]))
    if mutation == "truncate":
        raw = small_model_text.encode("utf-8")
        content = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        if mutation == "retype":
            path = data.draw(st.sampled_from(list(_paths(payload))[1:]))
            old = _parent_of(payload, path)[path[-1]]
            new = data.draw(_JSON_VALUES.filter(lambda v: _json_kind(v) != _json_kind(old)))
            _parent_of(payload, path)[path[-1]] = new
        elif mutation == "drop":
            keys = [p for p in _paths(payload) if p and isinstance(p[-1], str)]
            path = data.draw(st.sampled_from(keys))
            del _parent_of(payload, path)[path[-1]]
        else:
            payload = [payload]
        content = json.dumps(payload).encode("utf-8")
    path = tmp_path_factory.mktemp("mutated") / "model.json"
    path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["classify", "--model", str(path), "--text", "mar sol pena"])
    assert code in (0, CorpusIoError.exit_code, ModelFormatError.exit_code)


def _sample_csv():
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=["id", "palo", "text"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(sample_records())
    return out.getvalue()


def _mutated_jsonl(data, mutation):
    records = sample_records()
    i = data.draw(st.integers(0, len(records) - 1))
    if mutation == "retype":
        key = data.draw(st.sampled_from(["id", "palo", "text"]))
        records[i][key] = data.draw(_JSON_VALUES.filter(lambda v: not isinstance(v, str)))
    elif mutation == "duplicate":
        if data.draw(st.booleans()):
            records[i]["id"] = records[data.draw(st.integers(0, len(records) - 1))]["id"]
        else:
            lines = [json.dumps(r, ensure_ascii=False) for r in records]
            key = data.draw(st.sampled_from(["id", "palo", "text"]))
            value = json.dumps(data.draw(_JSON_VALUES))
            lines[i] = lines[i][:-1] + f', "{key}": {value}}}'
            return ("\n".join(lines) + "\n").encode("utf-8")
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def _mutated_csv(data, mutation):
    rows = list(csv.reader(io.StringIO(_sample_csv())))
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, 2))
    if mutation == "retype":
        # every CSV value is text: one with separators, quotes, line breaks
        rows[i][j] = data.draw(st.text(alphabet=',"\n\r\x00 ab', max_size=6))
    elif mutation == "duplicate":
        if i == 0:  # a header column twice
            rows[0][j] = rows[0][(j + 1) % 3]
        else:
            rows[i][0] = rows[data.draw(st.integers(1, len(rows) - 1))][0]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_commands_survive_a_mutated_corpus_file(tmp_path_factory, data):
    format = data.draw(st.sampled_from(["jsonl", "csv"]))
    mutation = data.draw(st.sampled_from(["truncate", "retype", "duplicate", "non-utf8"]))
    mutate = _mutated_jsonl if format == "jsonl" else _mutated_csv
    content = mutate(data, mutation)
    if mutation == "truncate":
        content = content[:data.draw(st.integers(0, len(content) - 1))]
    elif mutation == "non-utf8":
        at = data.draw(st.integers(0, len(content)))
        byte = data.draw(st.integers(0x80, 0xFF))
        content = content[:at] + bytes([byte]) + content[at:]
    root = tmp_path_factory.mktemp("mutated")
    path = root / f"corpus.{format}"
    path.write_bytes(content)
    documented = {0, *ERROR_CODES}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in (["stats"], ["train", "--runs", "2"]):
            code = cli.main([*command, *base_args(path, root / "out"), "--format", format])
            assert code in documented


# ---------------------------------------------------------------------------
# error paths and exit codes


def test_readme_exit_code_table_matches_the_error_classes():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| (\d+) \| (\w+) \| [^|\n]+ \|$",
                      readme.read_text(encoding="utf-8"), re.MULTILINE)
    assert {name: int(code) for code, name in rows} == {
        cls.__name__: cls.exit_code for cls in LexpaloError.__subclasses__()
    }
    assert len(rows) == len(LexpaloError.__subclasses__())


def test_exit_code_missing_corpus(tmp_path, capsys):
    code = cli.main(["stats", *base_args(tmp_path / "absent.jsonl", tmp_path)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_exit_code_unwritable_output_dir(corpus_file, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    for out in (blocker, blocker / "reports"):
        code = cli.main(["train", *base_args(corpus_file, out), "--runs", "2"])
        assert code == 3
        assert "cannot" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file", "corpus.jsonl"]


def test_exit_code_malformed_jsonl(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id": "a", "palo": "X", "text": "uno"}\nnot json\n', encoding="utf-8"
    )
    assert cli.main(["stats", *base_args(bad, tmp_path)]) == 4
    assert "line 2" in capsys.readouterr().err


def test_lone_surrogate_escape_exits_four_before_any_report(tmp_path, capsys):
    """Half of an escaped surrogate pair, which no report could encode."""
    records = sample_records()
    records[2]["text"] = "x\ud800y"
    corpus = tmp_path / "corpus.jsonl"
    # ensure_ascii writes the lone surrogate as the escape \ud800
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
    out = tmp_path / "reports"
    assert cli.main(["train", *base_args(corpus, out), "--runs", "2"]) == 4
    assert "line 3: 'id', 'palo' or 'text' holds a lone surrogate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "format, content, line",
    [
        # a value nested past the recursion limit
        ("jsonl", '{"id": "a", "palo": "X", "text": "uno"}\n'
         '{"id": "b", "palo": "X", "text": "dos", "m": ' + "[" * 100_000 + "]" * 100_000 + "}\n", 2),
        # an integer literal past the interpreter's 4,300 digits
        ("jsonl", '{"id": "a", "palo": "X", "text": "uno", "m": ' + "9" * 5_000 + "}\n", 1),
        # a field past the csv module's 131,072 characters
        ("csv", "id,palo,text\na,X,uno\nb,X," + "x" * 140_000 + "\n", 3),
    ],
    ids=["deeply-nested", "long-integer", "long-csv-field"],
)
def test_corpus_values_past_the_parsers_limits_exit_four(format, content, line, tmp_path, capsys):
    bad = tmp_path / f"bad.{format}"
    bad.write_text(content, encoding="utf-8")
    code = cli.main(["stats", *base_args(bad, tmp_path), "--format", format])
    assert code == 4
    assert f"line {line}: invalid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "format, record_line, line, message",
    [
        ("jsonl", "[1, 2]", 2, "record is not a JSON object"),
        ("jsonl", '"x"', 2, "record is not a JSON object"),
        ("jsonl", "3", 2, "record is not a JSON object"),
        ("csv", "b,X,dos,tres", 3, "row has more fields than the header"),
    ],
    ids=["array", "string", "number", "csv-extra-field"],
)
def test_a_record_of_the_wrong_shape_exits_four_naming_its_line(
    format, record_line, line, message, tmp_path, capsys
):
    first = {"jsonl": '{"id": "a", "palo": "X", "text": "uno"}', "csv": "id,palo,text\na,X,uno"}
    bad = tmp_path / f"bad.{format}"
    bad.write_text(f"{first[format]}\n{record_line}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["stats", *base_args(bad, out), "--format", format]) == 4
    assert capsys.readouterr().err == f"lexpalo stats: error: line {line}: {message}\n"
    assert not out.exists()


def test_exit_code_duplicate_ids(tmp_path, capsys):
    dup = write_jsonl(
        tmp_path / "dup.jsonl",
        [
            {"id": "a", "palo": "X", "text": "uno"},
            {"id": "a", "palo": "X", "text": "dos"},
        ],
    )
    assert cli.main(["stats", *base_args(dup, tmp_path)]) == 5
    capsys.readouterr()


def test_exit_code_empty_corpus_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert cli.main(["stats", *base_args(empty, tmp_path)]) == 6
    capsys.readouterr()


def test_exit_code_min_lyrics_filters_out_everything(corpus_file, tmp_path, capsys):
    code = cli.main([
        "stats", "--corpus", str(corpus_file), "--output-dir", str(tmp_path),
        "--min-lyrics", "1000",
    ])
    assert code == 6
    capsys.readouterr()


def test_exit_code_stratum_too_small(tmp_path, capsys):
    tiny = write_jsonl(
        tmp_path / "tiny.jsonl",
        [
            {"id": "a1", "palo": "A", "text": "uno dos"},
            {"id": "b1", "palo": "B", "text": "tres cuatro"},
            {"id": "b2", "palo": "B", "text": "cinco seis"},
        ],
    )
    code = cli.main([
        "train", "--corpus", str(tiny), "--output-dir", str(tmp_path),
        "--min-lyrics", "1", "--runs", "2",
    ])
    assert code == 7
    capsys.readouterr()


def test_exit_code_degenerate_power_law(tmp_path, capsys):
    distinct = write_jsonl(
        tmp_path / "distinct.jsonl",
        [
            {"id": "a1", "palo": "A", "text": "w1 w2 w3"},
            {"id": "a2", "palo": "A", "text": "w4 w5 w6"},
            {"id": "b1", "palo": "B", "text": "w7 w8"},
            {"id": "b2", "palo": "B", "text": "w9 w10"},
        ],
    )
    assert cli.main(["stats", *base_args(distinct, tmp_path)]) == 10
    capsys.readouterr()


def test_exit_code_missing_model(tmp_path, capsys):
    code = cli.main([
        "classify", "--model", str(tmp_path / "no-model.json"), "--text", "x"
    ])
    assert code == 3
    capsys.readouterr()


def test_exit_code_nonpositive_alpha(corpus_file, tmp_path, capsys):
    code = cli.main([
        "train", *base_args(corpus_file, tmp_path),
        "--runs", "2", "--alpha", "0",
    ])
    assert code == 12
    capsys.readouterr()


@pytest.mark.parametrize("command", ["train", "essential"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "1e308"])
def test_alphas_outside_the_domain_exit_twelve(
    corpus_file, tmp_path, capsys, command, alpha
):
    out = tmp_path / "out"
    code = cli.main([
        command, *base_args(corpus_file, out), "--runs", "2", "--alpha", alpha,
    ])
    assert code == 12
    err = capsys.readouterr().err
    assert err.startswith(f"lexpalo {command}: error: alpha must be finite")
    # only alpha * |V| needs the vocabulary, so only 1e308 is checked after the load
    assert ("for |V| = " in err) == (alpha == "1e308")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_a_command_that_fails_after_its_first_report_writes_nothing(
    corpus_file, tmp_path, capsys, monkeypatch
):
    # the full-corpus model is fitted after the rounds that the accuracy and
    # confusion reports hold
    def failing_fit(*args, **kwargs):
        raise LabelMismatchError("fit failed")

    monkeypatch.setattr(experiments, "fit_from_masses", failing_fit)
    out = tmp_path / "out"
    code = cli.main(["train", *base_args(corpus_file, out), "--runs", "2"])
    assert code == LabelMismatchError.exit_code
    assert code in ERROR_CODES
    assert "fit failed" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_the_corpus_commands_never_join_a_processed_text(
    corpus_file, tmp_path, monkeypatch
):
    # every command reads the processed corpus's word ids, not its texts
    joined = spy_on_joins(monkeypatch)
    monkeypatch.delenv(cli.THREADS_ENV_VAR, raising=False)  # one process: the spy sees all
    fit = ["--runs", "2", "--train-fraction", "0.5"]
    for command, options in (
        ("stats", []), ("train", fit), ("sweep-alpha", [*fit, "--grid-step", "0.25"]),
        ("essential", fit), ("distances", []), ("mst", []),
    ):
        out = tmp_path / command
        assert cli.main([command, *base_args(corpus_file, out), *options]) == 0
        assert any(out.iterdir())
    assert joined == []
    processed = preprocess.preprocess_corpus(
        load_corpus(corpus_file), preprocess.default_config()
    )
    assert processed.records[1].text and joined == [1]


def no_loading(*args):
    raise AssertionError("corpus read")


@pytest.mark.parametrize("epsilon", ["inf", "nan", "-1"])
def test_epsilons_outside_the_domain_exit_two(
    corpus_file, tmp_path, capsys, monkeypatch, epsilon
):
    monkeypatch.setattr(cli, "load_corpus", no_loading)
    out = tmp_path / "out"
    code = cli.main([
        "essential", *base_args(corpus_file, out), "--runs", "2",
        "--epsilon", epsilon,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("lexpalo essential: error: epsilon must be finite")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["train", "essential"])
@pytest.mark.parametrize("alpha", ["0", "-0.5", "nan", "inf", "-inf"])
def test_alphas_outside_the_open_interval_exit_twelve_before_the_corpus_is_read(
    corpus_file, tmp_path, capsys, monkeypatch, command, alpha
):
    monkeypatch.setattr(cli, "load_corpus", no_loading)
    out = tmp_path / "out"
    # "=" keeps argparse from reading "-inf" as an option
    code = cli.main([command, *base_args(corpus_file, out), "--runs", "2", f"--alpha={alpha}"])
    assert code == 12
    captured = capsys.readouterr()
    assert captured.err == (
        f"lexpalo {command}: error: alpha must be finite and > 0, got {float(alpha)}\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["stats", "train", "sweep-alpha", "essential",
                                     "distances", "mst"])
@pytest.mark.parametrize("min_lyrics", ["0", "-3"])
def test_min_lyrics_below_one_exit_two_before_the_corpus_is_read(
    corpus_file, tmp_path, capsys, monkeypatch, command, min_lyrics
):
    monkeypatch.setattr(cli, "load_corpus", no_loading)
    out = tmp_path / "out"
    code = cli.main([command, "--corpus", str(corpus_file), "--output-dir", str(out),
                     "--min-lyrics", min_lyrics])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"lexpalo {command}: error: --min-lyrics must be >= 1, got {min_lyrics}\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("windows", ["100000000000", "0"])
def test_sttr_windows_beyond_the_cap_exit_two(
    corpus_file, tmp_path, capsys, monkeypatch, windows
):
    def no_draws(*args):
        raise AssertionError("windows drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    out = tmp_path / "out"
    code = cli.main([
        "stats", *base_args(corpus_file, out), "--sttr-windows", windows,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--sttr-windows must lie in [1, 1000000], got {windows}" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("step", ["5e-324", "1e-9"])
def test_grid_steps_beyond_the_cap_exit_two_before_preprocessing(
    corpus_file, tmp_path, capsys, monkeypatch, step
):
    def no_preprocessing(config):
        raise AssertionError("corpus preprocessed")

    monkeypatch.setattr(cli, "_prepare", no_preprocessing)
    out = tmp_path / "out"
    code = cli.main([
        "sweep-alpha", *base_args(corpus_file, out), "--grid-step", step,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("lexpalo sweep-alpha: error: grid_step")
    assert "at most 100000 alphas" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, runs, least",
    [
        ("train", "10000000000", 1), ("train", "0", 1), ("train", "100001", 1),
        ("sweep-alpha", "10000000000", 1), ("sweep-alpha", "-3", 1),
        ("essential", "10000000000", 2), ("essential", "1", 2),
    ],
)
def test_run_counts_beyond_the_cap_exit_two_before_the_corpus_is_read(
    corpus_file, tmp_path, capsys, monkeypatch, command, runs, least
):
    monkeypatch.setattr(cli, "load_corpus", no_loading)
    out = tmp_path / "out"
    code = cli.main([command, *base_args(corpus_file, out), "--runs", runs])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"lexpalo {command}: error: --runs must lie in "
        f"[{least}, {experiments.MAX_RUNS}], got {runs}\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep-alpha", "essential"])
@pytest.mark.parametrize("fraction", ["0", "1", "1.5", "-0.25", "nan"])
def test_train_fractions_outside_zero_to_one_exit_two_before_the_corpus_is_read(
    corpus_file, tmp_path, capsys, monkeypatch, command, fraction
):
    monkeypatch.setattr(cli, "load_corpus", no_loading)
    out = tmp_path / "out"
    code = cli.main([
        command, *base_args(corpus_file, out), "--runs", "2",
        "--train-fraction", fraction,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"lexpalo {command}: error: train_fraction must lie strictly "
        f"between 0 and 1, got {float(fraction)}\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_usage_errors_return_two(corpus_file, tmp_path, capsys):
    bad_fraction = cli.main([
        "train", *base_args(corpus_file, tmp_path),
        "--runs", "2", "--train-fraction", "1.5",
    ])
    assert bad_fraction == 2
    bad_grid = cli.main([
        "sweep-alpha", *base_args(corpus_file, tmp_path), "--grid-step", "0",
    ])
    assert bad_grid == 2
    bad_gamma = cli.main([
        "stats", *base_args(corpus_file, tmp_path), "--gamma", "1.5",
    ])
    assert bad_gamma == 2
    capsys.readouterr()


def test_argparse_rejections_exit_two(corpus_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stats"])  # --corpus is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "stats", *base_args(corpus_file, tmp_path), "--format", "xml",
        ])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--model", "m.json"])  # needs --text or --file
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["mst", *base_args(corpus_file, tmp_path), "--linkage", "single"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # the sweep reads no single alpha
        cli.main(["sweep-alpha", *base_args(corpus_file, tmp_path), "--alpha", "0.3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_threads_env_is_validated(
    corpus_file, trained_model, tmp_path, monkeypatch, capsys
):
    # every command validates the variable, also those that start no workers
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "zero")
    with pytest.raises(SystemExit) as exc:
        cli.main(["stats", *base_args(corpus_file, tmp_path)])
    assert exc.value.code == 2
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "0")
    with pytest.raises(SystemExit) as exc:
        cli.main(["stats", *base_args(corpus_file, tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--model", str(trained_model), "--text", "mar"])
    assert exc.value.code == 2
    assert cli.THREADS_ENV_VAR in capsys.readouterr().err


def test_output_dir_is_created_when_missing(corpus_file, tmp_path):
    nested = tmp_path / "deeply" / "nested" / "reports"
    assert cli.main(["stats", *base_args(corpus_file, nested)]) == 0
    assert (nested / "profile.csv").is_file()
