"""End-to-end CLI behavior: reports, determinism, and exit codes."""

import csv
import json
import os
import random

import numpy as np
import pytest

from lexpalo import cli, load_corpus, mnb, save_corpus
from lexpalo.errors import CorpusIoError, ModelFormatError


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
    assert cli.main(argv) == cli.EXIT_CODES[error]
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "UTF-8" in err


def test_classify_rejects_model_without_preprocessing_state(
    trained_model, tmp_path, capsys
):
    model, _ = mnb.load_model(trained_model)
    bare = tmp_path / "bare.json"
    mnb.save_model(model, bare)
    code = cli.main(["classify", "--model", str(bare), "--text", "mar"])
    assert code == cli.EXIT_CODES[ModelFormatError]
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
    "df-length-differs": _drop_last_df,
    "n-docs-string": _set("vocab", "n_docs", "18"),
    "n-docs-zero": _set("vocab", "n_docs", 0),
    "df-zero": _set("vocab", "df", 0, 0),
    "log-prob-nan": _set("word_logprob", 0, 0, float("nan")),
}


@pytest.mark.parametrize("corrupt", MODEL_CORRUPTIONS.values(),
                         ids=MODEL_CORRUPTIONS.keys())
def test_classify_rejects_corrupted_model(trained_model, tmp_path, capsys, corrupt):
    payload = json.loads(trained_model.read_text(encoding="utf-8"))
    corrupt(payload)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload), encoding="utf-8")
    code = cli.main(["classify", "--model", str(broken), "--text", "mar sol"])
    assert code == cli.EXIT_CODES[ModelFormatError]
    assert str(broken) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error paths and exit codes


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
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


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
