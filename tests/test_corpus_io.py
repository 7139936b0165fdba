"""Corpus loading, validation, filtering, splitting, and aggregation."""

import csv
import json
import os
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexpalo.corpus_io import (
    Corpus,
    LyricRecord,
    SplitSpec,
    filter_top_palos,
    load_corpus,
    atomic_write,
    split_positions,
    token_ids,
)
from lexpalo.errors import (
    CorpusIoError,
    DuplicateIdError,
    EmptyCorpusError,
    FormatError,
    StratumTooSmallError,
)

import oracles
from helpers import (
    benchmark_corpus,
    corpus,
    labeled_corpus,
    palo_tokens,
    random_spanish_corpus,
    record,
    save_corpus,
)


def write_jsonl(path, rows):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
        encoding="utf-8",
    )
    return path


# ---------------------------------------------------------------------------
# loading


def test_load_jsonl_roundtrips_fields(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "x1", "palo": "solea", "text": "ay pena mía"},
            {"id": "x2", "palo": "tangos", "text": "al compás", "source": "web"},
            {"id": "x3", "palo": "solea", "text": "otra pena"},
        ],
    )
    c = load_corpus(path)
    assert [r.id for r in c.records] == ["x1", "x2", "x3"]
    assert [r.palo for r in c.records] == ["solea", "tangos", "solea"]
    assert c.records[0].text == "ay pena mía"
    assert c.records[1].metadata == {"source": "web"}
    assert c.palos == ("solea", "tangos")
    assert palo_tokens(c, ["solea"]) == ["ay", "pena", "mía", "otra", "pena"]
    assert palo_tokens(c, ["tangos", "solea"]) == [
        "al", "compás", "ay", "pena", "mía", "otra", "pena"
    ]


def test_token_ids_round_trip_every_record():
    rng = random.Random(17)
    corpora = [random_spanish_corpus(rng, tokens_per_record=(0, 12)) for _ in range(20)]
    corpora.append(corpus(("e", ""), ("w", " \t\n "), ("one", "ñ"), ("b", "x y x")))
    for c in corpora:
        tok = token_ids(c)
        assert tok.corpus is c
        assert tok.ids.dtype == np.int32 and tok.offsets.dtype == np.int64
        assert len(tok.offsets) == len(c) + 1 and tok.offsets[0] == 0
        for i, rec in enumerate(c.records):
            ids = tok.ids[tok.offsets[i] : tok.offsets[i + 1]]
            assert [tok.words[j] for j in ids] == rec.text.split()
        # ids count up from 0 in order of first appearance
        first = dict.fromkeys(tok.ids.tolist())
        assert list(first) == list(range(len(tok.words)))
        assert len(set(tok.words)) == len(tok.words)


def test_load_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a", "palo": "p", "text": "t"}\n\n'
        '{"id": "b", "palo": "p", "text": "u"}\n',
        encoding="utf-8",
    )
    assert [r.id for r in load_corpus(path).records] == ["a", "b"]


def test_load_jsonl_reports_line_of_bad_json(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a", "palo": "p", "text": "t"}\nnot json\n', encoding="utf-8"
    )
    with pytest.raises(FormatError) as exc_info:
        load_corpus(path)
    assert exc_info.value.line == 2
    assert "line 2" in str(exc_info.value)


def test_load_jsonl_reports_missing_keys(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": "t"}])
    with pytest.raises(FormatError, match="palo"):
        load_corpus(path)


@pytest.mark.parametrize("field", ["id", "palo", "text"])
@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_load_rejects_blank_required_field(tmp_path, format, field):
    rows = [{"id": "a", "palo": "p", "text": "t"}, {"id": "b", "palo": "p", "text": "t"}]
    rows[1][field] = "  "
    path = tmp_path / f"c.{format}"
    if format == "jsonl":
        write_jsonl(path, rows)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["id", "palo", "text"])
            writer.writeheader()
            writer.writerows(rows)
    line = {"jsonl": 2, "csv": 3}[format]
    with pytest.raises(FormatError, match=f"line {line}: '{field}' must be a non-empty string"):
        load_corpus(path, format=format)


def test_load_csv_row_missing_a_cell_cites_its_line(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,palo,text\na,p,uno\nb,p\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 3: 'text' must be a non-empty string"):
        load_corpus(path, format="csv")


@pytest.mark.parametrize("field", ["id", "palo", "text"])
def test_load_jsonl_rejects_a_lone_surrogate_escape(tmp_path, field):
    rows = [{"id": "a", "palo": "p", "text": "t"}, {"id": "b", "palo": "p", "text": "ü"}]
    rows[1][field] = "x\ud800y"
    path = tmp_path / "c.jsonl"
    # ensure_ascii writes the lone surrogate as the escape \ud800
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="ascii")
    with pytest.raises(FormatError, match="line 2: .* lone surrogate"):
        load_corpus(path)


def test_load_jsonl_joins_an_escaped_surrogate_pair(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a", "palo": "p", "text": "ol\\u00e9 \\ud83d\\ude00"}\n', encoding="ascii"
    )
    assert load_corpus(path).records[0].text == "olé \U0001f600"


def test_load_jsonl_duplicate_id_cites_both_lines(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "x0", "palo": "p", "text": "t"},
            {"id": "x1", "palo": "p", "text": "t"},
            {"id": "x2", "palo": "p", "text": "t"},
            {"id": "x3", "palo": "p", "text": "t"},
            {"id": "x1", "palo": "q", "text": "u"},
        ],
    )
    with pytest.raises(DuplicateIdError, match=r"'x1' on lines 2 and 5"):
        load_corpus(path)


def test_load_jsonl_stringifies_nonstring_metadata(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [{"id": "a", "palo": "p", "text": "t", "year": 1922, "tags": ["x"]}],
    )
    rec = load_corpus(path).records[0]
    assert rec.metadata == {"year": "1922", "tags": '["x"]'}


def test_load_empty_file_raises(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        load_corpus(path)


def test_load_missing_file_raises_io_error(tmp_path):
    with pytest.raises(CorpusIoError):
        load_corpus(tmp_path / "nope.jsonl")


def test_load_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        load_corpus(tmp_path / "c.xml", format="xml")


def test_load_csv_with_extra_columns(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id,palo,text,source\na,solea,canto hondo,web\nb,tangos,al compás,\n",
        encoding="utf-8",
    )
    c = load_corpus(path, format="csv")
    assert [r.id for r in c.records] == ["a", "b"]
    assert c.records[0].metadata == {"source": "web"}
    assert c.records[1].text == "al compás"


def test_load_csv_missing_column_raises(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,text\na,hola\n", encoding="utf-8")
    with pytest.raises(FormatError, match="palo"):
        load_corpus(path, format="csv")


def test_load_csv_duplicate_id_detected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "id,palo,text\na,p,uno\na,p,dos\n", encoding="utf-8"
    )
    with pytest.raises(DuplicateIdError):
        load_corpus(path, format="csv")


# ---------------------------------------------------------------------------
# save / round-trip


def test_save_load_roundtrip_is_identity(tmp_path):
    original = Corpus(
        [
            record("a", "texto uno", "solea", source="web", year=1922),
            record("b", "canción ñoña ¡olé!", "tangos"),
        ]
    )
    path = tmp_path / "out.jsonl"
    save_corpus(original, path)
    assert load_corpus(path) == original


def test_save_emits_one_json_object_per_line(tmp_path):
    c = corpus(("a", "uno", "p"), ("b", "dos", "q"))
    path = tmp_path / "out.jsonl"
    save_corpus(c, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"id": "a", "palo": "p", "text": "uno"}


def test_save_to_unwritable_path_raises(tmp_path):
    c = corpus(("a", "uno", "p"))
    with pytest.raises(CorpusIoError):
        save_corpus(c, tmp_path / "missing_dir" / "out.jsonl")


def test_failed_atomic_write_keeps_the_target_and_leaves_no_temp_file(
    tmp_path, monkeypatch
):
    path = tmp_path / "out.txt"
    path.write_text("before\n", encoding="utf-8")

    with pytest.raises(UnicodeEncodeError):
        atomic_write(path, "partial \ud800 text")
    assert path.read_text(encoding="utf-8") == "before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def fail_to_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail_to_replace)
    with pytest.raises(CorpusIoError, match="disk full"):
        atomic_write(path, "after\n")
    assert path.read_text(encoding="utf-8") == "before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


# ---------------------------------------------------------------------------
# corpus construction invariants


def test_corpus_requires_records():
    with pytest.raises(EmptyCorpusError):
        Corpus([])


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        corpus(("a", "uno", "p"), ("a", "dos", "p"))


def test_corpus_rejects_empty_id_or_palo():
    with pytest.raises(FormatError):
        Corpus([LyricRecord(id="", text="t", palo="p")])
    with pytest.raises(FormatError):
        Corpus([LyricRecord(id="a", text="t", palo="")])


# ---------------------------------------------------------------------------
# filtering


def test_filter_keeps_only_well_represented_palos():
    c = labeled_corpus({"A": ["a1", "a2", "a3"], "B": ["b1"]})
    kept = filter_top_palos(c, min_lyrics=2)
    assert [r.id for r in kept.records] == ["A-0", "A-1", "A-2"]
    assert kept.palos == ("A",)


def test_filter_preserves_interleaved_order():
    c = corpus(
        ("1", "t", "A"), ("2", "t", "B"), ("3", "t", "A"),
        ("4", "t", "B"), ("5", "t", "C"),
    )
    kept = filter_top_palos(c, min_lyrics=2)
    assert [r.id for r in kept.records] == ["1", "2", "3", "4"]


def test_filter_all_palos_below_threshold_raises():
    c = corpus(("1", "t", "A"), ("2", "t", "B"))
    with pytest.raises(EmptyCorpusError):
        filter_top_palos(c, min_lyrics=5)


def test_filter_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        filter_top_palos(corpus(("1", "t", "A")), min_lyrics=0)


# ---------------------------------------------------------------------------
# stratified splitting


def split_corpus(c, spec):
    """The train and validation corpora at ``split_positions``: the
    validation side, and every other record for the train side."""
    val = split_positions(c, spec).tolist()
    train = sorted(set(range(len(c.records))) - set(val))
    return Corpus(c.records[i] for i in train), Corpus(c.records[i] for i in val)


def test_split_sizes_20_records_at_085():
    c = labeled_corpus({"A": [f"text {i}" for i in range(20)]})
    train, val = split_corpus(c, SplitSpec(train_fraction=0.85, seed=1))
    assert len(train) == 17
    assert len(val) == 3


def test_split_rounds_half_up():
    # 0.85 * 10 = 8.5 rounds to 9, not 8
    c = labeled_corpus({"A": [f"text {i}" for i in range(10)]})
    train, val = split_corpus(c, SplitSpec(train_fraction=0.85, seed=1))
    assert (len(train), len(val)) == (9, 1)


def test_split_clamps_so_both_sides_are_nonempty():
    c = labeled_corpus({"A": ["one", "two"]})
    for fraction in (0.01, 0.99):
        train, val = split_corpus(c, SplitSpec(train_fraction=fraction, seed=3))
        assert (len(train), len(val)) == (1, 1)


def test_split_partitions_each_palo():
    rng = random.Random(7)
    c = labeled_corpus(
        {p: [f"text {i}" for i in range(rng.randint(2, 30))]
         for p in ("A", "B", "C")}
    )
    train, val = split_corpus(c, SplitSpec(train_fraction=0.8, seed=11))
    train_ids = {r.id for r in train.records}
    val_ids = {r.id for r in val.records}
    assert train_ids | val_ids == {r.id for r in c.records}
    assert not train_ids & val_ids
    for palo in c.palos:
        assert train.palo_index.get(palo) and val.palo_index.get(palo)


def test_split_outputs_preserve_corpus_order():
    c = corpus(*[(f"r{i}", f"text {i}", "AB"[i % 2]) for i in range(12)])
    train, val = split_corpus(c, SplitSpec(train_fraction=0.75, seed=5))
    order = {r.id: i for i, r in enumerate(c.records)}
    for side in (train, val):
        positions = [order[r.id] for r in side.records]
        assert positions == sorted(positions)


def test_split_is_deterministic_per_seed():
    c = labeled_corpus({"A": [f"t{i}" for i in range(9)],
                        "B": [f"u{i}" for i in range(14)]})
    spec = SplitSpec(train_fraction=0.85, seed=42)
    first = split_corpus(c, spec)
    second = split_corpus(c, spec)
    assert first[0] == second[0] and first[1] == second[1]
    shifted = split_corpus(c, SplitSpec(train_fraction=0.85, seed=43))
    assert shifted[0] != first[0] or shifted[1] != first[1]


def test_split_proportions_stay_within_one_record_of_fraction():
    rng = random.Random(99)
    for trial in range(25):
        fraction = rng.uniform(0.2, 0.9)
        c = labeled_corpus(
            {p: [f"t{i}" for i in range(rng.randint(2, 40))]
             for p in ("A", "B", "C", "D")}
        )
        train, _ = split_corpus(
            c, SplitSpec(train_fraction=fraction, seed=trial)
        )
        for palo, positions in c.palo_index.items():
            n = len(positions)
            got = len(train.palo_index.get(palo, ())) / n
            assert fraction - 1 / n <= got <= fraction + 1 / n


def test_split_rejects_singleton_palo():
    c = corpus(("1", "t", "A"), ("2", "t", "A"), ("3", "t", "B"))
    with pytest.raises(StratumTooSmallError, match="'B'"):
        split_corpus(c, SplitSpec(train_fraction=0.85, seed=0))


def test_split_positions_equal_a_full_shuffle_then_cut():
    # the split makes only the draws of random.shuffle that fill the
    # validation tail, each from getrandbits as shuffle's randbelow draws it:
    # that draw and shuffle's draw order must hold on every Python it runs on
    small = labeled_corpus({"A": ["uno", "dos"], "B": ["tres", "cuatro", "cinco"]})
    reference = benchmark_corpus(5)
    for c in (small, reference):
        for fraction in (0.001, 0.5, 0.85, 0.999):
            for seed in range(125):
                spec = SplitSpec(train_fraction=fraction, seed=seed)
                validation = split_positions(c, spec)
                assert validation.dtype == np.intp
                assert validation.tolist() == oracles.stratified_positions(c, spec)[1]


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
def test_split_spec_rejects_out_of_range_fraction(fraction):
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=fraction)


# ---------------------------------------------------------------------------
# per-palo aggregation


def test_concat_by_palo_token_count_is_additive():
    c = corpus(
        ("1", "ay pena pena", "A"),
        ("2", "mar y arena", "B"),
        ("3", "la pena negra", "A"),
        ("4", "compás", "B"),
        ("5", "el río", "A"),
    )
    aggregates = oracles.concat_by_palo(c)
    assert set(aggregates) == {"A", "B"}
    for palo, agg in aggregates.items():
        per_record = sum(
            len(r.text.split()) for r in c.records if r.palo == palo
        )
        assert len(agg.text.split()) == per_record
        assert agg.id == f"__agg__{palo}"
        assert agg.palo == palo


def test_concat_by_palo_joins_in_corpus_order():
    c = corpus(("1", "uno", "A"), ("2", "dos", "B"), ("3", "tres", "A"))
    assert oracles.concat_by_palo(c)["A"].text == "uno\ntres"


# ---------------------------------------------------------------------------
# properties of the readers and the writer

# any text but surrogates (not encodable as UTF-8), with line breaks, quotes,
# commas, tabs and accents; required fields are not blank
FIELD_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40
).filter(str.strip)
METADATA_KEYS = ("source", "year", "cantaor", "notas, varias", 'comillas "')


@st.composite
def records_sharing_metadata_keys(draw):
    """Records with unique ids, every one carrying the same metadata keys."""
    keys = draw(st.lists(st.sampled_from(METADATA_KEYS), unique=True, max_size=3))
    ids = draw(st.lists(FIELD_TEXT, min_size=1, max_size=8, unique=True))
    return [
        LyricRecord(
            id=rec_id,
            palo=draw(FIELD_TEXT),
            text=draw(FIELD_TEXT),
            metadata={k: draw(st.text(max_size=10)) for k in keys},
        )
        for rec_id in ids
    ], keys


@settings(max_examples=100, deadline=None)
@given(drawn=records_sharing_metadata_keys())
def test_jsonl_and_csv_readers_agree_on_the_same_records(drawn):
    records, keys = drawn
    with tempfile.TemporaryDirectory() as tmp:
        jsonl, table = Path(tmp, "c.jsonl"), Path(tmp, "c.csv")
        save_corpus(Corpus(records), jsonl)
        with open(table, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "palo", "text", *keys])
            for rec in records:
                writer.writerow([rec.id, rec.palo, rec.text,
                                 *(rec.metadata[k] for k in keys)])
        from_jsonl = load_corpus(jsonl)
        assert load_corpus(table, "csv") == from_jsonl
        assert from_jsonl == Corpus(records)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(FIELD_TEXT, min_size=1, max_size=6, unique=True),
    data=st.data(),
)
def test_load_save_load_round_trips_and_saves_identical_bytes(ids, data):
    rows = [
        {"id": rec_id, "palo": data.draw(FIELD_TEXT), "text": data.draw(FIELD_TEXT),
         **data.draw(st.dictionaries(st.sampled_from(METADATA_KEYS), JSON_VALUES,
                                     max_size=3))}
        for rec_id in ids
    ]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.jsonl"), Path(tmp, "second.jsonl")
        loaded = load_corpus(write_jsonl(Path(tmp, "given.jsonl"), rows))
        save_corpus(loaded, first)
        reloaded = load_corpus(first)
        assert reloaded == loaded
        save_corpus(reloaded, second)
        assert second.read_bytes() == first.read_bytes()
