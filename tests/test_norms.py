import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import corpusgen
from asc_toolkit.cli import resolve_source
from asc_toolkit.ingest import parse_conllu
from asc_toolkit.norms import (
    NormTable,
    NormTableError,
    build_norms,
    contingency,
    load_norms,
    save_norms,
)
from asc_toolkit.tagger import ASC_TYPES, debug_lines, tag_document

DITRAN_SENT = """\
1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_
2\tgave\tgive\tVERB\t_\t_\t0\troot\t_\t_
3\thim\the\tPRON\t_\t_\t2\tiobj\t_\t_
4\ta\ta\tDET\t_\t_\t5\tdet\t_\t_
5\tbook\tbook\tNOUN\t_\t_\t2\tobj\t_\t_
"""

FOUR_PAIR_TABLE = {
    ("TRAN_S", "eat"): 8,
    ("INTRAN_S", "eat"): 2,
    ("TRAN_S", "see"): 2,
    ("INTRAN_S", "run"): 88,
}


def test_build_single_observation():
    doc = parse_conllu(DITRAN_SENT, source_id="one")
    norm = build_norms([doc], "unit")
    assert norm.pair_counts == {("DITRAN", "give"): 1}
    assert norm.total == 1
    assert norm.type_counts == {"DITRAN": 1}
    assert norm.lemma_counts == {"give": 1}


def test_build_empty_stream():
    with pytest.raises(NormTableError, match="empty norm table"):
        build_norms([], "unit")


def test_build_no_tags():
    doc = parse_conllu("1\tRun\trun\tVERB\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(NormTableError, match="empty norm table"):
        build_norms([doc], "unit")


def test_build_matches_debug_recount():
    corpus = corpusgen.make_corpus(seed=11, n_sentences=100)
    doc = parse_conllu(corpus, source_id="synthetic")
    norm = build_norms([doc], "unit")
    recount = Counter()
    for line in debug_lines(tag_document(doc)):
        _, _, _, asc_type, lemma = line.split("\t")
        recount[(asc_type, lemma)] += 1
    assert norm.pair_counts == dict(recount)
    assert norm.total == sum(recount.values())


def test_build_order_insensitive():
    corpus = corpusgen.make_corpus(seed=3, n_sentences=60)
    blocks = corpus.strip().split("\n\n")
    docs = [parse_conllu(b + "\n", source_id=f"d{i}") for i, b in enumerate(blocks)]
    shuffled = docs[:]
    random.Random(5).shuffle(shuffled)
    a = build_norms(docs, "unit")
    b = build_norms(shuffled, "unit")
    assert a.pair_counts == b.pair_counts
    assert a.total == b.total


def test_contingency_degenerate():
    norm = NormTable(pair_counts={("DITRAN", "give"): 1}, source="unit")
    cells = contingency(norm, "DITRAN", "give")
    assert (cells.a, cells.b, cells.c_cell, cells.d) == (1, 0, 0, 0)


def test_contingency_hand_arithmetic():
    norm = NormTable(pair_counts=dict(FOUR_PAIR_TABLE), source="unit")
    cells = contingency(norm, "TRAN_S", "eat")
    assert (cells.a, cells.b, cells.c_cell, cells.d) == (8, 2, 2, 88)
    assert cells.total == norm.total == 100


def test_contingency_absent_lemma():
    norm = NormTable(pair_counts=dict(FOUR_PAIR_TABLE), source="unit")
    cells = contingency(norm, "TRAN_S", "zzz")
    assert (cells.a, cells.b, cells.c_cell, cells.d) == (0, 0, 10, 90)


def test_contingency_cells_nonnegative_for_all_pairs():
    norm = NormTable(pair_counts=dict(FOUR_PAIR_TABLE), source="unit")
    for asc_type in ("TRAN_S", "INTRAN_S", "DITRAN"):
        for lemma in ("eat", "see", "run", "zzz"):
            cells = contingency(norm, asc_type, lemma)
            assert min(cells.a, cells.b, cells.c_cell, cells.d) >= 0
            assert cells.total == norm.total


def _save(norm, path):
    with open(path, "w", encoding="utf-8", newline="") as out:
        save_norms(norm, out)


def test_round_trip(tmp_path):
    norm = NormTable(pair_counts=dict(FOUR_PAIR_TABLE), source="unit")
    path = tmp_path / "n.tsv"
    _save(norm, path)
    loaded = load_norms(path)
    assert loaded.pair_counts == norm.pair_counts
    assert loaded.type_counts == norm.type_counts
    assert loaded.lemma_counts == norm.lemma_counts
    assert loaded.total == norm.total
    assert loaded.source == "unit"
    _save(loaded, tmp_path / "n2.tsv")
    assert (tmp_path / "n.tsv").read_bytes() == (tmp_path / "n2.tsv").read_bytes()


@pytest.mark.parametrize(
    "source, version, lemma, named",
    [
        ("a\nb", "1.0.0", "see", "source label must not hold a line break, got 'a\\nb'"),
        ("a\rb", "1.0.0", "see", "source label must not hold a line break, got 'a\\rb'"),
        ("unit", "2.0.0", "see", "unsupported norm table version '2.0.0' (expected 1.0.0)"),
        ("unit", "10.0", "see", "unsupported norm table version '10.0' (expected 1.0.0)"),
        ("unit", "1.0\n#total=9", "see", "version must not hold a line break, got '1.0\\n#total=9'"),
        ("unit", "1.0.0", "b\te", "the lemma of ('TRAN_S', 'b\\te') must be lowercase"),
        ("unit", "1.0.0", "b\re", "the lemma of ('TRAN_S', 'b\\re') must be lowercase"),
        ("unit", "1.0.0", "b\ne", "the lemma of ('TRAN_S', 'b\\ne') must be lowercase"),
        ("unit", "1.0.0", "", "the lemma of ('TRAN_S', '') must be lowercase"),
        ("unit", "1.0.0", "Give", "the lemma of ('TRAN_S', 'Give') must be lowercase"),
        ("unit", "1.0.0", "\u0130", "the lemma of ('TRAN_S', '\u0130') must be lowercase"),
    ],
    ids=[
        "source-lf", "source-cr", "version-2", "version-10", "version-lf", "lemma-tab",
        "lemma-cr", "lemma-lf", "lemma-empty", "lemma-capitalised", "lemma-dotted-capital-i",
    ],
)
def test_construction_refuses_a_table_that_would_not_load_back(source, version, lemma, named):
    with pytest.raises(NormTableError, match=re.escape(named)):
        NormTable(
            pair_counts={("TRAN_S", "eat"): 2, ("TRAN_S", lemma): 1}, source=source, version=version
        )


@pytest.mark.parametrize("version", ["1.0.0", "1.9", "1", "1.x\u2028y"])
def test_construction_accepts_any_version_of_the_same_major_number(version):
    assert NormTable(pair_counts={("TRAN_S", "eat"): 2}, version=version).version == version


def test_a_built_table_cannot_be_reassigned():
    norm = build_norms([parse_conllu(DITRAN_SENT, source_id="one")], "unit")
    for name in ("pair_counts", "type_counts", "lemma_counts", "total", "source", "version",
                 "pair_scores"):
        with pytest.raises(FrozenInstanceError):
            setattr(norm, name, getattr(norm, name))
    assert norm == NormTable(pair_counts={("DITRAN", "give"): 1}, source="unit")


def test_load_accepts_bom(tmp_path):
    demo = resolve_source("demo")
    bom = tmp_path / "demo.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + demo.read_bytes())
    assert load_norms(bom) == load_norms(demo)


def test_load_truncated(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#source=x\n#version=1.0.0\nTRAN_S\teat\n", encoding="utf-8")
    with pytest.raises(NormTableError, match="malformed norm file"):
        load_norms(path)


def test_load_missing_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("TRAN_S\teat\t3\n", encoding="utf-8")
    with pytest.raises(NormTableError, match="malformed norm file"):
        load_norms(path)


@pytest.mark.parametrize(
    "text, problem",
    [
        # A repeated header must fail, not silently replace the line before it.
        ("#source=x\n#total=3\n#total=5\n#version=1.0.0\n", "repeated #total header at line 3"),
        ("#version=1.0.0\n#source=x\n#source=y\n#total=3\n", "repeated #source header at line 3"),
        ("#source=x\n#version=1.0.0\n#version=1.0.1\n#total=3\n",
         "repeated #version header at line 3"),
        ("#source=x\n#version=1.0.0\n#total\n", "bad header at line 3"),
        ("#source=x\n#version=1.0.0\n#total=6\nTRAN_S\teat\t3\n", "duplicate pair at line 5"),
    ],
    ids=["total-3-5", "source-x-y", "version-1.0.0-1.0.1", "header-without-equals", "repeated-pair"],
)
def test_load_error_names_the_file_and_the_line(tmp_path, text, problem):
    path = tmp_path / "bad.tsv"
    path.write_text(text + "TRAN_S\teat\t3\n", encoding="utf-8")
    with pytest.raises(NormTableError) as info:
        load_norms(path)
    assert str(info.value) == f"{path}: malformed norm file: {problem}"


def test_load_inconsistent_total(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "#source=x\n#version=1.0.0\n#total=99\nTRAN_S\teat\t3\n", encoding="utf-8"
    )
    with pytest.raises(NormTableError, match="inconsistent norm table"):
        load_norms(path)


def test_load_version_mismatch(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "#source=x\n#version=2.0.0\n#total=3\nTRAN_S\teat\t3\n", encoding="utf-8"
    )
    with pytest.raises(NormTableError, match="version"):
        load_norms(path)


def test_load_nonpositive_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "#source=x\n#version=1.0.0\n#total=0\nTRAN_S\teat\t0\n", encoding="utf-8"
    )
    with pytest.raises(NormTableError, match="inconsistent norm table: count 0"):
        load_norms(path)


@pytest.mark.parametrize(
    "pair_counts",
    [{("ATTR", "be"): 0}, {("ATTR", "be"): 3, ("TRAN_S", "eat"): -3}, {("ATTR", "be"): -1}],
)
def test_nonpositive_count_is_inconsistent_not_empty(pair_counts):
    with pytest.raises(NormTableError, match="inconsistent norm table: count"):
        NormTable(pair_counts)


@pytest.mark.parametrize("text", ["1_0", " 10 ", "+10", "10\u00a0", "\uff11\uff10", "-10", ""])
@pytest.mark.parametrize("where", ["count", "total"])
def test_load_reads_only_ascii_digits(tmp_path, text, where):
    # int() would read each of these but the empty string.
    count, total = (text, "10") if where == "count" else ("10", text)
    path = tmp_path / "bad.tsv"
    path.write_text(f"#source=x\n#version=1.0.0\n#total={total}\nATTR\tbe\t{count}\n", encoding="utf-8")
    with pytest.raises(NormTableError, match="malformed norm file: .* is not ASCII digits"):
        load_norms(path)


@pytest.mark.parametrize("where", ["count", "total"])
def test_load_names_the_file_for_a_count_past_the_int_digit_limit(tmp_path, where):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits with a bare ValueError.
    digits = "1" * 5000
    count, total = (digits, "10") if where == "count" else ("10", digits)
    path = tmp_path / "big.tsv"
    path.write_text(f"#source=x\n#version=1.0.0\n#total={total}\nATTR\tbe\t{count}\n", encoding="utf-8")
    what = "count at line 4" if where == "count" else "#total header"
    with pytest.raises(NormTableError) as info:
        load_norms(path)
    assert str(info.value) == f"{path}: malformed norm file: {what} has 5000 digits"


@pytest.mark.parametrize(
    "text",
    [
        "#source=x\n#version=1.0.0\n#total=3\nTRAN_S\teat\n",
        "#source=x\n#version=2.0.0\n#total=3\nTRAN_S\teat\t3\n",
        "#source=x\n#version=1.0.0\n#total=4\nTRAN_S\teat\t3\n",
        "#source=x\n#version=1.0.0\n#total=3\nNOPE\teat\t3\n",
        "#source=x\n#version=1.0.0\n#total=0\n",
    ],
)
def test_load_errors_name_the_file(tmp_path, text):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(NormTableError) as info:
        load_norms(path)
    assert str(info.value).startswith(f"{path}: ")


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"#source=x\n#version=1.0.0\n#total=3\nTRAN_S\t\xff\t3\n")
    with pytest.raises(NormTableError) as info:
        load_norms(path)
    assert str(info.value) == (
        f"cannot read norm file {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 41: invalid start byte"
    )


# Characters str.splitlines() treats as line breaks that CoNLL-U lines may hold.
UNICODE_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# Header values: any text without a line feed or a carriage return.
header_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from(UNICODE_LINE_BREAKS),
        st.characters(exclude_characters="\n\r", exclude_categories=("Cs",)),
    ),
    max_size=6,
)
# Lemmas are drawn as any text without a tab or line break, then lowercased:
# .lower() is idempotent, so each is its own .lower(), as a table's must be.
lemmas = st.text(
    alphabet=st.one_of(
        st.sampled_from(UNICODE_LINE_BREAKS),
        st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    ),
    min_size=1,
    max_size=6,
).map(str.lower)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.dictionaries(
        st.tuples(st.sampled_from(ASC_TYPES), lemmas), st.integers(1, 1000), min_size=1
    ),
    unseen=lemmas,
    source=header_texts,
    # The major number is NORM_FORMAT_VERSION's; anything may follow its dot.
    version=st.one_of(st.just("1"), header_texts.map("1.".__add__)),
)
@example(pairs={("TRAN_S", "ea\u2028t"): 1}, unseen="x", source="a=b\u2028c", version="1.0.0")
def test_norm_tables_round_trip_with_any_lemma(tmp_path_factory, pairs, unseen, source, version):
    assume(all(lemma != unseen for _, lemma in pairs))
    norm = NormTable(pair_counts=pairs, source=source, version=version)
    path = tmp_path_factory.mktemp("norms") / "n.tsv"
    _save(norm, path)
    assert load_norms(path) == norm  # source and version take part in equality
    for asc_type, lemma in [*pairs, *((c, unseen) for c in ASC_TYPES)]:
        cells = contingency(norm, asc_type, lemma)
        assert min(cells.a, cells.b, cells.c_cell, cells.d) >= 0
        assert cells.total == norm.total


def test_marginal_consistency_after_build():
    corpus = corpusgen.make_corpus(seed=23, n_sentences=150)
    norm = build_norms([parse_conllu(corpus, source_id="s")], "unit")
    assert sum(norm.type_counts.values()) == norm.total
    assert sum(norm.lemma_counts.values()) == norm.total
