import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import corpusgen
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


def test_round_trip(tmp_path):
    norm = NormTable(pair_counts=dict(FOUR_PAIR_TABLE), source="unit")
    path = tmp_path / "n.tsv"
    save_norms(norm, path)
    loaded = load_norms(path)
    assert loaded.pair_counts == norm.pair_counts
    assert loaded.type_counts == norm.type_counts
    assert loaded.lemma_counts == norm.lemma_counts
    assert loaded.total == norm.total
    assert loaded.source == "unit"
    save_norms(loaded, tmp_path / "n2.tsv")
    assert (tmp_path / "n.tsv").read_bytes() == (tmp_path / "n2.tsv").read_bytes()


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
    with pytest.raises(NormTableError):
        load_norms(path)


# Characters str.splitlines() treats as line breaks that CoNLL-U lines may hold.
UNICODE_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

lemmas = st.text(
    alphabet=st.one_of(
        st.sampled_from(UNICODE_LINE_BREAKS),
        st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.dictionaries(
        st.tuples(st.sampled_from(ASC_TYPES), lemmas), st.integers(1, 1000), min_size=1
    ),
    unseen=lemmas,
)
@example(pairs={("TRAN_S", "ea\u2028t"): 1}, unseen="x")
def test_norm_tables_round_trip_with_any_lemma(tmp_path_factory, pairs, unseen):
    assume(all(lemma != unseen for _, lemma in pairs))
    norm = NormTable(pair_counts=pairs, source="gen")
    path = tmp_path_factory.mktemp("norms") / "n.tsv"
    save_norms(norm, path)
    assert load_norms(path) == norm
    for asc_type, lemma in [*pairs, *((c, unseen) for c in ASC_TYPES)]:
        cells = contingency(norm, asc_type, lemma)
        assert min(cells.a, cells.b, cells.c_cell, cells.d) >= 0
        assert cells.total == norm.total


def test_marginal_consistency_after_build():
    corpus = corpusgen.make_corpus(seed=23, n_sentences=150)
    norm = build_norms([parse_conllu(corpus, source_id="s")], "unit")
    assert sum(norm.type_counts.values()) == norm.total
    assert sum(norm.lemma_counts.values()) == norm.total
