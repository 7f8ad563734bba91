import functools
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import corpusgen
from asc_toolkit import cli
from asc_toolkit.indices import IndexConfig
from asc_toolkit.ingest import Document, parse_conllu, parse_conllu_file
from asc_toolkit.norms import NormTableError, build_norms, contingency, load_norms, save_norms
from asc_toolkit.tagger import (
    ASC_TYPES,
    AscToken,
    _classify,
    debug_lines,
    normalize_deprel,
    tag_document,
    tag_sentence,
)

DITRAN_SENT = """\
1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_
2\tgave\tgive\tVERB\t_\t_\t0\troot\t_\t_
3\thim\the\tPRON\t_\t_\t2\tiobj\t_\t_
4\ta\ta\tDET\t_\t_\t5\tdet\t_\t_
5\tbook\tbook\tNOUN\t_\t_\t2\tobj\t_\t_
6\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_
"""

PASSIVE_SENT = """\
1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_
2\twindow\twindow\tNOUN\t_\t_\t4\tnsubj:pass\t_\t_
3\twas\tbe\tAUX\t_\t_\t4\taux:pass\t_\t_
4\tbroken\tbreak\tVERB\t_\t_\t0\troot\t_\t_
5\t.\t.\tPUNCT\t_\t_\t4\tpunct\t_\t_
"""

ATTR_SENT = """\
1\tShe\tshe\tPRON\t_\t_\t3\tnsubj\t_\t_
2\tis\tbe\tAUX\t_\t_\t3\tcop\t_\t_
3\thappy\thappy\tADJ\t_\t_\t0\troot\t_\t_
"""


def first_sentence(text):
    return parse_conllu(text).sentences[0]


def test_ditransitive():
    tags = tag_sentence(first_sentence(DITRAN_SENT))
    assert len(tags) == 1
    assert tags[0].asc_type == "DITRAN"
    assert tags[0].verb_lemma == "give"
    assert tags[0].verb_token_id == 2


def test_passive():
    tags = tag_sentence(first_sentence(PASSIVE_SENT))
    assert [(t.asc_type, t.verb_lemma) for t in tags] == [("PASSIVE", "break")]


def test_attributive_uses_copula_lemma():
    tags = tag_sentence(first_sentence(ATTR_SENT))
    assert [(t.asc_type, t.verb_lemma) for t in tags] == [("ATTR", "be")]


def test_no_verb_no_cop():
    # A NOUN whose only dependents are det and amod is no candidate.
    text = (
        "1\tThe\tthe\tDET\t_\t_\t3\tdet\t_\t_\n"
        "2\tnice\tnice\tADJ\t_\t_\t3\tamod\t_\t_\n"
        "3\tweather\tweather\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    assert tag_sentence(first_sentence(text)) == []


@pytest.mark.parametrize("copulas", [["cop:x"], ["cop", "cop"], ["cop:x", "cop"], ["cop", "cop:x"]])
def test_attr_is_anchored_on_the_first_copula_of_any_subtype(copulas):
    # The frame-table oracle draws no cop: subtype (see
    # test_frame_table_oracle_draws_no_copula_subtype), so these cases stand for it.
    head = len(copulas) + 2
    lines = [f"1\tShe\tshe\tPRON\t_\t_\t{head}\tnsubj\t_\t_\n"]
    lines += [
        f"{i}\tw\t{lemma}\tAUX\t_\t_\t{head}\t{rel}\t_\t_\n"
        for i, (rel, lemma) in enumerate(zip(copulas, ["Seem", "be"]), start=2)
    ]
    lines.append(f"{head}\thappy\thappy\tADJ\t_\t_\t0\troot\t_\t_\n")
    tags = tag_sentence(first_sentence("".join(lines)))
    assert [(t.asc_type, t.verb_token_id, t.verb_lemma) for t in tags] == [("ATTR", head, "seem")]


def test_subjectless_imperative_skipped():
    text = "1\tRun\trun\tVERB\t_\t_\t0\troot\t_\t_\n"
    assert tag_sentence(first_sentence(text)) == []


def test_shared_subject_conjunct_skipped():
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tsang\tsing\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tand\tand\tCCONJ\t_\t_\t4\tcc\t_\t_\n"
        "4\tdanced\tdance\tVERB\t_\t_\t2\tconj\t_\t_\n"
    )
    tags = tag_sentence(first_sentence(text))
    assert [(t.asc_type, t.verb_lemma) for t in tags] == [("INTRAN_S", "sing")]


def test_conjunct_with_own_subject_tagged():
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tsang\tsing\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tand\tand\tCCONJ\t_\t_\t5\tcc\t_\t_\n"
        "4\the\the\tPRON\t_\t_\t5\tnsubj\t_\t_\n"
        "5\tdanced\tdance\tVERB\t_\t_\t2\tconj\t_\t_\n"
    )
    tags = tag_sentence(first_sentence(text))
    assert [t.verb_lemma for t in tags] == ["sing", "dance"]


def test_embedded_clause_predicate_tagged():
    # A qualifying predicate is tagged even when it is not the root.
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tsaid\tsay\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\the\the\tPRON\t_\t_\t4\tnsubj\t_\t_\n"
        "4\tslept\tsleep\tVERB\t_\t_\t2\tccomp\t_\t_\n"
    )
    tags = tag_sentence(first_sentence(text))
    assert [(t.asc_type, t.verb_lemma) for t in tags] == [
        ("INTRAN_S", "say"),
        ("INTRAN_S", "sleep"),
    ]


def test_stoplisted_adverb_is_not_a_result():
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tslept\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tthen\tthen\tADV\t_\t_\t2\tadvmod\t_\t_\n"
    )
    tags = tag_sentence(first_sentence(text))
    assert [t.asc_type for t in tags] == ["INTRAN_S"]


def test_non_adv_advmod_is_not_a_result():
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tslept\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\thome\thome\tNOUN\t_\t_\t2\tadvmod\t_\t_\n"
    )
    tags = tag_sentence(first_sentence(text))
    assert [t.asc_type for t in tags] == ["INTRAN_S"]


def test_subtype_relations_collapse_to_base():
    assert normalize_deprel("obl:tmod") == "obl"
    assert normalize_deprel("nsubj:outer") == "nsubj"
    assert normalize_deprel("nsubj:pass") == "nsubj:pass"
    assert normalize_deprel("aux:pass") == "aux:pass"
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tslept\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tMonday\tmonday\tNOUN\t_\t_\t2\tobl:tmod\t_\t_\n"
    )
    tags = tag_sentence(first_sentence(text))
    assert [t.asc_type for t in tags] == ["INTRAN_MOT"]


def test_nsubj_pass_without_aux_pass_is_untagged():
    text = PASSIVE_SENT.replace("aux:pass", "aux")
    assert tag_sentence(first_sentence(text)) == []


def test_xcomp_without_obj_blocks_intran_s():
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\twants\twant\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tto\tto\tPART\t_\t_\t4\tmark\t_\t_\n"
        "4\tleave\tleave\tVERB\t_\t_\t2\txcomp\t_\t_\n"
    )
    assert tag_sentence(first_sentence(text)) == []


def test_tag_document_empty():
    assert tag_document(Document(source_id="x", sentences=[])) == []


def test_tag_document_order_and_indices():
    doc = parse_conllu(DITRAN_SENT + "\n" + DITRAN_SENT, source_id="doc1")
    tags = tag_document(doc)
    assert [t.asc_type for t in tags] == ["DITRAN", "DITRAN"]
    assert [t.sentence_index for t in tags] == [0, 1]
    assert all(t.source_id == "doc1" for t in tags)


def test_tag_document_mixed_order():
    doc = parse_conllu(DITRAN_SENT + "\n" + PASSIVE_SENT)
    assert [t.asc_type for t in tag_document(doc)] == ["DITRAN", "PASSIVE"]


def test_determinism_and_exclusivity(frames_dir):
    for path in sorted(frames_dir.glob("*.conllu")):
        doc = parse_conllu_file(path)
        first = tag_document(doc)
        assert first == tag_document(doc)
        for sent_idx, sent in enumerate(doc.sentences):
            per_sentence = [t for t in first if t.sentence_index == sent_idx]
            predicate_ids = [t.verb_token_id for t in per_sentence]
            assert len(predicate_ids) == len(set(predicate_ids))


def test_frame_soundness(frames_dir):
    # Every emitted tag's predicate must carry its frame's required relations.
    required = {
        "ATTR": {"cop", "nsubj"},
        "CAUS_MOT": {"nsubj", "obj", "obl"},
        "DITRAN": {"nsubj", "iobj", "obj"},
        "INTRAN_MOT": {"nsubj", "obl"},
        "INTRAN_RES": {"nsubj", "advmod"},
        "INTRAN_S": {"nsubj"},
        "PASSIVE": {"nsubj:pass", "aux:pass"},
        "TRAN_RES": {"nsubj", "obj", "xcomp"},
        "TRAN_S": {"nsubj", "obj"},
    }
    for path in sorted(frames_dir.glob("*.conllu")):
        doc = parse_conllu_file(path)
        for tag in tag_document(doc):
            sent = doc.sentences[tag.sentence_index]
            rels = {
                normalize_deprel(t.deprel) for t in sent.tokens if t.head == tag.verb_token_id
            }
            assert required[tag.asc_type] <= rels, (path.name, tag)


def test_asc_types_closed():
    assert len(ASC_TYPES) == 9
    assert list(ASC_TYPES) == sorted(ASC_TYPES)


def test_debug_lines_format():
    doc = parse_conllu(DITRAN_SENT, source_id="f.conllu")
    lines = list(debug_lines(tag_document(doc)))
    assert lines == ["f.conllu\t0\t2\tDITRAN\tgive"]


def _extra_line(kind: str, word_id: int) -> str:
    """A line the parser must drop: comment, multiword range or empty node.

    The range and the empty node carry a root head and a subject relation, so
    either one read as a word would change the tags or fail validation.
    """
    if kind == "comment":
        return f"# note {word_id}"
    if kind == "range":
        return f"{word_id}-{word_id + 1}\tgonna\t_\t_\t_\t_\t_\t_\t_\t_"
    return f"{word_id}.1\tghost\tghost\tVERB\t_\t_\t0\tnsubj\t_\t_"


@st.composite
def decorated_corpora(draw):
    """(plain, decorated): corpusgen sentences, and the same with extra lines."""
    plain, decorated = [], []
    for _ in range(draw(st.integers(1, 6))):
        asc_type = draw(st.sampled_from(sorted(corpusgen.VERBS)))
        block = corpusgen.make_sentence(random.Random(draw(st.integers(0, 999))), asc_type)
        lines = block.splitlines()
        extras = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(lines)), st.sampled_from(["comment", "range", "empty"])
                ),
                max_size=4,
            )
        )
        out = list(lines)
        for pos, kind in sorted(extras, reverse=True):
            out.insert(pos, _extra_line(kind, max(pos, 1)))
        plain.append("\n".join(lines) + "\n")
        decorated.append("\n".join(out) + "\n")
    return "\n".join(plain), "\n".join(decorated)


@settings(max_examples=150, deadline=None)
@given(corpora=decorated_corpora())
def test_tags_ignore_comments_ranges_and_empty_nodes(corpora):
    plain, decorated = corpora
    expected = list(debug_lines(tag_document(parse_conllu(plain, "t"))))
    assert list(debug_lines(tag_document(parse_conllu(decorated, "t")))) == expected
    assert len(expected) == plain.count("\n\n") + 1  # one tag per template sentence


# ---------------------------------------------------------------------------
# The tagger against an independent frame table.  The oracle below restates
# the tagging rules as data and reads CoNLL-U through its own minimal reader,
# so it shares no code with the tagger or with Sentence.

# Subtypes kept whole by relation normalisation; any other "base:sub" is base.
ORACLE_KEPT_SUBTYPES = {"nsubj:pass", "aux:pass"}
# Candidates: tokens with this UPOS, or tokens governing this relation.
ORACLE_CANDIDATE_UPOS = "VERB"
ORACLE_CANDIDATE_DEPENDENT = "cop"
# The overt subject each frame needs; frames not listed need ORACLE_SUBJECT.
ORACLE_SUBJECT = "nsubj"
ORACLE_SUBJECT_OF = {"PASSIVE": "nsubj:pass"}
# A result adverb: an ADV advmod whose lowercased lemma is off the stoplist.
# It enters a candidate's relation set as this pseudo-relation.
ORACLE_RESULT = "result-adverb"
ORACLE_STOPLIST = {
    "not", "n't", "very", "too", "so", "just", "also", "then", "now", "here",
    "there", "always", "never", "often", "really",
}
# (tag, required base relations, forbidden base relations), first match wins.
ORACLE_FRAMES = (
    ("PASSIVE", {"aux:pass"}, set()),
    ("ATTR", {"cop"}, set()),
    ("DITRAN", {"iobj", "obj"}, set()),
    ("CAUS_MOT", {"obj", "obl"}, set()),
    ("TRAN_RES", {"obj", "xcomp"}, set()),
    ("TRAN_S", {"obj"}, set()),
    ("INTRAN_MOT", {"obl"}, set()),
    ("INTRAN_RES", {ORACLE_RESULT}, set()),
    ("INTRAN_S", set(), {"cop", "obj", "iobj", "obl", "xcomp", "nsubj:pass", "aux:pass"}),
)
# The tag's lemma is the predicate's, lowercased, except ATTR, which takes the
# lemma of its first copula; a tag whose lemma is empty is not emitted.
ORACLE_LEMMA_FROM = {"ATTR": "cop"}


def oracle_read(text):
    """Sentences of (id, lemma, upos, head, deprel) rows; comments skipped."""
    sentences = []
    for block in text.split("\n\n"):
        rows = [line.split("\t") for line in block.split("\n") if line and line[0] != "#"]
        if rows:
            sentences.append([(int(r[0]), r[2], r[3], int(r[6]), r[7]) for r in rows])
    return sentences


def oracle_base(deprel):
    return deprel if deprel in ORACLE_KEPT_SUBTYPES else deprel.split(":")[0]


def oracle_tags(text):
    """(sentence index, predicate id, tag, lemma) for every tag, in order."""
    out = []
    for s, rows in enumerate(oracle_read(text)):
        for tok_id, lemma, upos, _, _ in rows:
            deps = [r for r in rows if r[3] == tok_id]
            rels = {oracle_base(r[4]) for r in deps}
            rels |= {
                ORACLE_RESULT for r in deps
                if oracle_base(r[4]) == "advmod" and r[2] == "ADV"
                and r[1].lower() not in ORACLE_STOPLIST
            }
            if upos != ORACLE_CANDIDATE_UPOS and ORACLE_CANDIDATE_DEPENDENT not in rels:
                continue
            for tag, required, forbidden in ORACLE_FRAMES:
                subject = ORACLE_SUBJECT_OF.get(tag, ORACLE_SUBJECT)
                if subject in rels and required <= rels and not rels & forbidden:
                    anchor = ORACLE_LEMMA_FROM.get(tag)
                    tag_lemma = lemma if anchor is None else next(
                        r[1] for r in deps if oracle_base(r[4]) == anchor
                    )
                    if tag_lemma:
                        out.append((s, tok_id, tag, tag_lemma.lower()))
                    break
    return out


UD_RELATIONS = [
    "acl", "acl:relcl", "advcl", "advmod", "advmod:emph", "amod", "appos", "aux",
    "aux:pass", "case", "cc", "ccomp", "clf", "compound", "conj", "cop", "csubj",
    "csubj:pass", "dep", "det", "discourse", "dislocated", "expl", "fixed", "flat",
    "goeswith", "iobj", "list", "mark", "nmod", "nmod:poss", "nsubj", "nsubj:outer",
    "nsubj:pass", "nummod", "obj", "obl", "obl:agent", "obl:npmod", "obl:tmod",
    "orphan", "parataxis", "punct", "reparandum", "vocative", "xcomp",
]
# Relations some frame or the candidate and subject rules read; drawn often.
FRAME_RELATIONS = [
    "nsubj", "nsubj:pass", "nsubj:outer", "aux:pass", "cop", "obj", "iobj", "obl",
    "obl:tmod", "xcomp", "advmod",
]
UPOS_TAGS = [
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM", "PART",
    "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
]
ADVERB_LEMMAS = sorted(ORACLE_STOPLIST) + ["Very", "THEN", "shut", "apart", "quickly"]
LEMMAS = ADVERB_LEMMAS + ["be", "Be", "give", "Eat", "dog", "happy", ""]


class _Node:
    """A token under construction; its head is another node, or None for the root."""

    def __init__(self, lemma, upos, head, deprel):
        self.lemma, self.upos, self.head, self.deprel = lemma, upos, head, deprel


@st.composite
def ud_sentences(draw):
    """A corpusgen template with random attachments, relabels and UPOS changes."""
    asc_type = draw(st.sampled_from(sorted(corpusgen.VERBS)))
    block = corpusgen.make_sentence(random.Random(draw(st.integers(0, 99))), asc_type)
    rows = [line.split("\t") for line in block.splitlines()]
    nodes = [_Node(r[2], r[3], int(r[6]), r[7]) for r in rows]
    for node in nodes:
        node.head = nodes[node.head - 1] if node.head else None
    root = next(n for n in nodes if n.head is None)
    labels = st.one_of(st.sampled_from(FRAME_RELATIONS), st.sampled_from(UD_RELATIONS))
    # A subset of the frame relations added on the root, drawn as a bit mask
    # so frames meet in every combination (CAUS_MOT's and TRAN_RES's, for one).
    bundle = draw(st.one_of(st.just(0), st.integers(0, 2 ** len(FRAME_RELATIONS) - 1)))
    for bit, rel in enumerate(FRAME_RELATIONS):
        if bundle >> bit & 1:
            lemma, upos = draw(st.sampled_from(LEMMAS)), draw(st.sampled_from(UPOS_TAGS))
            nodes.append(_Node(lemma, upos, root, rel))
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(0, len(nodes)))
        head = draw(st.one_of(st.just(root), st.sampled_from(nodes)))
        if draw(st.booleans()):
            node = _Node(draw(st.sampled_from(ADVERB_LEMMAS)), "ADV", head, "advmod")
        else:
            node = _Node(
                draw(st.sampled_from(LEMMAS)), draw(st.sampled_from(UPOS_TAGS)), head, draw(labels)
            )
        nodes.insert(position, node)
    dependents = [n for n in nodes if n.head is not None]
    for node in draw(st.lists(st.sampled_from(dependents), max_size=2)):
        node.deprel = draw(labels)
    for node in draw(st.lists(st.sampled_from(nodes), max_size=1)):
        node.upos = draw(st.sampled_from(UPOS_TAGS))
    ids = {id(n): i for i, n in enumerate(nodes, start=1)}
    ids[id(None)] = 0
    return "".join(
        f"{ids[id(n)]}\tw\t{n.lemma}\t{n.upos}\t_\t_\t{ids[id(n.head)]}\t{n.deprel}\t_\t_\n"
        for n in nodes
    )


@settings(max_examples=500, deadline=None)
@given(sentences=st.lists(ud_sentences(), min_size=1, max_size=6))
def test_tagger_agrees_with_frame_table(sentences, tmp_path_factory):
    text = "\n".join(sentences)
    tags = tag_document(parse_conllu(text, "t"))
    got = [(t.sentence_index, t.verb_token_id, t.asc_type, t.verb_lemma) for t in tags]
    assert got == oracle_tags(text)
    predicates = [(t.sentence_index, t.verb_token_id) for t in tags]
    assert len(predicates) == len(set(predicates))
    path = tmp_path_factory.getbasetemp() / "trees.conllu"
    path.write_text(text, encoding="utf-8")
    assert tag_document(parse_conllu_file(path, "t")) == tags


@settings(max_examples=200, deadline=None)
@given(
    documents=st.lists(st.lists(ud_sentences(), min_size=1, max_size=6), min_size=1, max_size=3)
)
def test_norms_over_drawn_trees_round_trip_and_cells_sum_to_total(documents, tmp_path_factory):
    docs = [parse_conllu("\n".join(sentences), f"d{i}") for i, sentences in enumerate(documents)]
    if not any(tag_document(doc) for doc in docs):
        with pytest.raises(NormTableError, match="empty norm table"):
            build_norms(docs, "drawn")
        return
    norm = build_norms(docs, "drawn")
    path = tmp_path_factory.getbasetemp() / "drawn.tsv"
    with open(path, "w", encoding="utf-8", newline="") as out:
        save_norms(norm, out)
    assert load_norms(path) == norm
    header_total = next(
        int(line[len("#total="):]) for line in path.read_text(encoding="utf-8").split("\n")
        if line.startswith("#total=")
    )
    lemmas = {lemma for _, lemma in norm.pair_counts}
    # Every type against every lemma of the table, so pairs with a = 0 count too.
    for asc_type in ASC_TYPES:
        for lemma in lemmas:
            cells = contingency(norm, asc_type, lemma)
            assert min(cells.a, cells.b, cells.c_cell, cells.d) >= 0
            assert cells.a + cells.b + cells.c_cell + cells.d == header_total


def test_drawn_trees_analyze_the_same_with_one_and_two_jobs(tmp_path, capsys):
    # One fixed draw of eight documents, the first one generated that tags
    # at least six construction types.
    documents = find(
        st.lists(st.lists(ud_sentences(), min_size=1, max_size=6), min_size=8, max_size=8),
        lambda docs: len(
            {t.asc_type for sentences in docs for t in tag_document(parse_conllu("\n".join(sentences)))}
        ) >= 6,
        settings=settings(database=None, phases=[Phase.generate], max_examples=1000),
        random=random.Random(18),
    )
    texts = tmp_path / "texts"
    texts.mkdir()
    for i, sentences in enumerate(documents):
        (texts / f"text{i}.conllu").write_text("\n".join(sentences), encoding="utf-8")
    outputs = {}
    for jobs in ("1", "2"):
        csv_path, tags_path = tmp_path / f"j{jobs}.csv", tmp_path / f"j{jobs}.tags"
        assert cli.main([
            "analyze", "--input-dir", str(texts), "--source", "demo", "--jobs", jobs,
            "--output-csv", str(csv_path), "--debug-tags", str(tags_path),
        ]) == 0
        assert "analyzed 8 of 8 files, 0 warnings" in capsys.readouterr().err
        outputs[jobs] = (csv_path.read_bytes(), tags_path.read_bytes())
    assert outputs["1"] == outputs["2"]
    assert len(outputs["1"][0].decode().splitlines()) == 9


@settings(max_examples=100, deadline=None)
@given(sentences=st.lists(ud_sentences(), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_written_conllu_parses_back_to_the_same_rows_tags_and_analyze_row(
    sentences, seed, tmp_path_factory
):
    doc = parse_conllu("\n".join(sentences), "t.conllu")
    text = corpusgen.write_conllu(doc, random.Random(seed))
    reread = parse_conllu(text, "t.conllu")
    assert [(s.rows, s.dep_rows) for s in reread.sentences] == [
        (s.rows, s.dep_rows) for s in doc.sentences
    ]
    assert tag_document(reread) == tag_document(doc)
    base = tmp_path_factory.getbasetemp()
    norm = load_norms(cli.resolve_source("demo"))
    analyze = functools.partial(cli._analyze_one, norm, IndexConfig(), True)  # row, warning, tags
    (base / "plain.conllu").write_text("\n".join(sentences), encoding="utf-8")
    want = analyze(("t.conllu", base / "plain.conllu"))
    assert want[0] is not None
    for bom in (b"", b"\xef\xbb\xbf"):
        (base / "written.conllu").write_bytes(bom + text.encode("utf-8"))
        assert analyze(("t.conllu", base / "written.conllu")) == want


def test_write_conllu_writes_what_the_parser_reads_past():
    # Enough sentences that each kind of line, and each line end, turns up.
    doc = parse_conllu(corpusgen.make_corpus(seed=5, n_sentences=20), "t")
    text = corpusgen.write_conllu(doc, random.Random(5))
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    ids = [line.split("\t")[0] for line in lines if line and line[0] != "#"]
    assert any(line.startswith("# text = ") for line in lines)
    assert any("-" in i for i in ids) and any("." in i for i in ids) and "0.1" in ids
    lone = text.replace("\r\n", "")
    assert "\r\n" in text and "\r" in lone and "\n" in lone  # CRLF, a lone CR and a lone LF
    assert any(line.split("\t")[4:6] != ["_", "_"] for line in lines if line[:1].isdigit())
    assert parse_conllu(text, "t").sentences == doc.sentences


def test_frame_table_oracle_draws_no_copula_subtype():
    # So a cop: subtype reaches the tagger only through the hand-written
    # cases above.
    drawn = set(UD_RELATIONS) | set(FRAME_RELATIONS) | {rel for rel, _, _ in COMBINED_DEPENDENTS}
    assert "cop" in drawn
    assert not [rel for rel in drawn if rel.startswith("cop:")]


# Every combination of these dependents on one predicate, VERB or ADJ: the
# frames meet in each order the precedence table can put them.
COMBINED_DEPENDENTS = [
    ("nsubj", "dog", "NOUN"), ("nsubj:pass", "cat", "NOUN"), ("aux:pass", "be", "AUX"),
    ("cop", "be", "AUX"), ("obj", "ball", "NOUN"), ("iobj", "child", "NOUN"),
    ("obl:tmod", "monday", "NOUN"), ("xcomp", "flat", "ADJ"), ("advmod", "apart", "ADV"),
    ("advmod", "Very", "ADV"),
]


def test_every_frame_combination_agrees_with_frame_table():
    blocks = []
    for upos in ("VERB", "ADJ"):
        for mask in range(2 ** len(COMBINED_DEPENDENTS)):
            chosen = [d for bit, d in enumerate(COMBINED_DEPENDENTS) if mask >> bit & 1]
            lines = [f"1\tw\tact\t{upos}\t_\t_\t0\troot\t_\t_"]
            lines += [
                f"{i}\tw\t{lemma}\t{u}\t_\t_\t1\t{rel}\t_\t_"
                for i, (rel, lemma, u) in enumerate(chosen, start=2)
            ]
            blocks.append("\n".join(lines) + "\n")
    text = "\n".join(blocks)
    tags = tag_document(parse_conllu(text, "t"))
    got = [(t.sentence_index, t.verb_token_id, t.asc_type, t.verb_lemma) for t in tags]
    assert got == oracle_tags(text)
    assert {t.asc_type for t in tags} == set(ASC_TYPES)


# ---------------------------------------------------------------------------
# The tagger reads a label without a colon as its own base relation and calls
# normalize_deprel only for the others.  The reference below calls it on
# every dependent's label, so the two differ if that shortcut ever does.


def normalize_every_label(doc):
    """The tags of doc, with each dependent's base relation read by normalize_deprel."""
    tags = []
    for i, sentence in enumerate(doc.sentences):
        for row in sentence.rows:
            deps = sentence.dep_rows[row[0]]
            if deps is None:
                continue
            copulas = [d for d in deps if normalize_deprel(d[5]) == "cop"]
            if row[3] != "VERB" and not copulas:
                continue
            asc_type = _classify({normalize_deprel(d[5]) for d in deps}, deps)
            if asc_type is None:
                continue
            lemma = (copulas[0] if asc_type == "ATTR" else row)[2].lower()
            if lemma:
                tags.append(AscToken(asc_type, row[0], lemma, i, doc.source_id))
    return tags


SUBTYPED_LABELS = [
    "cop:x", "cop:", "nsubj:pass", "nsubj:pass:x", "aux:pass", "obj:", ":x", "obl:tmod:y",
]
LABEL_BASES = ["nsubj", "cop", "obj", "iobj", "obl", "xcomp", "advmod", "aux", "det", ""]
# Any base, the empty one too, with any subtype, colons and the empty one included.
subtyped_labels = st.builds(
    "{}:{}".format, st.sampled_from(LABEL_BASES), st.text(alphabet="apsx:", max_size=6)
)
labels = st.one_of(
    st.sampled_from(SUBTYPED_LABELS), subtyped_labels, st.sampled_from(LABEL_BASES[:-1])
)


@st.composite
def labelled_sentences(draw):
    """A tree of up to 8 words, each after the first headed by an earlier one."""
    n = draw(st.integers(1, 8))
    lines = []
    for i in range(1, n + 1):
        lemma = draw(st.sampled_from(["be", "Seem", "give", "apart", "very", ""]))
        upos = draw(st.sampled_from(["VERB", "ADJ", "NOUN", "ADV", "AUX"]))
        head = draw(st.integers(1, i - 1)) if i > 1 else 0
        rel = draw(labels) if i > 1 else "root"
        lines.append(f"{i}\tw\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_\n")
    return "".join(lines)


@settings(max_examples=500, deadline=None)
@given(sentences=st.lists(labelled_sentences(), min_size=1, max_size=4))
def test_labels_without_a_colon_read_as_normalize_deprel_reads_them(sentences):
    doc = parse_conllu("\n".join(sentences), "t")
    assert tag_document(doc) == normalize_every_label(doc)


@settings(max_examples=200, deadline=None)
@given(
    sentences=st.lists(st.one_of(ud_sentences(), labelled_sentences()), min_size=1, max_size=6),
    source_id=st.sampled_from(["", "t", "dir/text.conllu"]),
)
def test_tag_sentence_over_a_document_equals_tag_document(sentences, source_id):
    doc = parse_conllu("\n".join(sentences), source_id)
    tags = [t for i, s in enumerate(doc.sentences) for t in tag_sentence(s, i, doc.source_id)]
    assert tags == tag_document(doc)


def test_tag_sentence_numbers_from_its_sentence_index():
    doc = parse_conllu("\n".join([PASSIVE_SENT, ATTR_SENT, DITRAN_SENT, DITRAN_SENT]), "a.conllu")
    tags = tag_sentence(doc.sentences[3], 3, "a.conllu")
    assert tags == [t for t in tag_document(doc) if t.sentence_index == 3]
    assert [(t.asc_type, t.sentence_index, t.source_id) for t in tags] == [("DITRAN", 3, "a.conllu")]


# Lemma text a CoNLL-U field may hold: anything but a tab, a line feed or a
# carriage return.  Capitals (İ and Σ among them), U+2028 and other
# characters str.splitlines() breaks at are drawn often.
lemma_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from("AaGgİΣσς\u2028\x85 "),
        st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    ),
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(
    sentences=st.lists(ud_sentences(), min_size=1, max_size=6),
    lemmas=st.lists(lemma_texts, min_size=1, max_size=8),
)
def test_norms_over_drawn_trees_construct_for_any_lemma_text(sentences, lemmas):
    # Each word's lemma is replaced by the next drawn text, round robin.
    lines = "\n".join(sentences).split("\n")
    words = [i for i, line in enumerate(lines) if line]
    for n, i in enumerate(words):
        fields = lines[i].split("\t")
        fields[2] = lemmas[n % len(lemmas)]
        lines[i] = "\t".join(fields)
    doc = parse_conllu("\n".join(lines), "d")
    pairs = Counter(map(AscToken.pair, tag_document(doc)))
    if not pairs:
        with pytest.raises(NormTableError, match="empty norm table"):
            build_norms([doc], "drawn")
        return
    assert build_norms([doc], "drawn").pair_counts == pairs
