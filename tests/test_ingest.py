import io
import random
import re
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from asc_toolkit import cli, ingest
from asc_toolkit.ingest import (
    ConlluError,
    Token,
    parse_conllu,
    parse_conllu_file,
    read_conllu_chunks,
)
from asc_toolkit.norms import build_norms
from asc_toolkit.tagger import tag_document
from test_tagger import ud_sentences

BARKED = """\
1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_
2\tdog\tdog\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tbarked\tbark\tVERB\t_\t_\t0\troot\t_\t_
4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_
"""


def test_empty_stream():
    doc = parse_conllu("")
    assert doc.sentences == []


def test_single_sentence():
    doc = parse_conllu(BARKED)
    assert len(doc.sentences) == 1
    sent = doc.sentences[0]
    assert len(sent.tokens) == 4
    barked = sent.tokens[2]
    assert (barked.form, barked.lemma, barked.head, barked.deprel) == (
        "barked",
        "bark",
        0,
        "root",
    )


def test_wrong_column_count():
    bad = "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\n"  # 9 columns
    with pytest.raises(ConlluError, match="malformed token line"):
        parse_conllu(bad)


def test_non_integer_id_and_head():
    with pytest.raises(ConlluError, match="line 1"):
        parse_conllu("x\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n")
    with pytest.raises(ConlluError, match="non-integer head"):
        parse_conllu("1\tThe\tthe\tDET\t_\t_\ty\tdet\t_\t_\n")


def test_ranges_and_empty_nodes_skipped():
    text = (
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\tdo\tAUX\t_\t_\t3\taux\t_\t_\n"
        "2\tn't\tnot\tPART\t_\t_\t3\tadvmod\t_\t_\n"
        "2.1\tghost\tghost\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "3\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    doc = parse_conllu(text)
    assert [t.form for t in doc.sentences[0].tokens] == ["do", "n't", "go"]


SKIPPED_IDS = ["1-2", "10-11", "2.1", "12.1"]


# The last three are Python decimals but not ASCII digits: full-width 2 and Arabic-Indic 2, 3-4.
@pytest.mark.parametrize(
    "tok_id",
    SKIPPED_IDS
    + ["3-", "3..1", "3-4-5", "1e3", "-1", "1.", ".1", "\uff12", "\u0662", "\u0663-\u0664"],
)
def test_only_a_whole_range_or_empty_node_id_is_skipped(tok_id):
    text = f"{tok_id}\tx\tx\tX\t_\t_\t_\t_\t_\t_\n" + BARKED
    if tok_id in SKIPPED_IDS:
        assert parse_conllu(text).sentences[0].tokens == parse_conllu(BARKED).sentences[0].tokens
    else:
        with pytest.raises(ConlluError) as info:
            parse_conllu(text)
        assert str(info.value) == f"line 1: malformed token line (non-integer id {tok_id!r})"


def test_comments_and_crlf():
    text = "# sent_id = 1\r\n" + BARKED.replace("\n", "\r\n")
    doc = parse_conllu(text)
    assert doc.n_tokens() == 4


def test_headless_sentence():
    text = BARKED.replace("0\troot", "2\tdep")
    with pytest.raises(ConlluError, match=r"^line 1: headless sentence"):
        parse_conllu(text)


def test_multiple_roots():
    text = BARKED.replace("3\tnsubj", "0\tnsubj")
    with pytest.raises(ConlluError, match="multiple root"):
        parse_conllu(text)


def test_cycle():
    text = (
        "1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_\n"
        "3\tc\tc\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(ConlluError, match=r"^line 1: cyclic"):
        parse_conllu(text)


def test_head_to_missing_token():
    text = BARKED.replace("2\tdet", "9\tdet")
    with pytest.raises(ConlluError, match="missing token"):
        parse_conllu(text)


def _sentence_41(heads):
    """40 two-word sentences on lines 1-120, then a 41st whose words 1-5 take heads.

    Its words sit on lines 122, 123, 125, 126 and 129: a comment, a range, an
    empty node and a second comment come between them.
    """
    word = "{}\tw\tw\tX\t_\t_\t{}\tdep\t_\t_\n".format
    return (
        (word(1, 0) + word(2, 1) + "\n") * 40
        + "# sent_id = 41\n" + word(1, heads[0]) + word(2, heads[1])
        + "3-4\tww\t_\t_\t_\t_\t_\t_\t_\t_\n" + word(3, heads[2]) + word(4, heads[3])
        + "4.1\tw\tw\tX\t_\t_\t_\t_\t_\t_\n" + "# after the empty node\n" + word(5, heads[4])
    )


@pytest.mark.parametrize(
    "heads, expected",
    [
        # Word 4's head names no word, and no word is the root: the head is named.
        ((2, 3, 2, 9, 4), "line 126: head 9 points to missing token"),
        ((2, 0, 2, 2, 0), "line 129: multiple root tokens"),
        ((2, 3, 2, 2, 4), "line 122: headless sentence (no head=0 token)"),
        # Words 4 and 5 head each other; word 4 is the first the root does not reach.
        ((0, 1, 1, 5, 4), "line 126: cyclic dependency structure"),
        ((0, 1, 1, 1, 5), "line 129: cyclic dependency structure"),
    ],
    ids=["missing-head-first", "second-root", "headless", "cycle", "self-head"],
)
@pytest.mark.parametrize("ending", ["lf", "no-final-newline", "then-a-sentence", "crlf", "file-crlf"])
def test_tree_errors_name_the_line_of_the_word_at_fault(heads, expected, ending, tmp_path):
    text = _sentence_41(heads)
    if ending == "no-final-newline":
        text = text.rstrip("\n")
    elif ending == "then-a-sentence":
        text += "\n" + BARKED
    elif ending in ("crlf", "file-crlf"):
        text = text.replace("\n", "\r\n")
    with pytest.raises(ConlluError) as info:
        if ending == "file-crlf":
            (tmp_path / "x.conllu").write_bytes(text.encode("utf-8"))
            parse_conllu_file(tmp_path / "x.conllu")
        else:
            parse_conllu(text)
    assert str(info.value) == ("x.conllu: " if ending == "file-crlf" else "") + expected
    # The same sentence with well-formed heads parses.
    assert len(parse_conllu(_sentence_41((2, 0, 2, 3, 4))).sentences) == 41


def test_sentence_split_on_blank_lines():
    doc = parse_conllu(BARKED + "\n" + BARKED + "\n\n")
    assert len(doc.sentences) == 2


def test_source_id_from_file(tmp_path):
    p = tmp_path / "sample.conllu"
    p.write_text(BARKED, encoding="utf-8")
    doc = parse_conllu_file(p)
    assert doc.source_id == "sample.conllu"


def test_round_trip_token_count():
    # Non-comment, non-range, non-empty-node lines == tokens parsed.
    rng = random.Random(7)
    lines = []
    n_word_lines = 0
    for s in range(20):
        n = rng.randint(1, 8)
        for i in range(1, n + 1):
            head = 0 if i == 1 else rng.randint(1, i - 1)
            lines.append(f"{i}\tw{i}\tw{i}\tNOUN\t_\t_\t{head}\tdep\t_\t_")
            n_word_lines += 1
        if rng.random() < 0.3:
            lines.append("# a comment")
        lines.append("")
    text = "\n".join(lines) + "\n"
    doc = parse_conllu(text)
    assert doc.n_tokens() == n_word_lines


def test_parse_is_deterministic():
    text = BARKED + "\n" + BARKED
    assert parse_conllu(text, "x") == parse_conllu(text, "x")


def test_bom_prefixed_file_parses_like_the_plain_file(frames_dir, tmp_path):
    plain = frames_dir / "ditran.conllu"
    bom = tmp_path / "ditran.conllu"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_conllu_file(bom) == parse_conllu_file(plain)


# Every column distinct, with a range and an empty node: only the six
# columns of the words make a Token.
VIEWED = """\
# text = Don't look back now.
1-2\tDon't\t_\t_\t_\t_\t_\t_\t_\t_
1\tDo\tdo\tAUX\tVBP\tMood=Imp\t3\taux\t3:aux\tSpaceAfter=No
2\tn't\tnot\tPART\tRB\tPolarity=Neg\t3\tadvmod\t3:advmod\t_
3\tlook\tlook\tVERB\tVB\tVerbForm=Inf\t0\troot\t0:root\t_
3.1\tghost\tghost\tNOUN\tNN\t_\t_\t_\t3:obj\t_
4\tback\tback\tADV\tRB\t_\t3\tcompound:prt\t3:compound:prt\t_
5\tnow\tnow\tADV\tRB\t_\t3\tadvmod:tmod\t3:advmod\tSpaceAfter=No
6\t.\t.\tPUNCT\t.\t_\t3\tpunct\t3:punct\t_

1\tGo\tgo\tVERB\tVB\t_\t0\troot\t0:root\t_
"""


def _six_columns(text):
    """Token(id, form, lemma, upos, head, deprel) per word line, sentence by sentence."""
    sentences = []
    for block in text.split("\n\n"):
        cols = [line.split("\t") for line in block.splitlines() if line and line[0] != "#"]
        sentences.append([
            Token(int(c[0]), c[1], c[2], c[3], int(c[6]), c[7]) for c in cols if c[0].isdigit()
        ])
    return sentences


def test_tokens_are_the_six_columns_of_each_word():
    doc = parse_conllu(VIEWED)
    assert [s.tokens for s in doc.sentences] == _six_columns(VIEWED)
    assert [len(s) for s in doc.sentences] == [6, 1]
    assert doc.n_tokens() == 7


def test_deps_hold_the_objects_of_the_same_tokens_list():
    sentence = parse_conllu(VIEWED).sentences[0]
    tokens, deps = sentence.token_view()
    assert tokens == sentence.tokens
    assert deps == sentence.deps
    assert deps[0] is None and [h for h, d in enumerate(deps) if d] == [3]
    assert [t.id for t in deps[3]] == [1, 2, 4, 5, 6]
    for dependents in deps:
        for t in dependents or ():
            assert t is tokens[t.id - 1]


def test_tokens_are_built_anew_on_each_request():
    sentence = parse_conllu(VIEWED).sentences[0]
    sentence.tokens[2].lemma = "see"
    sentence.deps[3][0].form = "Did"
    assert sentence.tokens == _six_columns(VIEWED)[0]


def test_bom_and_plain_files_give_equal_documents_and_tokens(tmp_path):
    plain, bom = tmp_path / "plain.conllu", tmp_path / "bom.conllu"
    plain.write_text(VIEWED, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    docs = [parse_conllu_file(path, "x") for path in (plain, bom)]
    assert docs[0] == docs[1]
    assert [s.tokens for s in docs[1].sentences] == _six_columns(VIEWED)


TWO = BARKED + "\n" + BARKED  # two sentences on lines 1-4 and 6-9
NINE_COLUMNS = "1\tx\tx\tX\t_\t_\t0\troot\t_\n"  # appended to TWO, it is line 10
LINE_10 = "line 10: malformed token line (9 columns, expected 10)"
# Ended by the lone CR of \r\r\n, line 1 is a sentence alone, whose head 2 names no word.
LINE_1_HEAD = "line 1: head 2 points to missing token"
LEMMA_CR = TWO.replace("\tbark\t", "\tba\rrk\t", 1)
LINE_3_CR = "line 3: malformed token line (3 columns, expected 10)"


@pytest.mark.parametrize(
    "form, text, expected",
    [
        ("str", TWO.replace("\n", "\r\n"), None),
        # \r\r\n is a carriage return and then a CRLF: two line breaks, so
        # token 1 is a sentence alone.
        ("str", TWO.replace("\n", "\r\r\n"), LINE_1_HEAD),
        # A carriage return inside a field ends its line there.  Kept in a
        # lemma, it would reach a norm table that load_norms rejects.
        ("str", LEMMA_CR, LINE_3_CR),
        ("str", (TWO + NINE_COLUMNS).replace("\n", "\r\n"), LINE_10),
        ("str", TWO.replace("\n", "\r"), None),
        ("str", "\ufeff" + TWO, "line 1: malformed token line (non-integer id '\\ufeff1')"),
        ("file", TWO.replace("\n", "\r"), None),
        ("file", (TWO + NINE_COLUMNS).replace("\n", "\r"), "t.conllu: " + LINE_10),
        ("file", TWO.replace("\n", "\r\r\n"), "t.conllu: " + LINE_1_HEAD),
        ("file", TWO.rstrip("\n"), None),
        ("file", "\ufeff" + TWO.replace("\n", "\r\n"), None),
        ("file", LEMMA_CR, "t.conllu: " + LINE_3_CR),
    ],
    ids=[
        "str-crlf", "str-cr-crlf", "str-lone-cr-in-a-field", "str-crlf-error-line",
        "str-lone-cr-between-lines", "str-bom", "file-lone-cr-breaks", "file-lone-cr-error-line",
        "file-cr-crlf", "file-no-final-newline", "file-bom-crlf", "file-lone-cr-in-a-field",
    ],
)
def test_line_endings_and_input_forms(form, text, expected, tmp_path):
    """A str and a file take one line rule; None means the text parses as TWO does."""
    parse = parse_conllu
    if form == "file":
        path = tmp_path / "t.conllu"
        path.write_bytes(text.encode("utf-8"))
        parse, text = parse_conllu_file, path
    if expected is None:
        assert parse(text).sentences == parse_conllu(TWO).sentences
    else:
        with pytest.raises(ConlluError) as exc:
            parse(text)
        assert str(exc.value) == expected


@settings(max_examples=100, deadline=None)
@given(sentences=st.lists(ud_sentences(), min_size=1, max_size=4), data=st.data())
def test_every_line_ending_reads_as_a_line_feed(sentences, data, tmp_path_factory):
    text = "\n".join(sentences)
    mixed, end = "", "\n"
    for line in text.split("\n")[:-1]:
        # A lone CR then an empty line ended by LF would be one CRLF.
        ends = ["\n", "\r\n", "\r"] if line or end != "\r" else ["\r\n", "\r"]
        end = data.draw(st.sampled_from(ends))
        mixed += line + end
    path = tmp_path_factory.getbasetemp() / "endings.conllu"
    path.write_bytes(mixed.encode("utf-8"))
    want = [(s.rows, s.dep_rows) for s in parse_conllu(text).sentences]
    for doc in (parse_conllu(mixed), parse_conllu_file(path)):
        assert [(s.rows, s.dep_rows) for s in doc.sentences] == want


def test_non_decimal_unicode_digits_are_rejected_with_the_line():
    # '²' is a digit to str.isdigit() but not a decimal, and int('²') fails.
    good = "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
    with pytest.raises(ConlluError, match=r"line 2: .*non-integer id '²'"):
        parse_conllu(good + "²\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n")
    with pytest.raises(ConlluError, match=r"line 2: .*non-integer head '²'"):
        parse_conllu(good + "2\tdog\tdog\tNOUN\t_\t_\t²\troot\t_\t_\n")


def test_decimal_digits_of_other_scripts_are_rejected_with_the_line():
    # Arabic-Indic and full-width two: \d and int() read them, but heads are
    # ASCII (ids: test_only_a_whole_range_or_empty_node_id_is_skipped).
    for two in ("\u0662", "\uff12"):
        with pytest.raises(ConlluError, match=f"line 1: .*non-integer head '{two}'"):
            parse_conllu(f"1\tThe\tthe\tDET\t_\t_\t{two}\tdet\t_\t_\n")


def test_analyze_warns_about_a_superscript_id_and_goes_on(frames_dir, tmp_path, capsys):
    inp = tmp_path / "in"
    inp.mkdir()
    (inp / "attr.conllu").write_bytes((frames_dir / "attr.conllu").read_bytes())
    (inp / "sup.conllu").write_text(
        "²\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n", encoding="utf-8"
    )
    out = tmp_path / "out.csv"
    rc = cli.main(["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning: sup.conllu: line 1: malformed token line (non-integer id '²')" in err
    assert "analyzed 1 of 2 files, 1 warnings" in err


def walk_oracle(tokens, first_line=1):
    """The word-id rule, then the tree checks with the per-token cycle walk; the error text or None.

    tokens[k] sits on line first_line + k.
    """
    for k, t in enumerate(tokens, start=1):
        if t.id != k:
            return f"line {first_line + k - 1}: word id {t.id}, expected {k}"
    head_of = {t.id: t.head for t in tokens}
    line_of = {t.id: first_line + k for k, t in enumerate(tokens)}
    for t in tokens:
        if t.head != 0 and t.head not in head_of:
            return f"line {line_of[t.id]}: head {t.head} points to missing token"
    roots = [t for t in tokens if t.head == 0]
    if len(roots) > 1:
        return f"line {line_of[roots[1].id]}: multiple root tokens"
    if not roots:
        return f"line {first_line}: headless sentence (no head=0 token)"
    resolved = set()
    for t in tokens:
        seen = set()
        node = t.id
        while node != 0 and node not in resolved:
            if node in seen:
                return f"line {line_of[t.id]}: cyclic dependency structure"
            seen.add(node)
            node = head_of[node]
        resolved |= seen
    return None


def test_word_ids_must_run_from_one_in_order():
    she = "She\tshe\tPRON\t_\t_\t{head}\tnsubj\t_\t_\n"
    slept = "slept\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n"
    with pytest.raises(ConlluError, match=r"^line 1: word id 0, expected 1$"):
        parse_conllu("0\t" + she.format(head=1) + "1\t" + slept)
    with pytest.raises(ConlluError, match=r"^line 3: word id 7, expected 2$"):
        parse_conllu("# text\n1\t" + she.format(head=7) + "7\t" + slept)
    # A range or an empty node does not take a word id.
    doc = parse_conllu(
        "1-2\tShe's\t_\t_\t_\t_\t_\t_\t_\t_\n"
        + ("1\t" + she.format(head=2))
        + ("1.1\t" + slept)
        + ("2\t" + slept)
    )
    assert [t.id for t in doc.sentences[0].tokens] == [1, 2]
    # Ids and heads past the small-integer table take the same rule.
    chain = [f"{i}\tw\tw\tNOUN\t_\t_\t{i - 1}\tdep\t_\t_\n" for i in range(1, 1101)]
    tokens = parse_conllu("".join(chain)).sentences[0].tokens
    assert [(t.id, t.head) for t in tokens[-2:]] == [(1099, 1098), (1100, 1099)]
    with pytest.raises(ConlluError, match=r"^line 1050: word id 1051, expected 1050$"):
        parse_conllu("".join(chain[:1049] + chain[1050:]))


@st.composite
def head_graphs(draw):
    """(ids, heads): random head arrays, or trees with at most one head changed.

    Ids are 1..n, except that one may be redrawn from 0..n + 1, which gives a
    duplicate id, a gap or a token with id 0, each of which breaks the word-id
    rule.  Heads n + 1 and n + 2 are missing tokens.
    """
    n = draw(st.integers(1, 8))
    ids = list(range(1, n + 1))
    if draw(st.booleans()):
        ids[draw(st.integers(0, n - 1))] = draw(st.integers(0, n + 1))
    if draw(st.booleans()):
        heads = draw(st.lists(st.integers(0, n + 2), min_size=n, max_size=n))
    else:
        order = draw(st.permutations(range(n)))
        heads = [0] * n
        for rank, i in enumerate(order[1:], start=1):
            heads[i] = ids[order[draw(st.integers(0, rank - 1))]]
        if draw(st.booleans()):
            heads[draw(st.integers(0, n - 1))] = draw(st.integers(0, n + 2))
    return ids, heads


@settings(max_examples=400, deadline=None)
@given(graph=head_graphs(), index=st.integers(0, 5))
def test_validator_agrees_with_the_cycle_walk(graph, index):
    ids, heads = graph
    tokens = [Token(i, f"w{i}", f"w{i}", "NOUN", h, "dep") for i, h in zip(ids, heads)]
    # index well-formed sentences of 4 lines and a blank come first.
    text = (BARKED + "\n") * index + "".join(
        f"{t.id}\t{t.form}\t{t.lemma}\t{t.upos}\t_\t_\t{t.head}\t{t.deprel}\t_\t_\n"
        for t in tokens
    )
    expected = walk_oracle(tokens, first_line=5 * index + 1)
    if expected is not None:
        with pytest.raises(ConlluError) as err:
            parse_conllu(text)
        assert str(err.value) == expected
        return
    sentence = parse_conllu(text).sentences[index]
    assert sentence.tokens == tokens
    deps = [None] * (len(tokens) + 1)
    for t in tokens:
        if t.head != 0:
            deps[t.head] = (deps[t.head] or []) + [t]
    assert sentence.deps == deps


# Chunk sizes small enough that a drawn text spans many chunks: 1 cuts at
# every empty line, so each chunk holds one sentence.
TINY_CHUNKS = [1, 200]


def _read_chunks(path, size):
    """The chunks read_conllu_chunks yields for path with CHUNK_CHARS size, and its error or None."""
    chunks = []
    with mock.patch.object(ingest, "CHUNK_CHARS", size):
        try:
            for chunk in read_conllu_chunks(path, "t.conllu"):
                chunks.append(chunk)
        except ConlluError as exc:
            return chunks, str(exc)
    return chunks, None


@settings(max_examples=100, deadline=None)
@given(
    sentences=st.lists(ud_sentences(), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    bom=st.booleans(),
)
def test_chunks_parse_and_tag_as_the_whole_text(sentences, seed, bom, tmp_path_factory):
    # write_conllu adds comments, ranges, empty nodes and LF, CRLF and lone-CR line ends.
    text = corpusgen.write_conllu(parse_conllu("\n".join(sentences)), random.Random(seed))
    path = tmp_path_factory.getbasetemp() / "chunked.conllu"
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8"))
    whole = parse_conllu(text, "t.conllu")
    want_tags = tag_document(whole)
    for size in TINY_CHUNKS:
        chunks, error = _read_chunks(path, size)
        assert error is None
        if size == 1:
            assert len(chunks) == len(whole.sentences)
        sizes = [len(c.sentences) for c in chunks]
        assert [c.first_sentence for c in chunks] == [0, *accumulate(sizes)][: len(chunks)]
        assert [s for c in chunks for s in c.sentences] == whole.sentences
        with mock.patch.object(ingest, "CHUNK_CHARS", size):
            assert parse_conllu_file(path, "t.conllu") == whole
        # Tags carry the sentence indices of the whole file.
        assert [t for c in chunks for t in tag_document(c)] == want_tags
        if want_tags:
            sinks = io.StringIO(), io.StringIO()
            assert build_norms(chunks, "t", sinks[0]) == build_norms([whole], "t", sinks[1])
            assert sinks[0].getvalue() == sinks[1].getvalue()


# The id of a multiword range or an empty node, which the parser skips.
SKIPPED_ID = r"[0-9]+[-.][0-9]+"

# Each way to break a word of a sentence, and the error it gives.
BREAKS = {
    "columns": "malformed token line (9 columns, expected 10)",
    "id": "malformed token line (non-integer id",
    "head": "malformed token line (non-integer head",
    "missing-head": "points to missing token",
    "second-root": "multiple root tokens",
    "headless": "headless sentence (no head=0 token)",
    "cycle": "cyclic dependency structure",
}


def _break_sentence(text, k, kind, rng):
    """text with a word of its sentence k (from 0) broken as BREAKS[kind] says; line ends kept."""
    pieces = re.split(r"(\r\n|\r|\n)", text)  # lines at even indices, their ends at odd ones
    words, sentence = [], 0  # words: (index in pieces, fields) of sentence k's words
    for i in range(0, len(pieces), 2):
        fields = pieces[i].split("\t")
        if not pieces[i]:
            sentence += 1
        elif sentence == k and fields[0][0] != "#" and not re.fullmatch(SKIPPED_ID, fields[0]):
            words.append((i, fields))
    root = next(w for w, (_, fields) in enumerate(words) if fields[6] == "0")
    if kind == "headless":
        w = root
    elif kind in ("second-root", "cycle"):
        w = rng.choice([w for w in range(len(words)) if w != root])
    else:
        w = rng.randrange(len(words))
    i, fields = words[w]
    if kind == "columns":
        del fields[-1]
    elif kind == "id":
        fields[0] += "x"
    elif kind == "head":
        fields[6] = "_"
    elif kind == "missing-head":
        fields[6] = str(len(words) + 1)
    elif kind == "second-root":
        fields[6] = "0"
    else:  # headless, when the root heads itself; a cycle, when another word does
        fields[6] = str(w + 1)
    pieces[i] = "\t".join(fields)
    return "".join(pieces)


@settings(max_examples=100, deadline=None)
@given(
    sentences=st.lists(ud_sentences(), min_size=2, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(BREAKS)),
    bom=st.booleans(),
)
def test_an_error_in_a_later_chunk_names_the_line_of_the_whole_file(
    sentences, seed, kind, bom, tmp_path_factory
):
    rng = random.Random(seed)
    text = corpusgen.write_conllu(parse_conllu("\n".join(sentences)), rng)
    k = rng.randrange(1, len(sentences))  # not the first sentence, so not the first chunk
    broken = _break_sentence(text, k, kind, rng)
    with pytest.raises(ConlluError) as whole:
        parse_conllu(broken)
    assert BREAKS[kind] in str(whole.value)
    path = tmp_path_factory.getbasetemp() / "broken.conllu"
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + broken.encode("utf-8"))
    for size in TINY_CHUNKS:
        chunks, error = _read_chunks(path, size)
        assert error == f"t.conllu: {whole.value}"
        if size == 1:  # the k sentences before the broken one came first, a chunk each
            assert len(chunks) == k
