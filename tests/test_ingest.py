import random

import pytest

from asc_toolkit.ingest import ConlluError, parse_conllu, parse_conllu_file

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


def test_comments_and_crlf():
    text = "# sent_id = 1\r\n" + BARKED.replace("\n", "\r\n")
    doc = parse_conllu(text)
    assert doc.n_tokens() == 4


def test_headless_sentence():
    text = BARKED.replace("0\troot", "2\tdep")
    with pytest.raises(ConlluError, match="sentence 0.*headless"):
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
    with pytest.raises(ConlluError, match="sentence 0.*cyclic"):
        parse_conllu(text)


def test_head_to_missing_token():
    text = BARKED.replace("2\tdet", "9\tdet")
    with pytest.raises(ConlluError, match="missing token"):
        parse_conllu(text)


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
