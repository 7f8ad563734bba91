import os
import random
import shutil
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from asc_toolkit import cli
from asc_toolkit.indices import INDEX_NAMES, IndexConfig, compute_all
from asc_toolkit.ingest import parse_conllu_file
from asc_toolkit.norms import load_norms
from asc_toolkit.tagger import tag_document


def copy_frames(frames_dir, dest, stems):
    dest.mkdir(parents=True, exist_ok=True)
    for stem in stems:
        shutil.copy(frames_dir / f"{stem}.conllu", dest / f"{stem}.conllu")
    return dest


def read_csv_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def test_analyze_three_files(frames_dir, tmp_path):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr", "ditran", "passive"])
    out = tmp_path / "out.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    )
    assert rc == 0
    lines = read_csv_lines(out)
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header == ["filename", *INDEX_NAMES]
    assert len(header) == 55
    # row values match a direct computation
    norm = load_norms(cli.resolve_source("demo"))
    doc = parse_conllu_file(inp / "ditran.conllu", source_id="ditran.conllu")
    expected = compute_all(doc, norm, IndexConfig())
    row = dict(zip(header, lines[2].split(",")))
    assert row["filename"] == "ditran.conllu"
    assert row["DITRAN_Prop"] == "1"
    for name in INDEX_NAMES:
        want = "" if expected[name] is None else format(expected[name], ".6g")
        assert row[name] == want, name


def test_analyze_rows_sorted_by_filename(frames_dir, tmp_path):
    inp = copy_frames(frames_dir, tmp_path / "in", ["tran_s", "attr", "passive"])
    out = tmp_path / "out.csv"
    assert cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    ) == 0
    names = [line.split(",")[0] for line in read_csv_lines(out)[1:]]
    assert names == sorted(names)


def test_analyze_empty_file_has_empty_row(frames_dir, tmp_path):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    (inp / "empty.conllu").write_text("", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    ) == 0
    lines = read_csv_lines(out)
    empty_row = [l for l in lines if l.startswith("empty.conllu")][0]
    assert empty_row == "empty.conllu" + "," * 54


def test_analyze_missing_source_is_usage_error(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    rc = cli.main(["analyze", "--input-dir", str(inp), "--output-csv", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_analyze_unknown_source_is_data_error(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(inp),
            "--output-csv", str(tmp_path / "o.csv"),
            "--source", "cow",
        ]
    )
    assert rc == 2
    assert "unknown norm source" in capsys.readouterr().err


def test_analyze_corrupt_norm_table_aborts(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    bad = tmp_path / "bad.tsv"
    bad.write_text("#source=x\n#version=1.0.0\n#total=5\nTRAN_S\teat\t3\n", encoding="utf-8")
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(inp),
            "--output-csv", str(tmp_path / "o.csv"),
            "--source", str(bad),
        ]
    )
    assert rc == 2
    assert "inconsistent norm table" in capsys.readouterr().err


def test_analyze_unreadable_file_warns_and_continues(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    (inp / "broken.conllu").write_bytes(b"\xff\xfe\x00bad")
    out = tmp_path / "out.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning: broken.conllu" in err
    assert "1 warnings" in err
    rows = [l.split(",")[0] for l in read_csv_lines(out)[1:]]
    assert rows == ["attr.conllu"]


def test_analyze_malformed_conllu_warns(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    (inp / "short.conllu").write_text("1\tx\tx\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    )
    assert rc == 0
    assert "malformed token line" in capsys.readouterr().err


def test_analyze_jobs_parallel_identical(frames_dir, tmp_path, capsys):
    inp = copy_frames(
        frames_dir, tmp_path / "in", ["attr", "ditran", "passive", "tran_s", "intran_s"]
    )
    (inp / "bad.conllu").write_text("1\tx\tx\n", encoding="utf-8")
    base = ["analyze", "--input-dir", str(inp), "--source", "demo"]
    outputs = {}
    for jobs in ("1", "2"):
        csv_path, dbg_path = tmp_path / f"o{jobs}.csv", tmp_path / f"t{jobs}.tsv"
        args = ["--output-csv", str(csv_path), "--debug-tags", str(dbg_path), "--jobs", jobs]
        assert cli.main(base + args) == 0
        assert "analyzed 5 of 6 files, 1 warnings" in capsys.readouterr().err
        outputs[jobs] = (csv_path.read_bytes(), dbg_path.read_bytes())
    assert outputs["1"] == outputs["2"]
    csv_bytes, dbg_bytes = outputs["1"]
    assert len(csv_bytes.decode().splitlines()) == 6
    assert b"bad.conllu" not in csv_bytes and b"bad.conllu" not in dbg_bytes


def test_analyze_interrupted_leaves_no_output(frames_dir, tmp_path, monkeypatch):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr", "ditran", "passive"])
    out, dbg = tmp_path / "out.csv", tmp_path / "tags.tsv"
    real = cli.compute_from_tags
    calls = []

    def interrupt_on_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(cli, "compute_from_tags", interrupt_on_second)
    with pytest.raises(KeyboardInterrupt):
        cli.main(
            [
                "analyze",
                "--input-dir", str(inp),
                "--output-csv", str(out),
                "--source", "demo",
                "--debug-tags", str(dbg),
            ]
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


def test_analyze_accepts_bom_file(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    plain = frames_dir / "ditran.conllu"
    (inp / "ditran.conllu").write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    out = tmp_path / "out.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    )
    assert rc == 0
    assert "analyzed 2 of 2 files, 0 warnings" in capsys.readouterr().err


def test_analyze_recursive(frames_dir, tmp_path):
    inp = tmp_path / "in"
    copy_frames(frames_dir, inp / "sub", ["attr"])
    out = tmp_path / "out.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    )
    assert rc == 2  # nothing at the top level without --recursive
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(inp),
            "--output-csv", str(out),
            "--source", "demo",
            "--recursive",
        ]
    )
    assert rc == 0
    assert read_csv_lines(out)[1].startswith("sub/attr.conllu")


def test_analyze_debug_tags_stream(frames_dir, tmp_path):
    inp = copy_frames(frames_dir, tmp_path / "in", ["ditran"])
    out = tmp_path / "out.csv"
    dbg = tmp_path / "tags.tsv"
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(inp),
            "--output-csv", str(out),
            "--source", "demo",
            "--debug-tags", str(dbg),
        ]
    )
    assert rc == 0
    lines = dbg.read_text(encoding="utf-8").splitlines()
    assert lines == [
        "ditran.conllu\t0\t2\tDITRAN\tgive",
        "ditran.conllu\t1\t2\tDITRAN\tsend",
        "ditran.conllu\t2\t2\tDITRAN\toffer",
    ]


def test_analyze_writes_through_symlink_and_fifo(frames_dir, tmp_path):
    inp = copy_frames(frames_dir, tmp_path / "in", ["ditran"])
    base = ["analyze", "--input-dir", str(inp), "--source", "demo"]
    base += ["--output-csv", str(tmp_path / "o.csv"), "--debug-tags"]
    plain = tmp_path / "plain.tsv"
    assert cli.main(base + [str(plain)]) == 0
    expected = plain.read_bytes()
    assert expected

    real, link = tmp_path / "real.tsv", tmp_path / "link.tsv"
    real.write_text("old\n", encoding="utf-8")
    link.symlink_to(real)
    assert cli.main(base + [str(link)]) == 0
    assert link.is_symlink() and real.read_bytes() == expected

    fifo = tmp_path / "tags.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
    try:
        assert cli.main(base + [str(fifo)]) == 0
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and received == expected
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".partial")) == []


def test_analyze_missing_output_dir_names_the_destination(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    out = tmp_path / "nodir" / "out.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    )
    assert rc == 2
    assert f"No such file or directory: '{out}'" in capsys.readouterr().err


def test_bare_flags_default_to_analyze(frames_dir, tmp_path):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    out = tmp_path / "out.csv"
    rc = cli.main(
        ["--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    )
    assert rc == 0
    assert out.exists()


def test_analyze_window_override_changes_diversity(frames_dir, tmp_path):
    inp = copy_frames(frames_dir, tmp_path / "in", ["ditran"])  # 3 tags
    out = tmp_path / "out.csv"
    base = ["analyze", "--input-dir", str(inp), "--source", "demo"]
    assert cli.main(base + ["--output-csv", str(out), "--window", "2"]) == 0
    header = read_csv_lines(out)[0].split(",")
    row = dict(zip(header, read_csv_lines(out)[1].split(",")))
    assert row["ascMATTR"] == "0.5"  # windows of 2 over DITRAN,DITRAN,DITRAN
    assert cli.main(base + ["--output-csv", str(out)]) == 0
    row = dict(zip(header, read_csv_lines(out)[1].split(",")))
    assert row["ascMATTR"] == ""  # too short at the default window


def test_analyze_missing_input_dir(tmp_path, capsys):
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(tmp_path / "nope"),
            "--output-csv", str(tmp_path / "o.csv"),
            "--source", "demo",
        ]
    )
    assert rc == 2


def test_analyze_no_matching_files(tmp_path, capsys):
    inp = tmp_path / "in"
    inp.mkdir()
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(inp),
            "--output-csv", str(tmp_path / "o.csv"),
            "--source", "demo",
        ]
    )
    assert rc == 2
    assert "no .conllu files" in capsys.readouterr().err


def test_build_norms_matches_recount(frames_dir, tmp_path, capsys):
    out = tmp_path / "norms.tsv"
    rc = cli.main(
        ["build-norms", "--corpus-dir", str(frames_dir), "--out", str(out), "--label", "frames"]
    )
    assert rc == 0
    assert "27 ASC tokens" in capsys.readouterr().out
    norm = load_norms(out)
    recount = Counter()
    for path in sorted(frames_dir.glob("*.conllu")):
        for tag in tag_document(parse_conllu_file(path)):
            recount[(tag.asc_type, tag.verb_lemma)] += 1
    assert norm.pair_counts == dict(recount)
    assert norm.source == "frames"


def test_build_norms_rebuild_is_byte_identical(frames_dir, tmp_path):
    out1, out2 = tmp_path / "n1.tsv", tmp_path / "n2.tsv"
    for out in (out1, out2):
        assert cli.main(
            ["build-norms", "--corpus-dir", str(frames_dir), "--out", str(out), "--label", "x"]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_norms_empty_dir_aborts(tmp_path, capsys):
    inp = tmp_path / "in"
    inp.mkdir()
    rc = cli.main(["build-norms", "--corpus-dir", str(inp), "--out", str(tmp_path / "n.tsv")])
    assert rc == 2
    assert "empty norm table" in capsys.readouterr().err


def test_build_norms_debug_stream_matches_table(frames_dir, tmp_path):
    out = tmp_path / "norms.tsv"
    dbg = tmp_path / "tags.tsv"
    assert cli.main(
        [
            "build-norms",
            "--corpus-dir", str(frames_dir),
            "--out", str(out),
            "--debug-tags", str(dbg),
        ]
    ) == 0
    norm = load_norms(out)
    recount = Counter()
    for line in dbg.read_text(encoding="utf-8").splitlines():
        _, _, _, asc_type, lemma = line.split("\t")
        recount[(asc_type, lemma)] += 1
    assert dict(recount) == norm.pair_counts
    plain = tmp_path / "plain.tsv"
    assert cli.main(["build-norms", "--corpus-dir", str(frames_dir), "--out", str(plain)]) == 0
    assert plain.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "content, problem",
    [
        (
            b"1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
            b"2\tslept\tsleep\tVERB\t_\t_\t0\troot\t_\n",
            "line 2: malformed token line (9 columns, expected 10)",
        ),
        (b"1\tcaf\xe9\tcaf\xe9\tNOUN\t_\t_\t0\troot\t_\t_\n", "'utf-8' codec can't decode byte 0xe9"),
    ],
    ids=["malformed", "not-utf8"],
)
def test_build_norms_parse_error_names_the_file(frames_dir, tmp_path, capsys, content, problem):
    corpus = copy_frames(frames_dir, tmp_path / "corpus", ["attr"])
    (corpus / "sub").mkdir()
    (corpus / "sub" / "bad.conllu").write_bytes(content)
    out = tmp_path / "n.tsv"
    rc = cli.main(["build-norms", "--corpus-dir", str(corpus), "--out", str(out), "--recursive"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: sub/bad.conllu: {problem}")
    assert not out.exists()


def write_stats_csvs(tmp_path, n=200, seed=7):
    rng = random.Random(seed)
    idx = tmp_path / "indices.csv"
    sc = tmp_path / "scores.csv"
    sig_a = [rng.gauss(0, 1) for _ in range(n)]
    sig_b = [rng.gauss(0, 1) for _ in range(n)]
    with open(idx, "w", encoding="utf-8") as fh:
        fh.write("filename,alpha,beta,noise0,noise1\n")
        for i in range(n):
            fh.write(
                f"t{i},{sig_a[i]:.9f},{sig_b[i]:.9f},"
                f"{rng.gauss(0, 1):.9f},{rng.gauss(0, 1):.9f}\n"
            )
    with open(sc, "w", encoding="utf-8") as fh:
        fh.write("filename,score\n")
        for i in range(n):
            y = 3 * sig_a[i] - 2 * sig_b[i] + rng.gauss(0, 1)
            fh.write(f"t{i},{y:.9f}\n")
    return idx, sc


def test_stats_subcommand_recovers_planted_model(tmp_path):
    idx, sc = write_stats_csvs(tmp_path)
    report = tmp_path / "report.txt"
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc), "--report", str(report)]
    )
    assert rc == 0
    text = report.read_text(encoding="utf-8")
    assert "alpha" in text and "beta" in text
    assert "R^2" in text


def test_stats_constant_score_aborts(tmp_path, capsys):
    idx, sc = write_stats_csvs(tmp_path, n=20)
    sc.write_text(
        "filename,score\n" + "".join(f"t{i},1.0\n" for i in range(20)), encoding="utf-8"
    )
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc),
         "--report", str(tmp_path / "r.txt")]
    )
    assert rc == 2
    assert "constant vector" in capsys.readouterr().err


def test_stats_disjoint_join_aborts(tmp_path, capsys):
    idx, sc = write_stats_csvs(tmp_path, n=20)
    sc.write_text(
        "filename,score\n" + "".join(f"other{i},1.0\n" for i in range(20)),
        encoding="utf-8",
    )
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc),
         "--report", str(tmp_path / "r.txt")]
    )
    assert rc == 2
    assert "only 0 rows" in capsys.readouterr().err


def test_stats_composite_option(tmp_path):
    idx, sc = write_stats_csvs(tmp_path, n=30, seed=8)
    # replace scores with four subscores whose mean is the composite
    rows = ["filename,syntax,vocabulary,phraseology,grammar"]
    rng = random.Random(9)
    base = [rng.gauss(0, 1) for _ in range(30)]
    for i in range(30):
        rows.append(f"t{i},{base[i]},{base[i] + 1},{base[i] - 1},{base[i]}")
    sc.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    rc = cli.main(
        [
            "stats",
            "--indices-csv", str(idx),
            "--scores-csv", str(sc),
            "--report", str(report),
            "--composite-of", "syntax,vocabulary,phraseology,grammar",
        ]
    )
    assert rc == 0
    assert report.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--r-threshold", "nan"),
        ("--r-threshold", "-0.1"),
        ("--r-threshold", "1.5"),
        ("--vif-limit", "nan"),
        ("--vif-limit", "inf"),
        ("--vif-limit", "0"),
        ("--vif-limit", "1"),
        ("--composite-of", ","),
        ("--composite-of", ""),
    ],
)
def test_stats_rejects_bad_flag_values_as_usage_errors(tmp_path, capsys, flag, value):
    idx, sc = write_stats_csvs(tmp_path, n=20)
    report = tmp_path / "r.txt"
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc),
         "--report", str(report), flag, value]
    )
    assert rc == 1
    assert flag in capsys.readouterr().err
    assert not report.exists()


def test_scipy_special_loads_only_when_stats_fits(frames_dir, tmp_path):
    idx, sc = write_stats_csvs(tmp_path)
    script = f"""
import sys
from asc_toolkit import cli
runs = [
    ["analyze", "--input-dir", {str(frames_dir)!r}, "--output-csv", {str(tmp_path / "a.csv")!r},
     "--source", "demo"],
    ["build-norms", "--corpus-dir", {str(frames_dir)!r}, "--out", {str(tmp_path / "n.tsv")!r}],
    ["stats", "--indices-csv", {str(idx)!r}, "--scores-csv", {str(sc)!r},
     "--report", {str(tmp_path / "r.txt")!r}],
]
for args in runs:
    assert cli.main(args) == 0, args
    print(args[0], "scipy.special" in sys.modules, file=sys.stderr)
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-3:] == [
        "analyze False",
        "build-norms False",
        "stats True",
    ]


@pytest.mark.parametrize(
    "which, lineno, text, column, problem",
    [
        ("indices", 3, "t1,nan,1", "alpha", "non-finite value 'nan'"),
        ("indices", 4, "t2,2,inf", "beta", "non-finite value 'inf'"),
        ("scores", 5, "t3,-inf", "score", "non-finite value '-inf'"),
        ("indices", 6, "t4,4,abc", "beta", "non-numeric value 'abc'"),
        ("scores", 7, "t1,7", "filename", "duplicate 't1' (first at line 3)"),
        ("indices", 8, "t2,1,1", "filename", "duplicate 't2' (first at line 4)"),
    ],
    ids=["index-nan", "index-inf", "score-inf", "index-text", "score-dup", "index-dup"],
)
def test_stats_rejects_bad_csv_naming_file_line_column(
    tmp_path, capsys, which, lineno, text, column, problem
):
    lines = {
        "indices": ["filename,alpha,beta"] + [f"t{i},{i},{i % 3}" for i in range(12)],
        "scores": ["filename,score"] + [f"t{i},{2 * i}" for i in range(12)],
    }
    lines[which][lineno - 1] = text
    paths = {name: tmp_path / f"{name}.csv" for name in lines}
    for name, path in paths.items():
        path.write_text("\n".join(lines[name]) + "\n", encoding="utf-8")
    rc = cli.main(
        ["stats", "--indices-csv", str(paths["indices"]), "--scores-csv", str(paths["scores"]),
         "--report", str(tmp_path / "r.txt")]
    )
    assert rc == 2
    want = f"{paths[which]}: line {lineno}, column {column!r}: {problem}"
    assert want in capsys.readouterr().err


def test_unknown_subcommand_flag_is_usage_error(capsys):
    assert cli.main(["analyze", "--nope"]) == 1
