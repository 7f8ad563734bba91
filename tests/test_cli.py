import contextlib
import csv
import gc
import io
import importlib
import os
import random
import shutil
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from asc_toolkit import cli, ingest
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


def test_analyze_refuses_a_norm_table_with_a_capitalised_lemma(frames_dir, tmp_path, capsys):
    # The tagger lowercases every lemma, so this row could never match: a
    # table that held it would give the DITRAN texts empty MI and t cells.
    inp = copy_frames(frames_dir, tmp_path / "in", ["ditran"])
    bad = tmp_path / "bad.tsv"
    bad.write_text("#source=x\n#version=1.0.0\n#total=7\nATTR\tbe\t2\nDITRAN\tGive\t5\n",
                   encoding="utf-8")
    out = tmp_path / "o.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", str(bad)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: inconsistent norm table: the lemma of ('DITRAN', 'Give')")
    assert not out.exists()


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


@pytest.fixture
def recorded_pools(monkeypatch):
    """The max_workers of each ProcessPoolExecutor analyze makes, and the chunksize of each map."""
    import concurrent.futures

    asked = {"workers": [], "chunksize": []}

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            asked["workers"].append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def map(self, fn, *iterables, chunksize=1, **kwargs):
            asked["chunksize"].append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return asked


def test_analyze_forks_no_more_workers_than_files(frames_dir, tmp_path, recorded_pools):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr", "ditran"])
    base = ["analyze", "--input-dir", str(inp), "--source", "demo"]
    assert cli.main(base + ["--output-csv", str(tmp_path / "j8.csv"), "--jobs", "8"]) == 0
    assert recorded_pools == {"workers": [2], "chunksize": [1]}
    assert cli.main(base + ["--output-csv", str(tmp_path / "j1.csv"), "--jobs", "1"]) == 0
    assert recorded_pools == {"workers": [2], "chunksize": [1]}
    assert (tmp_path / "j8.csv").read_bytes() == (tmp_path / "j1.csv").read_bytes()


def test_analyze_failing_files_inside_chunks_keep_file_order(tmp_path, capsys, recorded_pools):
    # 36 files give chunks of 4 with --jobs 2 and of 3 with --jobs 3; the two
    # bad files, at sorted positions 13 and 22 from 0, sit inside a chunk in both.
    inp = tmp_path / "in"
    inp.mkdir()
    for i in range(36):
        text = corpusgen.make_diverse_text(seed=i, n_sentences=2 + i % 5, diversity=i % 11 / 10)
        (inp / f"text{i:02d}.conllu").write_text(text, encoding="utf-8")
    (inp / "text13.conllu").write_bytes(b"\xff\xfe\x00bad")
    (inp / "text22.conllu").write_text("1\tx\tx\n", encoding="utf-8")
    base = ["analyze", "--input-dir", str(inp), "--source", "demo"]
    outputs = {}
    for jobs in ("1", "2", "3"):
        csv_path, dbg_path = tmp_path / f"o{jobs}.csv", tmp_path / f"t{jobs}.tsv"
        args = ["--output-csv", str(csv_path), "--debug-tags", str(dbg_path), "--jobs", jobs]
        assert cli.main(base + args) == 0
        *warnings, summary = capsys.readouterr().err.splitlines()
        assert [w.split(": ")[:2] for w in warnings] == [
            ["warning", "text13.conllu"], ["warning", "text22.conllu"]
        ]
        assert summary.startswith("analyzed 34 of 36 files, 2 warnings")
        outputs[jobs] = (csv_path.read_bytes(), dbg_path.read_bytes(), warnings)
    assert recorded_pools == {"workers": [2, 3], "chunksize": [4, 3]}
    assert outputs["1"] == outputs["2"] == outputs["3"]
    names = [line.split(",")[0] for line in outputs["1"][0].decode().splitlines()[1:]]
    assert names == [f"text{i:02d}.conllu" for i in range(36) if i not in (13, 22)]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_with_no_file_analyzed_is_a_data_error(tmp_path, capsys, jobs):
    inp = tmp_path / "in"
    inp.mkdir()
    (inp / "a.conllu").write_bytes(b"\xff\xfe\x00bad")
    (inp / "b.conllu").write_text("1\tx\tx\n", encoding="utf-8")
    out, dbg = tmp_path / "out.csv", tmp_path / "tags.tsv"
    out.write_text("old csv\n", encoding="utf-8")
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo",
         "--debug-tags", str(dbg), "--jobs", jobs]
    )
    assert rc == 2
    *warnings, error = capsys.readouterr().err.splitlines()
    assert [w.split(": ")[:2] for w in warnings] == [["warning", "a.conllu"], ["warning", "b.conllu"]]
    assert error == "error: no file could be analyzed"
    # The outputs keep what they held before: the CSV its text, the debug stream nothing.
    assert out.read_text(encoding="utf-8") == "old csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "out.csv"]


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


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
@pytest.mark.parametrize("command", ["analyze", "build-norms"])
def test_two_outputs_naming_one_file_is_a_usage_error(frames_dir, tmp_path, capsys, command, existing):
    target = tmp_path / "X"
    if existing:
        target.write_bytes(b"old bytes\n")
    # The second spelling reaches X through a link to its directory.
    (tmp_path / "link").symlink_to(tmp_path)
    flag = "--output-csv" if command == "analyze" else "--out"
    if command == "analyze":
        argv = ["analyze", "--input-dir", str(frames_dir), "--source", "demo"]
    else:
        argv = ["build-norms", "--corpus-dir", str(frames_dir)]
    rc = cli.main(argv + [flag, str(target), "--debug-tags", str(tmp_path / "link" / "X")])
    assert rc == 1
    want = f"usage error: {flag} and --debug-tags name the same file: {target}"
    assert capsys.readouterr().err.splitlines() == [want]
    assert sorted(p.name for p in tmp_path.iterdir()) == (["X", "link"] if existing else ["link"])
    if existing:
        assert target.read_bytes() == b"old bytes\n"
    # A shared destination that is not a regular file is written directly.
    assert cli.main(argv + [flag, os.devnull, "--debug-tags", os.devnull]) == 0


def test_output_through_a_symlink_loop_is_a_data_error(frames_dir, tmp_path, capsys):
    (tmp_path / "a").symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(tmp_path / "a")
    (tmp_path / "t").write_bytes(b"old tags\n")
    before = _tree_bytes(tmp_path)
    rc = cli.main(["analyze", "--input-dir", str(frames_dir), "--source", "demo",
                   "--output-csv", str(tmp_path / "a"), "--debug-tags", str(tmp_path / "t")])
    assert rc == 2
    assert "Too many levels of symbolic links" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "t"]
    assert _tree_bytes(tmp_path) == before


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _link_each_file(real, links):
    """Make directory links hold a symlink to each file in directory real, under its name."""
    links.mkdir()
    for p in real.iterdir():
        (links / p.name).symlink_to(p)


# (flag, output as given, argv) per command and input kind; paths are relative
# to the test's directory, which holds texts t/, a norm table my.tsv and two
# stats CSVs.
_OUTPUT_IS_INPUT = {
    "analyze-source": ("--output-csv", "my.tsv",
                       ["analyze", "--input-dir", "t", "--source", "my.tsv", "--output-csv", "my.tsv"]),
    "analyze-source-debug": ("--debug-tags", "my.tsv",
                             ["analyze", "--input-dir", "t", "--source", "my.tsv",
                              "--output-csv", "o.csv", "--debug-tags", "my.tsv"]),
    "analyze-text-debug": ("--debug-tags", "t/attr.conllu",
                           ["analyze", "--input-dir", "t", "--source", "demo",
                            "--output-csv", "o.csv", "--debug-tags", "t/attr.conllu"]),
    "analyze-text-recursive": ("--output-csv", "t/sub/passive.conllu",
                               ["analyze", "--input-dir", "t", "--source", "demo", "--recursive",
                                "--output-csv", "t/sub/passive.conllu"]),
    "analyze-text-via-symlink": ("--output-csv", "link",
                                 ["analyze", "--input-dir", "t", "--source", "demo",
                                  "--output-csv", "link"]),
    "build-norms-out": ("--out", "t/attr.conllu",
                        ["build-norms", "--corpus-dir", "t", "--out", "t/attr.conllu"]),
    "build-norms-debug-via-hard-link": ("--debug-tags", "hard",
                                        ["build-norms", "--corpus-dir", "t", "--out", "n.tsv",
                                         "--debug-tags", "hard"]),
    "stats-scores": ("--report", "sc.csv",
                     ["stats", "--indices-csv", "ix.csv", "--scores-csv", "sc.csv", "--report", "sc.csv"]),
    "stats-indices": ("--report", "ix.csv",
                      ["stats", "--indices-csv", "ix.csv", "--scores-csv", "sc.csv", "--report", "ix.csv"]),
}


@pytest.fixture
def inputs_dir(frames_dir, tmp_path, monkeypatch):
    copy_frames(frames_dir, tmp_path / "t", ["attr", "ditran"])
    copy_frames(frames_dir, tmp_path / "t" / "sub", ["passive"])
    assert cli.main(["build-norms", "--corpus-dir", str(tmp_path / "t"), "--out", str(tmp_path / "my.tsv")]) == 0
    idx, sc = write_stats_csvs(tmp_path)
    idx.rename(tmp_path / "ix.csv")
    sc.rename(tmp_path / "sc.csv")
    (tmp_path / "link").symlink_to(tmp_path / "t" / "ditran.conllu")
    os.link(tmp_path / "t" / "ditran.conllu", tmp_path / "hard")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", list(_OUTPUT_IS_INPUT))
def test_an_output_naming_an_input_is_a_usage_error(inputs_dir, capsys, case):
    flag, path, argv = _OUTPUT_IS_INPUT[case]
    capsys.readouterr()
    before = _tree_bytes(inputs_dir)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {flag} names an input file: {path}"]
    # Nothing written, the input included, and no .partial left.
    assert _tree_bytes(inputs_dir) == before


def test_an_output_naming_an_input_is_checked_after_flags_and_inputs(inputs_dir, capsys):
    base = ["analyze", "--input-dir", "t", "--output-csv", "t/attr.conllu"]
    assert cli.main([*base, "--source", "demo", "--jobs", "0"]) == 1
    assert capsys.readouterr().err == "usage error: --jobs must be >= 1\n"
    assert cli.main([*base, "--source", "nope"]) == 2
    assert "unknown norm source 'nope'" in capsys.readouterr().err
    assert cli.main(["analyze", "--input-dir", "none", "--source", "my.tsv", "--output-csv", "my.tsv"]) == 2
    assert capsys.readouterr().err == "error: none is not a directory\n"
    # Outputs that exist but are no input are written as before.
    for _ in range(2):
        assert cli.main(["analyze", "--input-dir", "t", "--source", "my.tsv", "--output-csv", "o.csv",
                         "--debug-tags", "o.tags"]) == 0
        assert cli.main(["stats", "--indices-csv", "ix.csv", "--scores-csv", "sc.csv",
                         "--report", "r.txt"]) == 0


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

    # A link to nothing yet creates its target and stays a link.
    dangling, target = tmp_path / "dangling.tsv", tmp_path / "new" / "target.tsv"
    target.parent.mkdir()
    dangling.symlink_to(target)
    assert cli.main(base + [str(dangling)]) == 0
    assert dangling.is_symlink() and target.read_bytes() == expected
    assert [p.name for p in target.parent.iterdir()] == ["target.tsv"]

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


def test_a_subcommand_is_always_named(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    out = tmp_path / "out.csv"
    flags = ["--input-dir", str(inp), "--output-csv", str(out), "--source", "demo"]
    # Bare flags leave the first positional word, the input dir, to name the command.
    cases = [(flags, str(inp)), (["stat", *flags], "stat"), (["analyse", *flags], "analyse")]
    for argv, word in cases:
        assert cli.main(argv) == 1
        assert f"usage error: argument command: invalid choice: {word!r}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as info:
        cli.main(["-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: asc-toolkit [-h] {analyze,build-norms,stats}")


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


@pytest.mark.parametrize("dir_exists", [True, False], ids=["dir", "no-dir"])
@pytest.mark.parametrize(
    "flag, value, problem",
    [
        ("--jobs", "0", "--jobs must be >= 1"),
        ("--window", "1", "window must be >= 2"),
        ("--min-ref-freq", "0", "min_ref_freq must be >= 1"),
    ],
    ids=["jobs", "window", "min-ref-freq"],
)
def test_analyze_bad_flag_is_usage_error_whatever_the_input_dir(
    frames_dir, tmp_path, capsys, flag, value, problem, dir_exists
):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"]) if dir_exists else tmp_path / "nope"
    out = tmp_path / "o.csv"
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(out), "--source", "demo",
         flag, value]
    )
    assert rc == 1
    assert problem in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["analyze", "build-norms"])
def test_a_text_whose_name_is_not_utf8_is_refused_before_any_file_is_read(
    frames_dir, tmp_path, monkeypatch, capsys, command
):
    # No output could name it: the name is refused, with its bytes escaped,
    # before a text is parsed or an output opened.  A UTF-8 name that is not
    # ASCII is a text like any other.
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    shutil.copy(inp / "attr.conllu", inp / "\u00e9.conllu")
    (inp / "sub\u00e9").mkdir()
    try:
        shutil.copy(inp / "attr.conllu", inp / "sub\u00e9" / os.fsdecode(b"\xfe.conllu"))
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    dir_flag, out_flag = {"analyze": ("--input-dir", "--output-csv"),
                          "build-norms": ("--corpus-dir", "--out")}[command]
    out, dbg = tmp_path / "out", tmp_path / "tags"
    argv = [command, dir_flag, str(inp), out_flag, str(out), "--debug-tags", str(dbg)]
    argv += ["--source", "demo"] if command == "analyze" else []
    assert cli.main(argv) == 0  # not recursive: the name is not found
    assert "\u00e9.conllu" in out.read_text(encoding="utf-8") + dbg.read_text(encoding="utf-8")
    capsys.readouterr()
    before = _tree_bytes(tmp_path / "in"), out.read_bytes(), dbg.read_bytes()

    def unread(*args):
        raise AssertionError(f"read {args}")

    monkeypatch.setattr(cli, "parse_conllu_file", unread)
    monkeypatch.setattr(cli, "read_conllu_chunks", unread)
    assert cli.main(argv + ["--recursive"]) == 2
    assert capsys.readouterr().err == "error: sub\u00e9/\\xfe.conllu: file name is not UTF-8\n"
    assert (_tree_bytes(tmp_path / "in"), out.read_bytes(), dbg.read_bytes()) == before


def test_build_norms_matches_recount(frames_dir, tmp_path, capsys):
    out = tmp_path / "norms.tsv"
    rc = cli.main(
        ["build-norms", "--corpus-dir", str(frames_dir), "--out", str(out), "--label", "frames"]
    )
    assert rc == 0
    assert "27 ASC tokens" in capsys.readouterr().err
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


@pytest.mark.parametrize("label", ["two\nlines", "carriage\rreturn", "crlf\r\n"])
def test_build_norms_rejects_label_with_line_break(frames_dir, tmp_path, capsys, label):
    out = tmp_path / "n.tsv"
    dbg = tmp_path / "tags.tsv"
    rc = cli.main(
        ["build-norms", "--corpus-dir", str(frames_dir), "--out", str(out),
         "--debug-tags", str(dbg), "--label", label]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error: --label must not hold a line break")
    assert list(tmp_path.iterdir()) == []  # no table, debug stream or partial file


@pytest.mark.parametrize(
    "cwd, corpus_dir, label",
    [("texts", ".", "texts"), ("texts", "sub/..", "texts"), (".", "link", "link")],
)
def test_build_norms_default_label_is_the_corpus_dir_name(
    frames_dir, tmp_path, monkeypatch, cwd, corpus_dir, label
):
    texts = copy_frames(frames_dir, tmp_path / "texts", ["attr"])
    (texts / "sub").mkdir()
    (tmp_path / "link").symlink_to(texts, target_is_directory=True)
    monkeypatch.chdir(tmp_path / cwd)
    out = tmp_path / "n.tsv"
    assert cli.main(["build-norms", "--corpus-dir", corpus_dir, "--out", str(out)]) == 0
    assert load_norms(out).source == label


def test_build_norms_refuses_a_label_that_is_not_utf8_before_any_text_is_read(
    frames_dir, tmp_path, monkeypatch, capsys
):
    # A directory named b"\xff", read back as "\udcff", would label the table by default.
    texts = copy_frames(frames_dir, tmp_path / os.fsdecode(b"\xff"), ["attr"])
    out, dbg = tmp_path / "n.tsv", tmp_path / "tags.tsv"
    out.write_bytes(b"old table\n")
    dbg.write_bytes(b"old tags\n")
    argv = ["build-norms", "--corpus-dir", str(texts), "--out", str(out), "--debug-tags", str(dbg)]

    def unread(*args):
        raise AssertionError(f"read {args}")

    monkeypatch.setattr(cli, "read_conllu_chunks", unread)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path}/\\xff: its name, the default --label, must be UTF-8, got '\\udcff'\n"
    )
    # A given --label that is not UTF-8 is a usage error.
    assert cli.main(argv + ["--label", os.fsdecode(b"a\xffb")]) == 1
    assert capsys.readouterr().err == "usage error: --label must be UTF-8, got 'a\\udcffb'\n"
    assert (out.read_bytes(), dbg.read_bytes()) == (b"old table\n", b"old tags\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n.tsv", "tags.tsv", texts.name]
    # A UTF-8 --label names the table whatever the directory is called.
    monkeypatch.undo()
    assert cli.main(argv + ["--label", "ok"]) == 0
    assert load_norms(out).source == "ok"


def test_build_norms_empty_dir_aborts(tmp_path, capsys):
    inp = tmp_path / "in"
    inp.mkdir()
    rc = cli.main(["build-norms", "--corpus-dir", str(inp), "--out", str(tmp_path / "n.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: no .conllu files found in {inp}\n"


def test_directories_named_conllu_are_not_texts(frames_dir, tmp_path, capsys):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    (inp / "sub.conllu").mkdir()
    rc = cli.main(
        ["analyze", "--input-dir", str(inp), "--output-csv", str(tmp_path / "o.csv"),
         "--source", "demo"]
    )
    assert rc == 0
    assert "analyzed 1 of 1 files, 0 warnings" in capsys.readouterr().err
    assert cli.main(["build-norms", "--corpus-dir", str(inp), "--out", str(tmp_path / "n.tsv")]) == 0
    assert capsys.readouterr().err == f"3 ASC tokens (1 pairs) -> {tmp_path / 'n.tsv'}\n"
    assert load_norms(tmp_path / "n.tsv").pair_counts == {("ATTR", "be"): 3}  # attr.conllu's

    # Searched recursively, a file inside such a directory is still a text.
    shutil.copy(frames_dir / "ditran.conllu", inp / "sub.conllu" / "ditran.conllu")
    assert [key for key, _ in cli.discover_files(inp, recursive=True)[0]] == [
        "attr.conllu", "sub.conllu/ditran.conllu"
    ]

    only_dirs = tmp_path / "only_dirs"
    (only_dirs / "a.conllu").mkdir(parents=True)
    for command, dir_flag, out_flag in (
        ("analyze", "--input-dir", "--output-csv"),
        ("build-norms", "--corpus-dir", "--out"),
    ):
        argv = [command, dir_flag, str(only_dirs), out_flag, str(tmp_path / "x")]
        rc = cli.main(argv + (["--source", "demo"] if command == "analyze" else []))
        assert rc == 2
        assert capsys.readouterr().err == f"error: no .conllu files found in {only_dirs}\n"


def _unreachable_after(argv, rc=0):
    """Objects the cyclic collector frees after a main(argv) run that exits rc, with it off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert cli.main(argv) == rc
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_commands_leave_no_cyclic_garbage_per_input(frames_dir, tmp_path, capsys):
    # main runs with the collector off; that is safe only while what a command
    # builds is freed by reference counting, so a run over more input, or
    # over a file that fails to parse, may leave no more unreachable objects.
    stems = sorted(p.stem for p in frames_dir.glob("*.conllu"))
    one = copy_frames(frames_dir, tmp_path / "one", stems[:1])
    many = tmp_path / "many"
    for i in range(4):
        copy_frames(frames_dir, many / f"copy{i}", stems)
    failing = copy_frames(frames_dir, tmp_path / "failing", stems[:1])
    (failing / "z_bad.conllu").write_text("1\tHe\the\n", encoding="utf-8")

    def analyze(inp):
        return ["analyze", "--input-dir", str(inp), "--output-csv", str(tmp_path / "o.csv"),
                "--source", "demo", "--recursive", "--debug-tags", str(tmp_path / "t.tsv")]

    def build_norms(inp):
        return ["build-norms", "--corpus-dir", str(inp), "--out", str(tmp_path / "n.tsv"),
                "--recursive"]

    baseline = _unreachable_after(analyze(one))
    assert _unreachable_after(analyze(many)) == baseline
    assert _unreachable_after(analyze(failing)) == baseline
    assert "z_bad.conllu: line 1" in capsys.readouterr().err
    assert _unreachable_after(build_norms(one)) == baseline
    assert _unreachable_after(build_norms(many)) == baseline


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("want_rc", [0, 1, 2], ids=["ok", "usage-error", "data-error"])
def test_main_leaves_the_collector_as_it_found_it(
    frames_dir, tmp_path, monkeypatch, enabled, want_rc
):
    inp = copy_frames(frames_dir, tmp_path / "in", ["attr"])
    argv = ["analyze", "--input-dir", str(inp), "--output-csv", str(tmp_path / "o.csv"),
            "--source", "demo"]
    if want_rc == 1:
        argv += ["--jobs", "0"]
    elif want_rc == 2:
        argv[2] = str(tmp_path / "nope")
    seen_during = []
    real = cli.discover_files

    def recording(*args):
        seen_during.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(cli, "discover_files", recording)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc = cli.main(argv)
        assert (rc, gc.isenabled()) == (want_rc, enabled)
        assert seen_during == ([] if want_rc == 1 else [False])
        # Only the console entry freezes the heap; a caller of main keeps one it can collect.
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "command, want_rc",
    [("analyze", 0), ("build-norms", 0), ("stats", 0), ("analyze", 1), ("stats", 2)],
    ids=["analyze", "build-norms", "stats", "usage-error", "data-error"],
)
def test_the_console_entry_freezes_the_heap_and_exits_as_main_returns(
    frames_dir, tmp_path, command, want_rc
):
    # An atexit hook, which runs after entry's sys.exit, sees the frozen heap.
    # The process exits with main's status, and writes what main writes in process.
    idx, sc = write_stats_csvs(tmp_path)
    if want_rc == 2:
        sc.write_text(sc.read_text(encoding="utf-8") + "extra,n/a\n", encoding="utf-8")

    def argv_into(out):
        out.mkdir()
        return {
            "analyze": ["analyze", "--input-dir", str(frames_dir), "--source", "demo",
                        "--output-csv", str(out / "a.csv"), "--debug-tags", str(out / "a.tags")],
            "build-norms": ["build-norms", "--corpus-dir", str(frames_dir),
                            "--out", str(out / "n.tsv"), "--debug-tags", str(out / "n.tags")],
            "stats": ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc),
                      "--report", str(out / "r.txt")],
        }[command] + (["--jobs", "0"] if want_rc == 1 else [])

    assert cli.main(argv_into(tmp_path / "in-process")) == want_rc
    script = """
import atexit, gc
from asc_toolkit import cli
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
cli.entry()  # main reads sys.argv[1:], the arguments after the script
"""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv_into(tmp_path / "entry")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == want_rc, proc.stderr
    assert "Traceback" not in proc.stderr
    label, count = proc.stdout.split()
    assert label == "frozen" and int(count) > 0
    assert _tree_bytes(tmp_path / "entry") == _tree_bytes(tmp_path / "in-process")


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


def test_build_norms_failing_out_leaves_the_debug_stream(frames_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    dbg = tmp_path / "tags.tsv"
    dbg.write_bytes(b"old\n")
    rc = cli.main(
        ["build-norms", "--corpus-dir", str(frames_dir), "--out", str(out), "--debug-tags", str(dbg)]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert dbg.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "tags.tsv"]
    assert list(out.iterdir()) == []


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


def test_build_norms_data_error_leaves_a_table_behind_a_symlink(frames_dir, tmp_path, capsys):
    # --out is replaced at the link's target, and only once the table is built and saved.
    corpus = copy_frames(frames_dir, tmp_path / "corpus", ["attr"])
    (corpus / "bad.conllu").write_bytes(b"1\tShe\tshe\tPRON\t_\t_\t0\troot\t_\n")
    table = tmp_path / "table.tsv"
    table.write_bytes(b"old norms\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(table)
    rc = cli.main(["build-norms", "--corpus-dir", str(corpus), "--out", str(link)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad.conllu: line 1: malformed token line")
    assert link.is_symlink() and table.read_bytes() == b"old norms\n"


def test_build_norms_error_in_a_later_chunk_names_the_line_of_the_file(
    frames_dir, tmp_path, capsys
):
    corpus = copy_frames(frames_dir, tmp_path / "corpus", ["attr"])
    lines = corpusgen.make_diverse_text(seed=0, n_sentences=2000, diversity=1.0).split("\n")
    bad = max(i for i, line in enumerate(lines) if line)  # the last word's line, from 0
    assert len("\n".join(lines[:bad])) > 20 * ingest.CHUNK_CHARS
    lines[bad] = lines[bad].rsplit("\t", 1)[0]
    (corpus / "z_big.conllu").write_text("\n".join(lines), encoding="utf-8")
    out, dbg = tmp_path / "n.tsv", tmp_path / "t.tsv"
    out.write_bytes(b"old norms\n")
    dbg.write_bytes(b"old tags\n")
    argv = ["build-norms", "--corpus-dir", str(corpus), "--out", str(out), "--debug-tags", str(dbg)]
    unreachable = _unreachable_after(argv, cli.EXIT_DATA)
    assert capsys.readouterr().err == (
        f"error: z_big.conllu: line {bad + 1}: malformed token line (9 columns, expected 10)\n"
    )
    assert (out.read_bytes(), dbg.read_bytes()) == (b"old norms\n", b"old tags\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "n.tsv", "t.tsv"]
    # The chunks counted before the error leave no more cyclic garbage than a run that succeeds.
    (corpus / "z_big.conllu").unlink()
    assert _unreachable_after(argv) == unreachable


def test_build_norms_holds_the_parse_of_a_chunk_not_of_a_file(tmp_path, capsys):
    # The text of a file is read whole; what the command holds beyond that
    # read is bounded by the chunk size, whatever the file's size.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "big.conllu"
    text = corpusgen.make_diverse_text(seed=0, n_sentences=2000, diversity=1.0)
    path.write_text(text, encoding="utf-8")
    assert path.stat().st_size > 20 * ingest.CHUNK_CHARS
    argv = ["build-norms", "--corpus-dir", str(corpus), "--out", str(tmp_path / "n.tsv")]
    tracemalloc.start()
    try:
        path.read_text(encoding="utf-8-sig")
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 12 chunks' worth on CPython 3.11; a whole-file parse here is over 300.
    assert peak - read_peak < 32 * ingest.CHUNK_CHARS


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


def test_stats_searches_every_subset_above_lattice_width(tmp_path):
    # 19 independent features, each correlated with the score, all reach selection.
    k, n = 19, 1000
    rng = random.Random(19)
    rows = [[rng.gauss(0, 1) for _ in range(k)] for _ in range(n)]
    idx = tmp_path / "indices.csv"
    sc = tmp_path / "scores.csv"
    idx.write_text(
        "filename," + ",".join(f"x{j}" for j in range(k)) + "\n"
        + "".join(f"t{i}," + ",".join(f"{v:.9f}" for v in row) + "\n" for i, row in enumerate(rows)),
        encoding="utf-8",
    )
    sc.write_text(
        "filename,score\n"
        + "".join(f"t{i},{sum(row) + rng.gauss(0, 1):.9f}\n" for i, row in enumerate(rows)),
        encoding="utf-8",
    )
    report = tmp_path / "report.txt"
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc), "--report", str(report)]
    )
    assert rc == 0
    text = report.read_text(encoding="utf-8")
    assert f"{k} candidates entered model selection" in text
    assert "of 524288 models" in text
    assert "stepwise" not in text


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


def test_stats_near_constant_score_aborts(tmp_path, capsys):
    # A spread of 1e-4 on a mean of 1e6 is under the 1e-6 share at which a
    # column adds nothing to a fit, though no two scores need be equal.
    idx, sc = write_stats_csvs(tmp_path, n=30)
    rng = random.Random(5)
    sc.write_text(
        "filename,score\n" + "".join(f"t{i},{1e6 + rng.uniform(0, 1e-4)!r}\n" for i in range(30)),
        encoding="utf-8",
    )
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc),
         "--report", str(tmp_path / "r.txt")]
    )
    assert rc == 2
    assert "constant vector: the score" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


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


def test_stats_report_does_not_depend_on_the_order_of_the_indices_rows(tmp_path, monkeypatch):
    # perfbench's stats-k18 input for seed 1: 2,000 rows, 18 candidates that
    # reach the AIC scan, and scores rows already shuffled against the texts.
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    data = importlib.import_module("inputs").stats_input(1)
    header, *rows = data.indices_csv.splitlines(keepends=True)
    reports = []
    for name, indices in (("kept", data.indices_csv), ("reversed", header + "".join(rows[::-1]))):
        (tmp_path / name).mkdir()
        rc, _, report = run_stats(tmp_path / name, indices, data.scores_csv)
        assert rc == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


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
            "--score-column", "syntax, vocabulary,phraseology ,grammar",
        ]
    )
    assert rc == 0
    # The same report as from one column holding the mean, added left to right.
    means = ["filename,score"]
    for i in range(30):
        b = base[i]
        means.append(f"t{i},{(b + (b + 1) + (b - 1) + b) / 4!r}")
    sc.write_text("\n".join(means) + "\n", encoding="utf-8")
    single = tmp_path / "single.txt"
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc), "--report", str(single)]
    )
    assert rc == 0
    assert report.read_bytes() == single.read_bytes()


def test_stats_score_column_missing_from_scores_csv_is_a_data_error(tmp_path, capsys):
    idx, sc = write_stats_csvs(tmp_path, n=20)
    report = tmp_path / "r.txt"
    rc = cli.main(
        ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc),
         "--report", str(report), "--score-column", "score,nosuch"]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {sc}: scores CSV lacks column(s): nosuch\n"
    assert not report.exists()


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
        ("--score-column", ","),
        ("--score-column", ""),
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


def test_no_command_loads_scipy(frames_dir, tmp_path):
    # A finder ahead of every other one makes any import of a blocked module
    # fail, and records it in case the ImportError is caught, so a command
    # that needed one would exit nonzero or leave a name in the record.
    # analyze --jobs 1 and build-norms load neither numpy nor multiprocessing;
    # stats loads numpy, and no command loads scipy.
    idx, sc = write_stats_csvs(tmp_path)
    report = tmp_path / "r.txt"
    finder = """
import sys

class Block:
    def __init__(self, *blocked):
        self.blocked = blocked
        self.tried = []

    def find_spec(self, name, path=None, target=None):
        if name in self.blocked or name.split(".")[0] in self.blocked:
            self.tried.append(name)
            raise ImportError("blocked: " + name)
        return None
"""
    lean = f"""
block = Block("scipy", "numpy", "multiprocessing", "concurrent.futures.process")
sys.meta_path.insert(0, block)
from asc_toolkit import cli
runs = [
    ["analyze", "--input-dir", {str(frames_dir)!r}, "--output-csv", {str(tmp_path / "a.csv")!r},
     "--source", "demo", "--jobs", "1"],
    ["build-norms", "--corpus-dir", {str(frames_dir)!r}, "--out", {str(tmp_path / "n.tsv")!r}],
]
for args in runs:
    assert cli.main(args) == 0, args
print(block.tried, file=sys.stderr)
"""
    # What perfbench relies on: importing cli imports stats (its -X importtime
    # probe) and binds the stats functions its tracer wraps in cli's namespace.
    fit = f"""
block = Block("scipy")
sys.meta_path.insert(0, block)
from asc_toolkit import cli
assert "asc_toolkit.stats" in sys.modules
stats = sys.modules["asc_toolkit.stats"]
for name in ("load_feature_matrix", "run_pipeline", "format_report"):
    assert getattr(cli, name) is getattr(stats, name), name
assert "numpy" not in sys.modules
args = ["stats", "--indices-csv", {str(idx)!r}, "--scores-csv", {str(sc)!r},
        "--report", {str(report)!r}]
assert cli.main(args) == 0, args
assert "numpy" in sys.modules
print(block.tried, file=sys.stderr)
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for script in (lean, fit):
        proc = subprocess.run(
            [sys.executable, "-c", finder + script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "[]"
    assert "Selected model (3 predictors, n = 200)" in report.read_text(encoding="utf-8")


def test_stats_without_numpy_is_one_error_line(tmp_path):
    # None in sys.modules hides numpy from the import system, as where it is not installed.
    idx, sc = write_stats_csvs(tmp_path)
    report = tmp_path / "r.txt"
    script = f"""
import sys
sys.modules["numpy"] = None
from asc_toolkit import cli
sys.exit(cli.main(["stats", "--indices-csv", {str(idx)!r}, "--scores-csv", {str(sc)!r},
                   "--report", {str(report)!r}]))
"""
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    want = "error: stats needs numpy, which is not installed: pip install numpy"
    assert proc.stderr.splitlines() == [want]
    assert not report.exists()


@pytest.mark.parametrize(
    "command, linked",
    [(command, linked) for linked in (False, True) for command in ("analyze", "build-norms", "stats")],
    ids=["analyze", "build-norms", "stats", "analyze-symlinks", "build-norms-symlinks", "stats-symlinks"],
)
def test_a_failed_write_leaves_every_output_as_it_was(frames_dir, tmp_path, capsys, command, linked):
    # Past RLIMIT_FSIZE a write fails with EFBIG, since Python ignores SIGXFSZ.
    # A limit of 0 still lets a file be cut to nothing, so an output written
    # in place would be emptied.  build-norms runs without --debug-tags: the
    # debug stream's buffer would fail first, and --out would not be reached.
    # linked: each output is a symlink, in a sibling directory, to a file
    # written before; the file keeps its bytes and the link stays a link.
    pytest.importorskip("resource")
    idx, sc = write_stats_csvs(tmp_path)

    def argv_into(out):
        return {
            "analyze": ["analyze", "--input-dir", str(frames_dir), "--source", "demo",
                        "--output-csv", str(out / "a.csv"), "--debug-tags", str(out / "a.tags")],
            "build-norms": ["build-norms", "--corpus-dir", str(frames_dir), "--out", str(out / "n.tsv")],
            "stats": ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc),
                      "--report", str(out / "r.txt")],
        }[command]

    real, links = tmp_path / "real", tmp_path / "links"
    real.mkdir()
    argv = argv_into(real)
    assert cli.main(argv) == 0
    capsys.readouterr()
    if linked:
        _link_each_file(real, links)
        argv = argv_into(links)
    before = _tree_bytes(tmp_path)
    script = f"""
import resource, sys
from asc_toolkit import cli
resource.setrlimit(resource.RLIMIT_FSIZE, (0, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main({argv!r}))
"""
    src = Path(cli.__file__).resolve().parents[1]
    # stderr is a pipe: the limit holds for every file the process writes.
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1] == "error: [Errno 27] File too large"
    assert _tree_bytes(tmp_path) == before  # every output as it was, and no .partial file
    if linked:
        assert all(p.is_symlink() for p in links.iterdir())


def test_analyze_with_no_file_analyzed_leaves_symlinked_outputs(tmp_path, capsys):
    inp = tmp_path / "in"
    inp.mkdir()
    (inp / "bad.conllu").write_text("1\tx\tx\n", encoding="utf-8")
    real, links = tmp_path / "real", tmp_path / "links"
    real.mkdir()
    (real / "out.csv").write_bytes(b"old csv\n")
    (real / "tags.tsv").write_bytes(b"old tags\n")
    _link_each_file(real, links)
    before = _tree_bytes(tmp_path)
    rc = cli.main(["analyze", "--input-dir", str(inp), "--source", "demo",
                   "--output-csv", str(links / "out.csv"), "--debug-tags", str(links / "tags.tsv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: no file could be analyzed"
    assert _tree_bytes(tmp_path) == before
    assert all(p.is_symlink() for p in links.iterdir())


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("stdout", ["pipe", "file", "unlinked-file", "file-by-a-link"])
@pytest.mark.parametrize("command", ["analyze", "build-norms", "stats"])
def test_an_output_to_dev_stdout_holds_that_output_alone(frames_dir, tmp_path, command, stdout):
    # /dev/stdout, or a link to it, is written directly, whatever stdout is, so
    # the caller reads the output back through the handle it passed.  Each
    # command prints its summary to stderr, so the output holds nothing else.
    idx, sc = write_stats_csvs(tmp_path)
    flag, argv = {
        "analyze": ("--output-csv", ["analyze", "--input-dir", str(frames_dir), "--source", "demo"]),
        "build-norms": ("--out", ["build-norms", "--corpus-dir", str(frames_dir)]),
        "stats": ("--report", ["stats", "--indices-csv", str(idx), "--scores-csv", str(sc)]),
    }[command]
    plain = tmp_path / "plain"
    assert cli.main([*argv, flag, str(plain)]) == 0
    dest = "/dev/stdout"
    if stdout == "file-by-a-link":
        dest = tmp_path / "to-stdout"
        dest.symlink_to("/dev/stdout")
    cmd = [sys.executable, "-m", "asc_toolkit.cli", *argv, flag, str(dest)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    before = sorted(p.name for p in tmp_path.iterdir())
    if stdout == "pipe":
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
        got = proc.stdout
    else:
        with (
            tempfile.TemporaryFile(dir=tmp_path)  # unlinked: no name to replace
            if stdout == "unlinked-file"
            else open(tmp_path / "stdout", "w+b")
        ) as fh:
            before = sorted(p.name for p in tmp_path.iterdir())
            proc = subprocess.run(cmd, env=env, stdout=fh, stderr=subprocess.PIPE, timeout=120)
            fh.seek(0)
            got = fh.read()
    assert proc.returncode == 0, proc.stderr
    assert got == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no file made or renamed


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("tags", ["/dev/stdout", "out"])
def test_dev_stdout_and_another_output_on_its_file_is_a_usage_error(frames_dir, tmp_path, tags):
    # Written directly, /dev/stdout still leads to the file behind it, which
    # no second output may name.
    cmd = [sys.executable, "-m", "asc_toolkit.cli", "analyze", "--input-dir", str(frames_dir),
           "--source", "demo", "--output-csv", "/dev/stdout", "--debug-tags", tags]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with open(tmp_path / "out", "w+b") as fh:
        proc = subprocess.run(cmd, cwd=tmp_path, env=env, stdout=fh, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert proc.returncode == 1
    want = "usage error: --output-csv and --debug-tags name the same file: /dev/stdout"
    assert proc.stderr.splitlines() == [want]
    assert (tmp_path / "out").read_bytes() == b""


@pytest.mark.parametrize(
    "which, lineno, text, column, problem",
    [
        ("indices", 3, "t1,nan,1", "alpha", "non-finite value 'nan'"),
        ("indices", 4, "t2,2,inf", "beta", "non-finite value 'inf'"),
        ("scores", 5, "t3,-inf", "score", "non-finite value '-inf'"),
        ("indices", 6, "t4,4,abc", "beta", "non-numeric value 'abc'"),
        ("scores", 7, "t1,7", "filename", "duplicate 't1' (first at line 3)"),
        ("indices", 8, "t2,1,1", "filename", "duplicate 't2' (first at line 4)"),
        ("indices", 1, "filename,alpha,alpha", "alpha", "duplicate column"),
        ("scores", 1, "filename,score,score", "score", "duplicate column"),
        ("indices", 9, "t7,1", "beta", "2 cells, expected 3"),
        ("indices", 10, "t8,1,2,3", "beta", "4 cells, expected 3"),
        ("scores", 9, "t7", "score", "1 cells, expected 2"),
        ("scores", 10, "t8,16,99", "score", "3 cells, expected 2"),
        ("indices", 1, "name,alpha,beta", None, "indices CSV lacks a 'filename' column"),
        ("scores", 1, "filename,grade", None, "scores CSV lacks column(s): score"),
        ("scores", 6, 't4,"5,12"', "score", "non-numeric value '5,12'"),
        ("scores", 8, "t6,n/a", "score", "non-numeric value 'n/a'"),
        # float() reads these three; a number in either CSV is ASCII with no "_".
        ("scores", 11, "t9,1_0", "score", "non-numeric value '1_0'"),
        ("indices", 11, "t9,9,\uff11\uff10", "beta", "non-numeric value '\uff11\uff10'"),
        ("indices", 12, "t10,\u0665,1", "alpha", "non-numeric value '\u0665'"),
        # The first bad cell of a row is named, whatever is wrong with a later one.
        ("indices", 13, "t11,x,1_0", "alpha", "non-numeric value 'x'"),
    ],
    ids=[
        "index-nan", "index-inf", "score-inf", "index-text", "score-dup", "index-dup",
        "index-dup-column", "score-dup-column", "index-short-row", "index-long-row",
        "score-short-row", "score-long-row", "index-no-filename-column", "score-no-score-column",
        "score-decimal-comma", "score-text", "score-underscore", "index-full-width",
        "index-arabic-indic", "index-text-before-underscore",
    ],
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
    # A header that lacks a column is named by its file alone.
    where = "" if column is None else f"line {lineno}, column {column!r}: "
    want = f"{paths[which]}: {where}{problem}"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize(
    "which, lineno", [("indices", 5), ("scores", 1)], ids=["indices-row", "scores-header"]
)
def test_stats_cell_past_the_csv_field_limit_names_file_and_line(tmp_path, capsys, which, lineno):
    # csv.reader refuses a cell longer than its field limit, which is kept.
    limit = csv.field_size_limit()
    lines = {
        "indices": ["filename,alpha"] + [f"t{i},{i}" for i in range(12)],
        "scores": ["filename,score"] + [f"t{i},{2 * i}" for i in range(12)],
    }
    lines[which][lineno - 1] += "1" * limit
    paths = {name: tmp_path / f"{name}.csv" for name in lines}
    for name, path in paths.items():
        path.write_text("\n".join(lines[name]) + "\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    report.write_bytes(b"old report\n")
    rc = cli.main(
        ["stats", "--indices-csv", str(paths["indices"]), "--scores-csv", str(paths["scores"]),
         "--report", str(report)]
    )
    assert rc == 2
    want = f"error: {paths[which]}: line {lineno}: field larger than field limit ({limit})"
    assert capsys.readouterr().err.splitlines()[-1] == want
    assert report.read_bytes() == b"old report\n"


def run_stats(tmp_path, indices, scores):
    """cli.main stats on the given CSV texts: (exit code, the CSV paths by name, report path)."""
    paths = {name: tmp_path / f"{name}.csv" for name in ("indices", "scores")}
    paths["indices"].write_text(indices, encoding="utf-8")
    paths["scores"].write_text(scores, encoding="utf-8")
    report = tmp_path / "r.txt"
    rc = cli.main(
        ["stats", "--indices-csv", str(paths["indices"]), "--scores-csv", str(paths["scores"]),
         "--report", str(report)]
    )
    return rc, paths, report


def test_stats_skips_blank_lines_and_counts_them_in_line_numbers(tmp_path, capsys):
    # Blank lines between rows, and one right before the first data row, are
    # skipped; a bad cell after them is named at its own line of the file.
    indices = ["filename,alpha,beta", ""] + [f"t{i},{i},{i % 3}" for i in range(6)]
    indices += ["", ""] + [f"t{i},{i},{i % 3}" for i in range(6, 12)]
    scores = ["filename,score", ""] + [f"t{i},{2 * i + i % 5}" for i in range(6)]
    scores += [""] + [f"t{i},{2 * i + i % 5}" for i in range(6, 12)]
    rc, _, report = run_stats(tmp_path, "\n".join(indices) + "\n", "\n".join(scores) + "\n")
    assert rc == 0
    assert "Correlations with score (12 texts)" in report.read_text(encoding="utf-8")
    bad = indices + ["", "t12,1,2", "t13,x,2"]
    rc, paths, _ = run_stats(tmp_path, "\n".join(bad) + "\n", "\n".join(scores) + "\n")
    assert rc == 2
    want = f"{paths['indices']}: line 19, column 'alpha': non-numeric value 'x'"
    assert want in capsys.readouterr().err
    # A row directly after a blank line is named at its own line too, not at
    # the blank line's.  csv.DictReader did the same: its fieldnames property,
    # read after the blank rows are skipped, sets line_num again.
    bad = indices + ["", "t12,x,2"]
    rc, paths, _ = run_stats(tmp_path, "\n".join(bad) + "\n", "\n".join(scores) + "\n")
    assert rc == 2
    want = f"{paths['indices']}: line 18, column 'alpha': non-numeric value 'x'"
    assert want in capsys.readouterr().err
    # t0 is first at line 3, right after the blank line 2.
    rc, paths, _ = run_stats(tmp_path, "\n".join(indices + ["t0,1,2"]) + "\n", "\n".join(scores) + "\n")
    assert rc == 2
    want = f"{paths['indices']}: line 17, column 'filename': duplicate 't0' (first at line 3)"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("which", ["indices", "scores"])
def test_stats_skips_blank_lines_before_the_header(tmp_path, capsys, which):
    lines = {
        "indices": ["filename,alpha,beta"] + [f"t{i},{i},{i % 3}" for i in range(12)],
        "scores": ["filename,score"] + [f"t{i},{2 * i + i % 5}" for i in range(12)],
    }

    def run(**changed):
        texts = {name: "\n".join(changed.get(name, rows)) + "\n" for name, rows in lines.items()}
        return run_stats(tmp_path, texts["indices"], texts["scores"])

    rc, _, report = run()
    assert rc == 0
    want = report.read_text(encoding="utf-8")
    blank_first = ["", ""] + lines[which]
    rc, _, report = run(**{which: blank_first})
    assert rc == 0
    assert report.read_text(encoding="utf-8") == want
    # Lines are still counted from the top of the file: the header is line 3
    # and t5 line 9.
    bad_row, column, problem = {
        "indices": ("t5,x,2", "alpha", "non-numeric value 'x'"),
        "scores": ("t5,inf", "score", "non-finite value 'inf'"),
    }[which]
    for lineno, column, problem, changed in [
        (9, column, problem, blank_first[:8] + [bad_row] + blank_first[9:]),
        (3, "filename", "duplicate column", ["", "", lines[which][0] + ",filename"] + blank_first[3:]),
    ]:
        rc, paths, _ = run(**{which: changed})
        assert rc == 2
        want_error = f"{paths[which]}: line {lineno}, column {column!r}: {problem}"
        assert want_error in capsys.readouterr().err


def test_stats_header_only_indices_csv_joins_no_row(tmp_path, capsys):
    scores = "filename,score\n" + "".join(f"t{i},{i}\n" for i in range(12))
    rc, paths, report = run_stats(tmp_path, "filename,alpha,beta\n", scores)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    # The join is said before the row check that stops the run, which names both CSVs.
    assert err == [
        "joined 0 of 0 indices rows: 0 with no scores row, 0 with a blank score; "
        "12 scores rows match no indices row",
        f"error: {paths['indices']}, {paths['scores']}: join produced only 0 rows (need >= 10)",
    ]
    assert not report.exists()


def test_stats_score_constant_over_the_joined_rows_names_both_csvs(tmp_path, capsys):
    # The scores vary, but not over the rows that join: a fault of neither file alone.
    indices = "filename,alpha\n" + "".join(f"t{i},{i % 5}\n" for i in range(12))
    scores = "filename,score\n" + "".join(f"t{i},3\n" for i in range(12)) + "u0,4\n"
    rc, paths, report = run_stats(tmp_path, indices, scores)
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {paths['indices']}, {paths['scores']}: constant vector: the score does not vary"
    )
    assert not report.exists()


def test_stats_says_what_its_join_left_out(tmp_path, capsys):
    rng = random.Random(3)
    rows = [(f"t{i}.conllu", i % 7, rng.gauss(0, 1), 2 * i + rng.gauss(0, 3)) for i in range(40)]
    indices = "filename,alpha,beta\n" + "".join(f"{f},{a},{b!r}\n" for f, a, b, _ in rows)
    # 8 scores rows name their text without its .conllu suffix.
    stripped = {f for f, *_ in rows[::5]}
    scores = "filename,score\n" + "".join(
        f"{f.removesuffix('.conllu') if f in stripped else f},{s!r}\n" for f, _, _, s in rows
    )
    rc, _, report = run_stats(tmp_path, indices, scores)
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "joined 32 of 40 indices rows: 8 with no scores row, 0 with a blank score; "
        "8 scores rows match no indices row",
        f"report -> {report}",
    ]
    text = report.read_text(encoding="utf-8")
    assert "Correlations with score (32 texts)" in text
    # The report is the one the 32 rows that join give by themselves.
    joined = "filename,alpha,beta\n" + "".join(
        f"{f},{a},{b!r}\n" for f, a, b, _ in rows if f not in stripped
    )
    assert run_stats(tmp_path, joined, scores)[0] == 0
    assert report.read_text(encoding="utf-8") == text
    capsys.readouterr()
    # A blank score leaves its indices row out too, and is counted apart.
    blanked = scores.replace(f"\n{rows[1][0]},{rows[1][3]!r}\n", f"\n{rows[1][0]},\n")
    assert run_stats(tmp_path, indices, blanked)[0] == 0
    assert capsys.readouterr().err.splitlines()[0] == (
        "joined 31 of 40 indices rows: 8 with no scores row, 1 with a blank score; "
        "8 scores rows match no indices row"
    )


def test_stats_indices_csv_with_only_filename_loads(tmp_path):
    indices = "filename\n" + "".join(f"t{i}\n" for i in range(12))
    scores = "filename,score\n" + "".join(f"t{i},{i}\n" for i in range(12))
    rc, _, report = run_stats(tmp_path, indices, scores)
    assert rc == 0
    text = report.read_text(encoding="utf-8")
    assert "Correlations with score (12 texts)" in text
    # No candidate: the model is the intercept alone, whose estimate is the mean score.
    assert "\nModel selection: 1 of 1 models " in text
    assert "\nSelected model (0 predictors, n = 12)\n" in text
    intercept = next(line for line in text.splitlines() if line.startswith("(Intercept) "))
    assert intercept.split()[1] == "5.5000"


def test_unknown_subcommand_flag_is_usage_error(capsys):
    assert cli.main(["analyze", "--nope"]) == 1


def _valid_run(command):
    """A valid run of command in one directory: its input files {name: bytes}, argv and outputs."""
    frames = Path(__file__).parent / "fixtures" / "frames"
    texts = {f"{stem}.conllu": (frames / f"{stem}.conllu").read_bytes() for stem in ("attr", "ditran")}
    if command == "analyze":
        table = (Path(cli.__file__).parent / "data" / "demo.tsv").read_bytes()
        argv = ["--input-dir", ".", "--source", "n.tsv", "--output-csv", "a.csv", "--debug-tags", "a.tags"]
        return {**texts, "n.tsv": table}, argv, ["a.csv", "a.tags"]
    if command == "build-norms":
        argv = ["--corpus-dir", ".", "--label", "x", "--out", "n.tsv", "--debug-tags", "n.tags"]
        return texts, argv, ["n.tsv", "n.tags"]
    rng = random.Random(0)
    rows = [(f"t{i}", rng.gauss(0, 1), rng.gauss(0, 1), i % 4) for i in range(30)]
    indices = "filename,alpha,beta,gamma\n" + "".join(f"{f},{a!r},{b!r},{c}\n" for f, a, b, c in rows)
    scores = "filename,score\n" + "".join(f"{f},{a + 0.5 * b!r}\n" for f, a, b, _ in rows)
    argv = ["--indices-csv", "ix.csv", "--scores-csv", "sc.csv", "--report", "r.txt"]
    return {"ix.csv": indices.encode(), "sc.csv": scores.encode()}, argv, ["r.txt"]


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["analyze", "build-norms", "stats"]),
    data=st.data(),
    # None cuts the file short there; a cell or line past csv's field limit is oversized.
    stray=st.sampled_from([None, b"\0", b"\r", b"1" * (csv.field_size_limit() + 1)])
    | st.binary(min_size=1, max_size=1),
)
def test_a_byte_level_fault_in_an_input_exits_0_or_2_naming_the_file(command, data, stray):
    # One input of a valid run is cut short or gets a stray byte.  The run
    # returns 0 or 2 and raises nothing; on 2 its last line names that input,
    # and every output keeps its bytes.
    files, argv, outputs = _valid_run(command)
    name = data.draw(st.sampled_from(sorted(files)), label="name")
    body = files[name]
    at = data.draw(st.integers(0, len(body)), label="at")
    mutated = body[:at] if stray is None else body[:at] + stray + body[at:]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for file, content in {**files, name: mutated}.items():
            (work / file).write_bytes(content)
        for out in outputs:
            (work / out).write_bytes(b"old " + out.encode())
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, *argv])
        finally:
            os.chdir(cwd)
        assert rc in (0, 2), err.getvalue()
        if rc == 2:
            assert name in err.getvalue().splitlines()[-1]
            for out in outputs:
                assert (work / out).read_bytes() == b"old " + out.encode()
