"""Tests of the benchmark's own generators, output checks and span accounting.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

from __future__ import annotations

import hashlib
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from asc_toolkit import cli  # noqa: E402


def _tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _stats_files(seed: int) -> dict[str, str]:
    data = inputs.stats_input(seed)
    return {"indices.csv": data.indices_csv, "scores.csv": data.scores_csv}


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: inputs.analyze_input(seed).files,
        lambda seed: inputs.norms_input(seed).files,
        _stats_files,
    ],
    ids=["analyze-2k", "norms-ref", "stats-k18"],
)
def test_generator_is_byte_identical_for_a_seed(generate, tmp_path):
    digests = []
    for run_dir, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.write_files(tmp_path / run_dir, generate(seed))
        digests.append(_tree_digest(tmp_path / run_dir))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _analyze(tmp_path: Path, capsys, n_texts: int = 40):
    data = inputs.analyze_input(11, n_texts=n_texts)
    inputs.write_files(tmp_path / "texts", data.files)
    out = tmp_path / "indices.csv"
    rc = cli.main(
        ["analyze", "--jobs", "1", "--source", "demo", "--input-dir", str(tmp_path / "texts"),
         "--output-csv", str(out)]
    )
    assert rc == 0
    norms = checks.Norms(checks.read(run.DEMO_NORMS))
    return out.read_text(encoding="utf-8"), capsys.readouterr().err, data.planted, norms


def test_analyze_check_accepts_output_and_rejects_one_changed_proportion(tmp_path, capsys):
    text, err, planted, norms = _analyze(tmp_path, capsys)
    assert checks.check_analyze(text, err, planted, norms) == 40

    lines = text.splitlines()
    column = lines[0].split(",").index("TRAN_S_Prop")
    row = lines[1].split(",")
    row[column] = format(float(row[column]) + 0.001, ".6g")
    corrupted = "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"
    with pytest.raises(checks.CheckFailed, match="TRAN_S_Prop"):
        checks.check_analyze(corrupted, err, planted, norms)


def test_analyze_check_rejects_a_filled_cell_where_the_index_is_undefined(tmp_path, capsys):
    text, err, planted, norms = _analyze(tmp_path, capsys)
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines[1:], 1) if ",," in line)
    lines[index] = lines[index].replace(",,", ",0,", 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_analyze("\n".join(lines) + "\n", err, planted, norms)


def test_norms_check_accepts_output_and_rejects_a_count_off_by_one(tmp_path, capsys):
    data = inputs.norms_input(11, n_files=3, mean_sentences=150)
    inputs.write_files(tmp_path / "ref", data.files)
    out = tmp_path / "norms.tsv"
    assert cli.main(["build-norms", "--corpus-dir", str(tmp_path / "ref"), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert checks.check_norms(text, data.pair_counts) == len(data.pair_counts)

    lines = text.splitlines()
    c, v, n = lines[5].split("\t")
    lines[5] = f"{c}\t{v}\t{int(n) + 1}"
    with pytest.raises(checks.CheckFailed, match=re.escape(f"('{c}', '{v}')")):
        checks.check_norms("\n".join(lines) + "\n", data.pair_counts)


@pytest.fixture
def stats_run(tmp_path):
    data = inputs.stats_input(11, n_rows=400, n_candidates=8)
    ix, sc, report = tmp_path / "ix.csv", tmp_path / "sc.csv", tmp_path / "report.txt"
    ix.write_text(data.indices_csv, encoding="utf-8")
    sc.write_text(data.scores_csv, encoding="utf-8")
    args = ["stats", "--indices-csv", str(ix), "--scores-csv", str(sc), "--report", str(report)]
    assert cli.main(args) == 0
    return data, report.read_text(encoding="utf-8")


def _check(data, report: str) -> int:
    return checks.check_stats(
        report, data.indices_csv, data.scores_csv, data.planted, data.candidates, 3
    )


def _with_extra_predictor(report: str, name: str) -> str:
    """The report with one more predictor in the selected model (rel.imp 0.0)."""
    lines = report.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("R^2 = "))
    lines.insert(at, f"{name:<28} {0.0:>10.4f} {1.0:>9.4f} {0.0:>8.2f} {'.999':>7} {0.0:>11.1f}")
    text = "\n".join(lines) + "\n"
    return re.sub(
        r"Selected model \((\d+) predictors",
        lambda m: f"Selected model ({int(m.group(1)) + 1} predictors",
        text,
    )


def test_stats_check_accepts_output_and_rejects_a_worse_model(stats_run):
    data, report = stats_run
    assert _check(data, report) == 2 ** len(data.candidates)  # every subset refitted
    best = set(checks._report_sections(report)[3]) - {"(Intercept)"}
    unused = next(n for n in data.candidates if n not in best)

    worse = _with_extra_predictor(report, unused)
    with pytest.raises(checks.CheckFailed, match="refit"):
        _check(data, worse)

    # The same worse model with its own true AIC reported: the search oracle
    # finds the subset that beats it.
    x, y, _ = checks._complete_rows(data.indices_csv, data.scores_csv, list(data.candidates))
    cols = tuple(sorted(data.candidates.index(n) for n in best | {unused}))
    consistent = re.sub(
        r"best AIC = \S+\)", f"best AIC = {checks._aic(x, y, cols):.3f})", worse
    )
    with pytest.raises(checks.CheckFailed, match="< best"):
        _check(data, consistent)


def test_layer_self_times_account_for_the_root_span():
    spans = [
        {"name": "cli.main", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "norms.build_norms", "parent": 0, "start": 1.0, "end": 9.0},
        {"name": "ingest.parse_conllu_file", "parent": 1, "start": 2.0, "end": 4.0,
         "counts": {"tokens": 7}},
        {"name": "tagger.tag_document", "parent": 1, "start": 4.0, "end": 5.0,
         "counts": {"tokens": 7, "tags": 2}},
        {"name": "norms.save_norms", "parent": 0, "start": 9.0, "end": 9.5},
    ]
    times, counts = run.layer_metrics(spans)
    assert times["cli.self_s"] == pytest.approx(1.5)
    assert times["norms.count_s"] == pytest.approx(5.0)
    assert times["ingest.busy_s"] == pytest.approx(2.0)
    assert sum(times.values()) == pytest.approx(10.0)
    assert counts["ingest.tokens"] == 7 and counts["tagger.tags"] == 2


@pytest.mark.parametrize(
    "child",
    [
        {"name": "norms.save_norms", "parent": 0, "start": 9.0, "end": 10.5},
        {"name": "norms.save_norms", "parent": 1, "start": 3.0, "end": 4.5},
    ],
    ids=["outside-its-parent", "overlapping-a-sibling"],
)
def test_layer_metrics_reject_a_span_tree_that_does_not_nest(child):
    spans = [
        {"name": "cli.main", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "norms.build_norms", "parent": 0, "start": 1.0, "end": 9.0},
        {"name": "ingest.parse_conllu_file", "parent": 1, "start": 2.0, "end": 4.0},
        child,
    ]
    with pytest.raises(RuntimeError):
        run.layer_metrics(spans)


@pytest.mark.parametrize("kind", sorted(run.PROBES))
def test_run_command_sees_the_exit_promptly_and_scales_by_the_probe(kind, tmp_path):
    sample = run.run_command(
        [sys.executable, "-c", "import time; time.sleep(0.3)"], tmp_path / "err", kind
    )
    assert sample.rc == 0
    assert 0.3 <= sample.raw_wall < 0.3 + 0.5
    assert sample.speed > 0
    assert sample.wall == pytest.approx(sample.raw_wall * sample.speed)
