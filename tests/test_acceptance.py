"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import corpusgen
from asc_toolkit import cli
from asc_toolkit.indices import INDEX_NAMES, mattr, mi, proportion_indices, t_score, dp_lemma, dp_structure
from asc_toolkit.ingest import parse_conllu, parse_conllu_file
from asc_toolkit.norms import ContingencyCells, build_norms, load_norms, save_norms
from asc_toolkit.stats import (
    FeatureMatrix,
    aic_select,
    bivariate_filter,
    bivariate_r,
    load_feature_matrix,
    ols_fit,
    run_pipeline,
)
from asc_toolkit.tagger import ASC_TYPES, AscToken, debug_lines, tag_document


def _ok(name):
    print(f"PASS: {name}")


def naive_mattr(seq, w):
    n = len(seq)
    if n < w + 1:
        return None
    acc = 0.0
    for i in range(n - w + 1):
        acc += len(set(seq[i : i + w])) / w
    return acc / (n - w + 1)


def test_mattr_oracle():
    """1,000 random sequences match the all-windows enumeration bitwise in < 5 s."""
    rng = random.Random(20240609)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 200)
        alphabet = rng.randint(1, 20)
        w = rng.randint(2, 15)
        seq = [rng.randrange(alphabet) for _ in range(n)]
        assert mattr(seq, w) == naive_mattr(seq, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _ok(f"MATTR oracle (1000 sequences, bitwise, {elapsed:.2f}s)")


def test_tagger_frame_suite(frames_dir):
    """Every frame fixture tags as expected; distractors yield zero tags."""
    expected = {
        "attr": "ATTR",
        "caus_mot": "CAUS_MOT",
        "ditran": "DITRAN",
        "intran_mot": "INTRAN_MOT",
        "intran_res": "INTRAN_RES",
        "intran_s": "INTRAN_S",
        "passive": "PASSIVE",
        "tran_res": "TRAN_RES",
        "tran_s": "TRAN_S",
    }
    total = 0
    for stem, asc_type in expected.items():
        doc = parse_conllu_file(frames_dir / f"{stem}.conllu")
        tags = tag_document(doc)
        assert len(doc.sentences) >= 3
        assert [t.asc_type for t in tags] == [asc_type] * len(doc.sentences), stem
        total += len(tags)
    distractors = parse_conllu_file(frames_dir / "distractors.conllu")
    assert len(distractors.sentences) >= 5
    assert tag_document(distractors) == []
    _ok(f"tagger frame suite ({total} framed sentences, {len(distractors.sentences)} distractors)")


def test_soa_hand_check():
    """Cells (8,2,2,88) and the independence case match hand arithmetic."""
    cells = ContingencyCells(8, 2, 2, 88)
    assert mi(cells) == 3.0
    assert abs(t_score(cells) - 2.474873734152916) <= 1e-9
    assert abs(dp_lemma(cells) - 0.7777777777777778) <= 1e-9
    assert abs(dp_structure(cells) - 0.7777777777777778) <= 1e-9
    independent = ContingencyCells(4, 4, 4, 4)  # a*N == (a+b)(a+c)
    assert abs(mi(independent)) <= 1e-12
    assert abs(t_score(independent)) <= 1e-12
    _ok("SOA hand-check (8,2,2,88) and independence")


def test_norm_build_oracle(tmp_path):
    """500-sentence norms equal a debug-stream recount; save/load is byte-stable."""
    corpus = corpusgen.make_corpus(seed=424242, n_sentences=500)
    doc = parse_conllu(corpus, source_id="synthetic-500")
    norm = build_norms([doc], "oracle")

    recount = Counter()
    for line in debug_lines(tag_document(doc)):
        _, _, _, asc_type, lemma = line.split("\t")
        recount[(asc_type, lemma)] += 1
    assert norm.pair_counts == dict(recount)
    assert norm.total == sum(recount.values())

    p1, p2 = tmp_path / "n1.tsv", tmp_path / "n2.tsv"
    save_norms(norm, p1)
    loaded = load_norms(p1)
    assert loaded.pair_counts == norm.pair_counts
    assert loaded.total == norm.total
    save_norms(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    _ok(f"norm-build oracle (500 sentences, {norm.total} tokens, byte-stable round trip)")


def test_proportion_simplex():
    """Nine proportions sum to 1 within 1e-12 on 200 random tagged documents."""
    rng = random.Random(77)
    for _ in range(200):
        tags = [
            AscToken(
                asc_type=rng.choice(ASC_TYPES),
                verb_token_id=1,
                verb_lemma="v",
                sentence_index=i,
                source_id="d",
            )
            for i in range(rng.randint(1, 60))
        ]
        props = proportion_indices(tags)
        assert len(props) == 9
        assert abs(sum(props.values()) - 1.0) <= 1e-12
    _ok("proportion simplex (200 random documents)")


def test_end_to_end_determinism(frames_dir, tmp_path):
    """analyze output is byte-identical across 3 runs and jobs in {1, 4}."""
    outputs = []
    for run in range(3):
        out = tmp_path / f"run{run}.csv"
        rc = cli.main(
            [
                "analyze",
                "--input-dir", str(frames_dir),
                "--output-csv", str(out),
                "--source", "demo",
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    out4 = tmp_path / "jobs4.csv"
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(frames_dir),
            "--output-csv", str(out4),
            "--source", "demo",
            "--jobs", "4",
        ]
    )
    assert rc == 0
    assert out4.read_bytes() == outputs[0]

    header = outputs[0].decode("utf-8").splitlines()[0].split(",")
    assert len(header) == 55
    assert header == ["filename", *INDEX_NAMES]
    _ok("end-to-end determinism (3 runs, jobs 1 and 4, 55-column header)")


def test_stats_recovery():
    """Planted y = 3a - 2b + e with 6 noise features is recovered in < 10 s."""
    start = time.perf_counter()
    rng = random.Random(2)
    n = 500
    a = [rng.gauss(0, 1) for _ in range(n)]
    b = [rng.gauss(0, 1) for _ in range(n)]
    eps = [rng.gauss(0, 1) for _ in range(n)]
    y = [3 * ai - 2 * bi + ei for ai, bi, ei in zip(a, b, eps)]
    columns = {"a": a, "b": b}
    for j in range(6):
        columns[f"noise{j}"] = [rng.gauss(0, 1) for _ in range(n)]
    matrix = FeatureMatrix(
        ids=[f"t{i}" for i in range(n)],
        columns=columns,
        target=y,
    )
    kept = bivariate_filter(bivariate_r(matrix), 0.10)
    assert "a" in kept and "b" in kept
    selection = aic_select(matrix, list(matrix.names))
    assert set(selection.best) == {"a", "b"}
    fit = ols_fit(matrix, list(selection.best))
    assert abs(fit.estimates["a"] - 3.0) <= 3 * fit.std_errors["a"]
    assert abs(fit.estimates["b"] + 2.0) <= 3 * fit.std_errors["b"]
    assert abs(sum(fit.lmg_shares.values()) - fit.r_squared) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(f"stats recovery (best model == planted set, {elapsed:.2f}s)")


def test_pipeline_shape_fidelity(tmp_path):
    """Planted diversity -> score signal survives the full analyze -> stats flow."""
    texts = tmp_path / "texts"
    texts.mkdir()
    rng = random.Random(515)
    n_texts, n_sentences = 50, 40
    diversities = []
    for i in range(n_texts):
        d = i / (n_texts - 1)
        diversities.append(d)
        (texts / f"text{i:03d}.conllu").write_text(
            corpusgen.make_diverse_text(seed=1000 + i, n_sentences=n_sentences, diversity=d),
            encoding="utf-8",
        )
    indices_csv = tmp_path / "indices.csv"
    rc = cli.main(
        [
            "analyze",
            "--input-dir", str(texts),
            "--output-csv", str(indices_csv),
            "--source", "demo",
        ]
    )
    assert rc == 0

    scores_csv = tmp_path / "scores.csv"
    with open(scores_csv, "w", encoding="utf-8") as fh:
        fh.write("filename,score\n")
        for i, d in enumerate(diversities):
            fh.write(f"text{i:03d}.conllu,{2.0 + 2.0 * d + rng.gauss(0, 0.15):.6f}\n")

    report = tmp_path / "report.txt"
    rc = cli.main(
        [
            "stats",
            "--indices-csv", str(indices_csv),
            "--scores-csv", str(scores_csv),
            "--report", str(report),
        ]
    )
    assert rc == 0
    assert report.exists()

    matrix = load_feature_matrix(indices_csv, scores_csv)
    result = run_pipeline(matrix)
    r_mattr = result.r_by_name["ascMATTR"]
    assert r_mattr is not None and r_mattr > 0.10
    assert "ascMATTR" in result.filtered
    assert result.summary is not None
    _ok(f"pipeline shape fidelity (ascMATTR r = {r_mattr:.3f}, filter passed, model fitted)")
