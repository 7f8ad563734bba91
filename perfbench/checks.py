"""Output checks made apart from the program.

Each check compares a command's output with what the benchmark planted in
its inputs, recomputed here from the definitions, or with properties the
method must have.  Nothing here imports ``asc_toolkit``; a check raises
CheckFailed naming the first disagreement it finds.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from collections import Counter
from pathlib import Path

from inputs import ASC_TYPES, INDEX_NAMES, MATTR_WINDOW, SOA_METRICS

MIN_REF_FREQ = 5


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# analyze


class Norms:
    """A norm TSV read with the benchmark's own parser, marginals summed here."""

    def __init__(self, text: str):
        self.pairs: dict[tuple[str, str], int] = {}
        self.header: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                self.header[key] = value
            elif line:
                c, v, n = line.split("\t")
                self.pairs[(c, v)] = int(n)
        self.types: Counter = Counter()
        self.lemmas: Counter = Counter()
        for (c, v), n in self.pairs.items():
            self.types[c] += n
            self.lemmas[v] += n
        self.total = sum(self.pairs.values())


def naive_mattr(seq: list, w: int) -> float | None:
    """Mean type-token ratio over every w-wide window; None below w + 1 items."""
    n = len(seq)
    if n < w + 1:
        return None
    acc = 0.0
    for i in range(n - w + 1):
        acc += len(set(seq[i : i + w])) / w
    return acc / (n - w + 1)


def _share(num: int, den: int) -> float:
    # Follows the program's current rule that a conditional probability with
    # an empty conditioning set, such as P(construction | lemma) for a lemma
    # absent from the norm table, counts as 0.  That rule is a known fault
    # (the `dp_lemma` FOUND line in CHANGES.md): when dp_lemma leaves such a
    # ΔP missing, this must return None for it too.
    return num / den if den else 0.0


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def expected_indices(planted: list, norms: Norms) -> dict[str, float | None]:
    """The 54 indices of one text, from its planted (construction, lemma) sequence."""
    tags = [p for p in planted if p is not None]
    n = len(tags)
    out: dict[str, float | None] = {
        "ascMATTR": naive_mattr([c for c, _ in tags], MATTR_WINDOW),
        "ascLemmaMATTR": naive_mattr(tags, MATTR_WINDOW),
        "ascLemmaMATTRNoBe": naive_mattr([p for p in tags if p[1] != "be"], MATTR_WINDOW),
    }
    per_type = Counter(c for c, _ in tags)
    for t in ASC_TYPES:
        out[f"{t}_Prop"] = per_type[t] / n if n else None
    out["ascAvFreq"] = _mean(
        [math.log(norms.types[c]) for c, _ in tags if norms.types[c] >= MIN_REF_FREQ]
    )
    out["ascLemmaAvFreq"] = _mean(
        [math.log(norms.pairs[p]) for p in tags if norms.pairs.get(p, 0) >= MIN_REF_FREQ]
    )
    scores: dict[str, list[tuple[str, float]]] = {m: [] for m in SOA_METRICS}
    for c, v in tags:
        a = norms.pairs.get((c, v), 0)
        b = norms.lemmas[v] - a
        cc = norms.types[c] - a
        d = norms.total - a - b - cc
        expected = (a + b) * (a + cc) / norms.total
        if a > 0:
            scores["MI"].append((c, math.log2(a / expected)))
            scores["T"].append((c, (a - expected) / math.sqrt(a)))
        scores["DeltaPLemma"].append((c, _share(a, a + b) - _share(cc, cc + d)))
        scores["DeltaPStructure"].append((c, _share(a, a + cc) - _share(b, b + d)))
    for m in SOA_METRICS:
        out[f"ascAv{m}"] = _mean([s for _, s in scores[m]])
    for t in ASC_TYPES:
        for m in SOA_METRICS:
            out[f"{t}_Av{m}"] = _mean([s for c, s in scores[m] if c == t])
    return out


def _agrees_to_6_digits(cell: str, value: float) -> bool:
    """Whether a '%.6g' cell is value rounded to 6 significant digits."""
    got = float(cell)
    scale = max(abs(got), abs(value))
    if scale == 0.0:
        return True
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(scale)) - 5)
    return abs(got - value) <= half_unit * (1 + 1e-9)


def check_analyze(csv_text: str, stderr_text: str, planted: dict[str, list], norms: Norms) -> int:
    """Every row and cell of an analyze CSV against the planted texts; returns rows checked."""
    n = len(planted)
    if f"analyzed {n} of {n} files, 0 warnings" not in stderr_text or "warning:" in stderr_text:
        raise CheckFailed(f"analyze did not report a clean run: {stderr_text.strip()[:300]}")
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["filename", *INDEX_NAMES]:
        raise CheckFailed("CSV header is not filename plus the 54 indices in canonical order")
    body = rows[1:]
    if [r[0] for r in body] != sorted(planted):
        raise CheckFailed(f"CSV has {len(body)} rows, expected one per text ({len(planted)}), sorted")
    for row in body:
        if len(row) != len(INDEX_NAMES) + 1:
            raise CheckFailed(f"{row[0]}: {len(row)} columns, expected {len(INDEX_NAMES) + 1}")
        expected = expected_indices(planted[row[0]], norms)
        for name, cell in zip(INDEX_NAMES, row[1:]):
            want = expected[name]
            if want is None or cell == "":
                if not (want is None and cell == ""):
                    raise CheckFailed(f"{row[0]} {name}: cell {cell!r}, expected {want!r}")
            elif not _agrees_to_6_digits(cell, want):
                raise CheckFailed(f"{row[0]} {name}: cell {cell}, expected {want!r}")
    return len(body)


# ---------------------------------------------------------------------------
# build-norms


def check_norms(tsv_text: str, planted: Counter) -> int:
    """Every pair count and #total of a written norm TSV; returns pairs checked."""
    norms = Norms(tsv_text)
    for key in ("source", "version", "total"):
        if key not in norms.header:
            raise CheckFailed(f"norm TSV lacks the #{key} header")
    if int(norms.header["total"]) != sum(planted.values()):
        raise CheckFailed(
            f"#total={norms.header['total']}, planted {sum(planted.values())} constructions"
        )
    for pair in sorted(set(planted) | set(norms.pairs)):
        if norms.pairs.get(pair, 0) != planted.get(pair, 0):
            raise CheckFailed(
                f"pair {pair}: count {norms.pairs.get(pair, 0)}, planted {planted.get(pair, 0)}"
            )
    return len(norms.pairs)


# ---------------------------------------------------------------------------
# stats

_MODELS = re.compile(
    r"^Model selection: \d+ of (\d+) models within delta-AIC < 4 \(best AIC = (\S+)\)$", re.M
)
_ENTERED = re.compile(r"^Collinearity pruning \(VIF < \S+\): (\d+) candidates entered", re.M)
_SELECTED = re.compile(r"^Selected model \((\d+) predictors, n = (\d+)\)$", re.M)
_JOINED = re.compile(r"^Correlations with score \((\d+) texts\)$", re.M)


def _report_sections(report: str):
    """Filter survivors, the features notes exclude, and the selected model's rel.imp column."""
    lines = report.splitlines()
    kept, selected = [], {}
    notes = {"sparse": [], "collinear": []}
    i = 3
    while i < len(lines) and lines[i]:
        fields = lines[i].split()
        if fields[-1] == "yes":
            kept.append(fields[0])
        i += 1
    for line in lines:
        for key, prefix in (
            ("collinear", "Note: dropped for collinearity: "),
            ("sparse", "Note: excluded as too sparse to model: "),
        ):
            if line.startswith(prefix):
                notes[key] += line[len(prefix):].split(", ")
    start = next((j for j, line in enumerate(lines) if line.startswith("predictor ")), None)
    if start is not None:
        for line in lines[start + 1 :]:
            if line.startswith("R^2 = "):
                break
            fields = line.split()
            selected[fields[0]] = None if fields[-1] == "--" else float(fields[-1])
    return kept, notes["sparse"], notes["collinear"], selected


def _complete_rows(indices_csv: str, scores_csv: str, names: list[str]):
    """Rows joined on filename and complete over names, as (X, y, rows joined)."""
    import numpy as np

    scores = {r["filename"]: float(r["score"]) for r in csv.DictReader(io.StringIO(scores_csv))}
    xs, ys, joined = [], [], 0
    for row in csv.DictReader(io.StringIO(indices_csv)):
        if row["filename"] not in scores:
            continue
        joined += 1
        cells = [row[n] for n in names]
        if all(cells):
            xs.append([float(c) for c in cells])
            ys.append(scores[row["filename"]])
    return np.array(xs, dtype=float).reshape(len(ys), len(names)), np.array(ys), joined


def _aic(x, y, cols: tuple[int, ...]) -> float:
    """Gaussian AIC of an intercept-plus-cols least-squares fit, by numpy.linalg.lstsq."""
    import numpy as np

    n = len(y)
    a = np.column_stack([np.ones(n)] + [x[:, j] for j in cols])
    beta = np.linalg.lstsq(a, y, rcond=None)[0]
    resid = y - a @ beta
    return n * math.log(float(resid @ resid) / n) + 2 * (len(cols) + 2)


def check_stats(
    report: str, indices_csv: str, scores_csv: str, planted: tuple[str, ...],
    candidates: tuple[str, ...], sample_seed: int, n_sample: int = 1000,
) -> int:
    """The selected model against an exhaustive-search oracle; returns subsets refitted."""
    models, entered, chosen, joined = (
        _MODELS.search(report), _ENTERED.search(report), _SELECTED.search(report),
        _JOINED.search(report),
    )
    if not (models and entered and chosen and joined):
        raise CheckFailed("report lacks the model-selection or selected-model lines")
    k = len(candidates)
    if int(models.group(1)) != 2 ** k or int(entered.group(1)) != k:
        raise CheckFailed(
            f"{entered.group(1)} candidates and {models.group(1)} models scored, "
            f"expected {k} and {2 ** k}"
        )
    kept, sparse, collinear, selected = _report_sections(report)
    modeling = [n for n in kept if n not in sparse]
    scanned = [n for n in modeling if n not in collinear]
    if sorted(scanned) != sorted(candidates):
        raise CheckFailed(f"features entering the AIC scan {scanned} are not the planted candidates")
    if len(selected) - 1 != int(chosen.group(1)):
        raise CheckFailed("selected-model table and its predictor count disagree")
    best = [n for n in selected if n != "(Intercept)"]
    if not set(planted) <= set(best):
        raise CheckFailed(f"planted predictors {sorted(set(planted) - set(best))} not selected")

    x_all, y, n_joined = _complete_rows(indices_csv, scores_csv, modeling)
    if n_joined != int(joined.group(1)):
        raise CheckFailed(f"report joined {joined.group(1)} rows, the inputs join {n_joined}")
    x = x_all[:, [modeling.index(n) for n in scanned]]
    if len(y) != int(chosen.group(2)):
        raise CheckFailed(f"model fitted on n = {chosen.group(2)}, {len(y)} complete rows")
    best_cols = tuple(sorted(scanned.index(n) for n in best))
    best_aic = _aic(x, y, best_cols)
    reported = float(models.group(2))
    if abs(best_aic - reported) > 5e-4 + 1e-9 * abs(best_aic):
        raise CheckFailed(f"reported best AIC {reported}, its refit gives {best_aic:.6f}")
    rng = random.Random(sample_seed)
    subsets = {tuple(sorted(set(best_cols) ^ {j})) for j in range(k)}
    while len(subsets) < min(n_sample + k, 2 ** k):
        subsets.add(tuple(j for j in range(k) if rng.random() < 0.5))
    for cols in sorted(subsets):
        other = _aic(x, y, cols)
        if other < best_aic - 1e-6:
            raise CheckFailed(
                f"subset {[scanned[j] for j in cols]} has AIC {other:.6f} < best {best_aic:.6f}"
            )
    shares = [v for n, v in selected.items() if n != "(Intercept)"]
    if None in shares or abs(sum(shares) - 100.0) > 0.05 * len(shares) + 1e-9:
        raise CheckFailed(f"relative importance sums to {sum(s or 0 for s in shares):.2f}%, not 100%")
    return len(subsets)


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")
