"""Statistical harness relating per-text indices to proficiency scores.

Pipeline: bivariate correlation filtering (with association-family pruning),
variance-inflation-factor pruning, all-subset AIC model selection, and an
OLS fit reporting averaged-over-orderings relative importance shares.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Guard for log(RSS/n) on numerically perfect fits.
_TINY_RSS = 1e-300

# Beyond this many candidates the search is forward+backward stepwise over
# visited models: the exhaustive scan's time and memory double with each
# candidate (0.05 s and a few MB at 18, over half a GB at 25).
MAX_EXHAUSTIVE = 18
MAX_CANDIDATES = 25

# LMG needs R^2 for every predictor subset; cap where 2^k stays cheap.
MAX_LMG_PREDICTORS = 15

# AIC selection reports every model within this distance of the best.
AIC_DELTA = 4.0

# The column that joins the indices CSV to the scores CSV.
JOIN_COLUMN = "filename"

# A column whose residual sum of squares, given the intercept and the columns
# already swept, is at most this share of its uncentered sum of squares adds
# nothing to the fit.  The scale is the uncentered one because a constant
# column's centered sum of squares is rounding noise; so a column whose spread
# is under about 1e-6 of its mean counts as constant.  _sweep_first applies it
# for pearson, VIF pruning, AIC selection and the OLS fit alike.
_SWEEP_TOL = 1e-12

_SOA_SUFFIXES = ("AvMI", "AvT", "AvDeltaPLemma", "AvDeltaPStructure")


@dataclass
class FeatureMatrix:
    """Named numeric features plus a target score, one row per text.

    Missing feature cells are None; the target is always present.  Rows with
    missing values in the columns a given operation uses are dropped there.
    names lists the columns in order.
    """

    ids: list[str]
    columns: dict[str, list[float | None]]
    target: list[float]
    names: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.names = list(self.columns)
        n = len(self.target)
        if len(self.ids) != n:
            raise ValueError("ids and target lengths disagree")
        for name, column in self.columns.items():
            if len(column) != n:
                raise ValueError(f"column {name} has wrong length")

    def n_rows(self) -> int:
        return len(self.target)

    def complete(self, names: list[str]) -> tuple[np.ndarray, np.ndarray, int]:
        """Listwise-complete design matrix over the given columns.

        Returns (X, y, n_dropped) where dropped rows had a missing value in
        at least one requested column.
        """
        sub = self.restrict(names)
        cols = [sub.columns[n] for n in names]
        x = np.array([[c[i] for c in cols] for i in range(sub.n_rows())], dtype=float)
        x = x.reshape(sub.n_rows(), len(names))
        return x, np.array(sub.target, dtype=float), self.n_rows() - sub.n_rows()

    def restrict(self, names: list[str]) -> "FeatureMatrix":
        """Submatrix with only listwise-complete rows over the given columns."""
        cols = [self.columns[n] for n in names]
        keep = [i for i in range(self.n_rows()) if all(c[i] is not None for c in cols)]
        return FeatureMatrix(
            ids=[self.ids[i] for i in keep],
            columns={n: [self.columns[n][i] for i in keep] for n in names},
            target=[self.target[i] for i in keep],
        )


def pearson(x, y) -> float:
    """Pearson product-moment correlation of two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("vectors must be one-dimensional and of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    ss = np.array([xc @ xc, yc @ yc])
    _, ok = _sweep_first(ss[:, None, None], np.array([x @ x, y @ y]))
    if not ok.all():
        raise ValueError("constant vector")
    sx, sy = np.sqrt(ss)
    return float((xc @ yc) / (sx * sy))


def soa_family(name: str) -> str | None:
    """Family key for association indices ('asc' aggregate or the type tag)."""
    for suffix in _SOA_SUFFIXES:
        if name == "asc" + suffix:
            return "asc"
        if name.endswith("_" + suffix):
            return name[: -len(suffix) - 1]
    return None


def bivariate_r(matrix: FeatureMatrix) -> dict[str, float | None]:
    """Per-feature correlation with the target, pairwise-complete.

    Features that cannot be assessed (fewer than 3 paired values, or zero
    variance on either side) get None.
    """
    out: dict[str, float | None] = {}
    for name in matrix.names:
        col = matrix.columns[name]
        pairs = [(v, t) for v, t in zip(col, matrix.target) if v is not None]
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        try:
            out[name] = pearson(xs, ys)
        except ValueError:
            out[name] = None
    return out


def bivariate_filter(r_by_name: dict[str, float | None], threshold: float = 0.10) -> list[str]:
    """Keep features with |r| >= threshold, then prune association families.

    r_by_name is bivariate_r of a matrix, in column order.  Within each
    association family (the four aggregate metrics form one family; each
    type-specific metric quadruple forms another) only the member most
    strongly correlated with the target survives.  Ties keep the earlier
    column.
    """
    passed = [n for n, r in r_by_name.items() if r is not None and abs(r) >= threshold]
    best_in_family: dict[str, str] = {}
    for n in passed:
        fam = soa_family(n)
        if fam is None:
            continue
        cur = best_in_family.get(fam)
        if cur is None or abs(r_by_name[n]) > abs(r_by_name[cur]):
            best_in_family[fam] = n
    return [
        n for n in passed
        if soa_family(n) is None or best_in_family[soa_family(n)] == n
    ]


def _cross(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred cross-products of [x, y]'s columns, and each x column's uncentered sum of squares.

    Centring first fits the intercept without the cancellation that sweeping
    it out of uncentered cross-products suffers when a mean is large against
    its spread.  The uncentered sums of squares scale the _SWEEP_TOL rule.
    """
    z = np.column_stack([x, y])
    z = z - z.mean(axis=0)
    return z.T @ z, (x * x).sum(axis=0)


def _sweep_first(stack: np.ndarray, scale: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit the first column of each cross-product matrix in a stack (Goodnight 1979).

    stack is (m, p, p); scale is the first column's uncentered sum of squares,
    one value or one per matrix.  Returns the (m, p - 1, p - 1) cross-products
    of the other columns left after the fit, and whether each pivot passed the
    _SWEEP_TOL rule.  A column whose pivot fails adds nothing to the fit: it is
    dropped without being swept, as a least-squares fit would ignore it.
    """
    pivot = stack[:, 0, 0]
    ok = pivot > _SWEEP_TOL * scale
    inv = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=ok)
    rest = stack[:, 1:, 1:]
    return rest - (stack[:, 1:, 0] * inv[:, None])[:, :, None] * stack[:, None, 0, 1:], ok


def vif_prune(
    matrix: FeatureMatrix,
    names: list[str] | None = None,
    limit: float = 5.0,
) -> list[str]:
    """Iteratively drop the feature with the largest variance inflation factor.

    Stops once all VIFs are below the limit or a single feature remains.
    Perfectly collinear (or constant) features have infinite VIF and go
    first; among ties the later column is dropped.
    """
    names = list(matrix.names if names is None else names)
    if len(names) < 2:
        return names
    cross, scale = _cross(*matrix.complete(names)[:2])
    keep = list(range(len(names)))
    while len(keep) >= 2:
        # Matrix i of the stack orders the kept columns with keep[i] last, so
        # sweeping the others leaves keep[i]'s residual sum of squares given them.
        order = np.array([[c for c in keep if c != j] + [j] for j in keep])
        stack = cross[order[:, :, None], order[:, None, :]]
        for step in range(len(keep) - 1):
            stack, _ = _sweep_first(stack, scale[order[:, step]])
        _, ok = _sweep_first(stack, scale[keep])
        vifs = np.full(len(keep), math.inf)
        np.divide(np.diag(cross)[keep], stack[:, 0, 0], out=vifs, where=ok)
        worst = len(keep) - 1 - int(np.argmax(vifs[::-1]))
        if vifs[worst] < limit:
            break
        del keep[worst]
    return [names[j] for j in keep]


def aic(n: int, rss: float, k: int) -> float:
    """Gaussian AIC with intercept and error variance counted: n ln(RSS/n) + 2(k+2)."""
    return n * math.log(max(rss, _TINY_RSS) / n) + 2 * (k + 2)


@dataclass
class AicSelection:
    best: tuple[str, ...]
    best_aic: float
    # All inspected subsets within AIC_DELTA of the minimum, best first.
    candidates: list[tuple[tuple[str, ...], float]]
    n_obs: int
    n_models: int
    exhaustive: bool


def _subset_rss(cross: np.ndarray, scale: np.ndarray, mask: int) -> float:
    """RSS of the intercept-plus-S fit for one bit mask S over _cross(x, y), column by column."""
    cols = [j for j in range(len(scale)) if mask >> j & 1]
    idx = cols + [len(scale)]
    stack = cross[np.ix_(idx, idx)][None]
    for j in cols:
        stack, _ = _sweep_first(stack, scale[j])
    return max(float(stack[0, 0, 0]), 0.0)


def _subset_sizes(k: int) -> np.ndarray:
    """Number of set bits of every mask 0 .. 2^k - 1, indexed by mask."""
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        sizes = np.concatenate([sizes, sizes + 1])
    return sizes


def _all_subset_rss(cross: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """RSS of the intercept-plus-S least-squares fit for every bit mask S, indexed by mask.

    cross and scale are _cross(x, y) for x = [x_0 .. x_{k-1}]; bit j of a mask
    selects x_j.  One sweep down the subset lattice (Goodnight 1979): before
    step j, stack[m] holds the cross-products of x_j .. x_{k-1} and y left
    after fitting the intercept and the subset m of x_0 .. x_{j-1}.  Step j
    drops x_j from each (the masks without bit j) and sweeps on it (the masks
    with bit j), and stacks the halves in that order.  Where x_j adds nothing,
    _sweep_first does not sweep it, so the subset with it keeps the RSS of the
    subset without it.  The largest stacked array holds 2^(k-2) x 3 x 3 floats
    (4.7 MB at k = 18).
    """
    stack = cross[None]
    for s in scale:
        swept, _ = _sweep_first(stack, s)
        stack = np.concatenate([stack[:, 1:, 1:], swept])
    return np.maximum(stack[:, 0, 0], 0.0)


def aic_select(matrix: FeatureMatrix, names: list[str] | None = None) -> AicSelection:
    """Best-subset selection by AIC, returning every model within AIC_DELTA of the best.

    Exhaustive over all 2^k subsets for k <= MAX_EXHAUSTIVE; beyond that the
    search is the union of models visited by greedy forward selection and
    backward elimination.  Ties for best go to the smaller model.
    """
    names = list(matrix.names if names is None else names)
    if len(names) > MAX_CANDIDATES:
        raise ValueError(f"too many candidate features ({len(names)} > {MAX_CANDIDATES})")
    x, y, _ = matrix.complete(names)
    n = len(y)
    if n < 3:
        raise ValueError("need at least 3 complete rows")
    cross, scale = _cross(x, y)
    k = len(names)

    exhaustive = k <= MAX_EXHAUSTIVE
    if exhaustive:
        rss = _all_subset_rss(cross, scale)
        screen = n * np.log(np.maximum(rss, _TINY_RSS) / n) + 2 * (_subset_sizes(k) + 2)
        # np.log and math.log may differ in the last bit: the margin keeps
        # every model within AIC_DELTA, and aic() then scores those exactly.
        near = np.flatnonzero(screen - screen.min() < AIC_DELTA + 1e-6).tolist()
        scored = {m: aic(n, float(rss[m]), m.bit_count()) for m in near}
        n_models = 1 << k
    else:
        scored = _stepwise_scan(k, lambda m: aic(n, _subset_rss(cross, scale, m), m.bit_count()))
        n_models = len(scored)

    by_subset = {tuple(j for j in range(k) if m >> j & 1): v for m, v in scored.items()}
    best_subset = min(by_subset, key=lambda s: (by_subset[s], len(s), s))
    best_aic = by_subset[best_subset]
    within = sorted(
        ((s, v) for s, v in by_subset.items() if v - best_aic < AIC_DELTA),
        key=lambda item: (item[1], len(item[0]), item[0]),
    )
    to_names = lambda s: tuple(names[j] for j in s)
    return AicSelection(
        best=to_names(best_subset),
        best_aic=best_aic,
        candidates=[(to_names(s), v) for s, v in within],
        n_obs=n,
        n_models=n_models,
        exhaustive=exhaustive,
    )


def _stepwise_scan(k: int, score: Callable[[int], float]) -> dict[int, float]:
    """Greedy forward and backward passes over bit masks; every visited model is scored.

    score maps a mask to its AIC.  Returns the AIC of every visited mask.
    """
    scored: dict[int, float] = {}

    def best_of(step: list[int]) -> tuple[int, float]:
        for m in step:
            if m not in scored:
                scored[m] = score(m)
        cand = min(step, key=scored.__getitem__)
        return cand, scored[cand]

    full = (1 << k) - 1
    current, best = best_of([0])
    while current != full:
        cand, value = best_of([current | 1 << j for j in range(k) if not current >> j & 1])
        if value >= best:
            break
        current, best = cand, value
    current, best = best_of([full])
    while current:
        cand, value = best_of([current & ~(1 << j) for j in range(k) if current >> j & 1])
        if value >= best:
            break
        current, best = cand, value
    return scored


@dataclass
class RegressionSummary:
    """OLS fit with per-predictor inference and relative importance shares."""

    predictors: list[str]  # excludes the intercept
    estimates: dict[str, float]  # keyed by predictor or "(Intercept)"
    std_errors: dict[str, float]
    t_values: dict[str, float]
    p_values: dict[str, float]
    lmg_shares: dict[str, float] | None  # sum to r_squared; None if k > cap
    r_squared: float
    adj_r_squared: float
    residual_se: float
    f_statistic: float | None
    f_p_value: float | None
    df_model: int
    df_resid: int
    n_obs: int


def ols_fit(matrix: FeatureMatrix, names: list[str] | None = None) -> RegressionSummary:
    """Least-squares fit of the target on the named features plus an intercept."""
    # Imported here so that commands which never fit a model skip loading it.
    from scipy.special import fdtrc, stdtr

    names = list(matrix.names if names is None else names)
    x, y, _ = matrix.complete(names)
    n, k = x.shape
    if n <= k + 1:
        raise ValueError(f"need more than {k + 1} complete rows, got {n}")
    cross, scale = _cross(x, y)
    # A column that adds nothing given the intercept and the columns before it.
    stack, dependent = cross[None], []
    for j, name in enumerate(names):
        stack, ok = _sweep_first(stack, scale[j])
        if not ok[0]:
            dependent.append(name)
    if dependent:
        raise ValueError("rank-deficient design; collinear columns: " + ", ".join(dependent))
    _, ok = _sweep_first(cross[None, -1:, -1:], y @ y)
    if not ok[0]:
        raise ValueError("constant vector")
    a = np.column_stack([np.ones(n), x])
    beta, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ beta
    rss = float(resid @ resid)
    tss = float(cross[-1, -1])
    df_resid = n - k - 1
    sigma2 = rss / df_resid
    cov = np.linalg.inv(a.T @ a) * sigma2
    se = np.sqrt(np.diag(cov))
    t_vals = beta / se
    p_vals = 2.0 * stdtr(df_resid, -np.abs(t_vals))
    r2 = 1.0 - rss / tss
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df_resid
    if k > 0:
        f_stat = (r2 / k) / ((1.0 - r2) / df_resid) if r2 < 1.0 else math.inf
        f_p = float(fdtrc(k, df_resid, f_stat)) if math.isfinite(f_stat) else 0.0
    else:
        f_stat = None
        f_p = None
    labels = ["(Intercept)"] + names
    if 1 <= k <= MAX_LMG_PREDICTORS:
        shares = _lmg_shares(cross, scale, names)
    else:
        shares = None
    return RegressionSummary(
        predictors=names,
        estimates={lab: float(b) for lab, b in zip(labels, beta)},
        std_errors={lab: float(s) for lab, s in zip(labels, se)},
        t_values={lab: float(t) for lab, t in zip(labels, t_vals)},
        p_values={lab: float(p) for lab, p in zip(labels, p_vals)},
        lmg_shares=shares,
        r_squared=r2,
        adj_r_squared=adj_r2,
        residual_se=math.sqrt(sigma2),
        f_statistic=f_stat,
        f_p_value=f_p,
        df_model=k,
        df_resid=df_resid,
        n_obs=n,
    )


def _lmg_shares(cross: np.ndarray, scale: np.ndarray, names: list[str]) -> dict[str, float]:
    """Average R^2 contribution of each predictor over all entry orderings.

    cross and scale are _cross(x, y) for the named predictors x; the total
    sum of squares of y is cross[-1, -1].  Computed
    subset-wise: share_j = sum over subsets S not containing j of
    |S|!(k-|S|-1)!/k! * (R^2(S+j) - R^2(S)).  Shares sum to the full-model
    R^2 exactly (up to float accumulation).
    """
    k = len(names)
    r2 = 1.0 - _all_subset_rss(cross, scale) / cross[-1, -1]
    sizes = _subset_sizes(k)

    fact = [math.factorial(i) for i in range(k + 1)]
    weight = np.array([fact[s] * fact[k - 1 - s] / fact[k] for s in range(k)])
    shares: dict[str, float] = {}
    for j in range(k):
        # Viewed as (2^(k-j-1), 2, 2^j), the middle axis is bit j: index 0
        # holds the masks without predictor j, index 1 the same masks with it.
        r2_j = r2.reshape(-1, 2, 1 << j)
        size_j = sizes.reshape(-1, 2, 1 << j)[:, 0, :]
        shares[names[j]] = float(np.sum(weight[size_j] * (r2_j[:, 1, :] - r2_j[:, 0, :])))
    return shares


# ---------------------------------------------------------------------------
# CSV input and the end-to-end pipeline used by the command-line interface.


def _csv_error(path: str | Path, line: int, column: str, problem: str) -> ValueError:
    return ValueError(f"{path}: line {line}, column {column!r}: {problem}")


def _keyed_rows(
    reader: csv.DictReader, path: str | Path
) -> Iterator[tuple[int, str, dict[str, str]]]:
    """(line, key, row) for each data row; a key seen twice is an error naming both lines."""
    first_line: dict[str, int] = {}
    for row in reader:
        key = row[JOIN_COLUMN]
        if key in first_line:
            problem = f"duplicate {key!r} (first at line {first_line[key]})"
            raise _csv_error(path, reader.line_num, JOIN_COLUMN, problem)
        first_line[key] = reader.line_num
        yield reader.line_num, key, row


def _index_value(text: str | None, path: str | Path, line: int, column: str) -> float | None:
    """An indices cell: blank means missing; anything else must be a finite number."""
    if text is None or text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise _csv_error(path, line, column, f"non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise _csv_error(path, line, column, f"non-finite value {text!r}")
    return value


def load_feature_matrix(
    indices_csv: str | Path,
    scores_csv: str | Path,
    score_column: str = "score",
    composite_of: list[str] | None = None,
) -> FeatureMatrix:
    """Join an indices CSV with a scores CSV on JOIN_COLUMN (filename).

    The target is either a single score column or the mean of the listed
    composite columns.  Rows without a usable score (blank or non-numeric)
    are excluded; a blank index cell is missing.  A duplicate filename, a
    non-numeric index cell, or a nan or inf cell in either file is a
    ValueError naming the file, the line and the column.  Both files may
    start with a UTF-8 byte order mark.
    """
    scores: dict[str, float] = {}
    with open(scores_csv, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or JOIN_COLUMN not in reader.fieldnames:
            raise ValueError(f"scores CSV lacks a {JOIN_COLUMN!r} column")
        wanted = composite_of if composite_of else [score_column]
        missing = [c for c in wanted if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"scores CSV lacks column(s): {', '.join(missing)}")
        for line, key, row in _keyed_rows(reader, scores_csv):
            try:
                vals = [float(row[c]) for c in wanted]
            except (TypeError, ValueError):
                continue
            for c, v in zip(wanted, vals):
                if not math.isfinite(v):
                    raise _csv_error(scores_csv, line, c, f"non-finite value {row[c]!r}")
            scores[key] = sum(vals) / len(vals)

    ids: list[str] = []
    target: list[float] = []
    columns: dict[str, list[float | None]] = {}
    with open(indices_csv, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or JOIN_COLUMN not in reader.fieldnames:
            raise ValueError(f"indices CSV lacks a {JOIN_COLUMN!r} column")
        feature_names = [c for c in reader.fieldnames if c != JOIN_COLUMN]
        columns = {n: [] for n in feature_names}
        for line, key, row in _keyed_rows(reader, indices_csv):
            values = [_index_value(row[n], indices_csv, line, n) for n in feature_names]
            if key not in scores:
                continue
            ids.append(key)
            target.append(scores[key])
            for n, value in zip(feature_names, values):
                columns[n].append(value)
    return FeatureMatrix(ids=ids, columns=columns, target=target)


@dataclass
class PipelineResult:
    n_rows: int
    r_threshold: float
    vif_limit: float
    r_by_name: dict[str, float | None]
    filtered: list[str]  # survivors of the bivariate filter
    n_dropped_missing: int
    vif_kept: list[str]
    selection: AicSelection | None
    summary: RegressionSummary | None
    notes: list[str] = field(default_factory=list)


def run_pipeline(
    matrix: FeatureMatrix,
    r_threshold: float = 0.10,
    vif_limit: float = 5.0,
) -> PipelineResult:
    """Filter, prune, select and fit; mirrors the reporting workflow end to end."""
    if len(set(matrix.target)) < 2:
        raise ValueError("constant vector")
    r_by_name = bivariate_r(matrix)
    filtered = bivariate_filter(r_by_name, r_threshold)
    notes: list[str] = []
    # Listwise completion can starve the model when sparse per-type indices
    # pass the filter; exclude the sparsest candidates until enough complete
    # rows remain for the largest possible model.
    modeling = list(filtered)
    excluded_sparse: list[str] = []
    missing = {n: matrix.columns[n].count(None) for n in filtered}
    complete = matrix.restrict(modeling)
    while modeling and complete.n_rows() < max(3, len(modeling) + 2):
        worst = max(modeling, key=lambda n: (missing[n], modeling.index(n)))
        modeling.remove(worst)
        excluded_sparse.append(worst)
        complete = matrix.restrict(modeling)
    if excluded_sparse:
        notes.append(
            "excluded as too sparse to model: " + ", ".join(excluded_sparse)
        )
    vif_kept: list[str] = []
    selection = summary = None
    if not filtered:
        notes.append("no feature passed the bivariate filter; intercept-only model")
    elif not modeling:
        notes.append("no candidate feature had enough complete rows; no model fitted")
    else:
        vif_kept = vif_prune(complete, limit=vif_limit)
        if len(vif_kept) < len(modeling):
            dropped = [n for n in modeling if n not in vif_kept]
            notes.append("dropped for collinearity: " + ", ".join(dropped))
        selection = aic_select(complete, vif_kept)
        if not selection.exhaustive:
            notes.append(
                f"subset search was stepwise (forward+backward) over {selection.n_models} models"
            )
        summary = ols_fit(complete, list(selection.best))
    return PipelineResult(
        n_rows=matrix.n_rows(),
        r_threshold=r_threshold,
        vif_limit=vif_limit,
        r_by_name=r_by_name,
        filtered=filtered,
        # restrict([]) keeps every row, so no model means no drop
        n_dropped_missing=matrix.n_rows() - complete.n_rows(),
        vif_kept=vif_kept,
        selection=selection,
        summary=summary,
        notes=notes,
    )


def _fmt_p(p: float) -> str:
    return "<.001" if p < 0.001 else f"{p:.3f}".lstrip("0")


def format_report(result: PipelineResult) -> str:
    """Plain-text report: correlation table plus the selected-model summary."""
    lines: list[str] = []
    lines.append(f"Correlations with score ({result.n_rows} texts)")
    lines.append("-" * 58)
    lines.append(f"{'index':<28} {'r':>8}  kept")
    for name in result.r_by_name:
        r = result.r_by_name[name]
        r_txt = f"{r:>8.3f}" if r is not None else f"{'--':>8}"
        kept = "yes" if name in result.filtered else ""
        lines.append(f"{name:<28} {r_txt}  {kept}")
    lines.append("")
    lines.append(
        f"Bivariate filter |r| >= {result.r_threshold:g} with per-family pruning: "
        f"{len(result.filtered)} retained"
    )
    lines.append(f"Rows dropped for missing values: {result.n_dropped_missing}")
    if result.selection is not None:
        lines.append(
            f"Collinearity pruning (VIF < {result.vif_limit:g}): "
            f"{len(result.vif_kept)} candidates entered model selection"
        )
        lines.append(
            f"Model selection: {len(result.selection.candidates)} of "
            f"{result.selection.n_models} models within delta-AIC < {AIC_DELTA:g} "
            f"(best AIC = {result.selection.best_aic:.3f})"
        )
    for note in result.notes:
        lines.append(f"Note: {note}")
    lines.append("")
    summary = result.summary
    if summary is None:
        lines.append("No model fitted.")
        return "\n".join(lines) + "\n"
    lines.append(f"Selected model ({summary.df_model} predictors, n = {summary.n_obs})")
    lines.append("-" * 72)
    lines.append(
        f"{'predictor':<28} {'estimate':>10} {'SE':>9} {'t':>8} {'p':>7} {'rel.imp(%)':>11}"
    )
    for label in ["(Intercept)"] + summary.predictors:
        est = summary.estimates[label]
        se = summary.std_errors[label]
        t = summary.t_values[label]
        p = _fmt_p(summary.p_values[label])
        if summary.lmg_shares is not None and label in summary.lmg_shares and summary.r_squared > 0:
            imp = f"{100.0 * summary.lmg_shares[label] / summary.r_squared:>11.1f}"
        else:
            imp = f"{'--':>11}"
        lines.append(f"{label:<28} {est:>10.4f} {se:>9.4f} {t:>8.2f} {p:>7} {imp}")
    fit = (
        f"R^2 = {summary.r_squared:.3f} (adj. {summary.adj_r_squared:.3f}); "
        f"residual SE = {summary.residual_se:.3f}"
    )
    if summary.f_statistic is not None:
        fit += (
            f"; F({summary.df_model}, {summary.df_resid}) = {summary.f_statistic:.1f}, "
            f"p {_fmt_p(summary.f_p_value)}"
        )
    lines.append(fit)
    return "\n".join(lines) + "\n"
