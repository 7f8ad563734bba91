"""Statistical harness relating per-text indices to proficiency scores.

Pipeline: bivariate correlation filtering (with association-family pruning),
variance-inflation-factor pruning, all-subset AIC model selection, and an
OLS fit reporting averaged-over-orderings relative importance shares.
"""

from __future__ import annotations

import csv
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import Iterator, Sequence

from .indices import soa_family

# numpy is imported inside each function that uses it, not here: cli imports
# this module at start-up, and analyze and build-norms never need numpy.

# Guard for log(RSS/n) on numerically perfect fits.
_TINY_RSS = 1e-300

# The widest subset lattice swept in one pass: its time and memory double with
# each column (0.05 s and a few MB at 18, over half a GB at 25).  AIC selection
# branches on the columns beyond it; LMG, which needs every subset of the
# model's predictors, is computed up to it.
MAX_LATTICE = 18
MAX_CANDIDATES = 25

# AIC selection reports every model within this distance of the best.
AIC_DELTA = 4.0

# The column that joins the indices CSV to the scores CSV.
JOIN_COLUMN = "filename"

# A column whose residual sum of squares, given the intercept and the columns
# already swept, is at most this share of its uncentered sum of squares adds
# nothing to the fit.  The scale is the uncentered one because a constant
# column's centered sum of squares is rounding noise; so a column whose spread
# is under about 1e-6 of its mean counts as constant.  _has_spread applies it
# for the score, pearson, VIF pruning, AIC selection and the OLS fit alike.
_SWEEP_TOL = 1e-12

# VIFs equal in exact arithmetic, such as the two of a pair of columns, may
# differ in their last bits; vif_prune counts VIFs within this share of the
# largest as tied.
_VIF_TIE = 1e-9

# _betainc's continued fraction stops once a step moves it by less than this
# share.  With one parameter at most 12.5 (d1 <= MAX_CANDIDATES), it takes
# under 100 terms at any sample size; the cap only bounds the loop.
_CF_EPS = 1e-15
_CF_TERMS = 10_000
# Where _log_beta takes Stirling's series: its first omitted term,
# 1/(1680 z^7), is then under 1e-17.
_STIRLING_MIN = 100.0


@dataclass
class FeatureMatrix:
    """Named numeric features plus a target score, one row per text.

    columns is a (len(names), rows) float array, NaN where a feature cell is
    missing; target is a float array with no missing value.  Rows with
    missing values in the columns a given operation uses are dropped there.

    The last three fields count what load_feature_matrix's join left out:
    indices rows with no scores row, indices rows whose score is blank, and
    scores rows that match no indices row.
    """

    ids: list[str]
    names: list[str]
    columns: np.ndarray
    target: np.ndarray
    no_scores_row: int = 0
    blank_score: int = 0
    unmatched_scores: int = 0

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.target):
            raise ValueError("ids and target lengths disagree")
        if self.columns.shape != (len(self.names), len(self.target)):
            raise ValueError("columns shape disagrees with names and target")

    def n_rows(self) -> int:
        return len(self.target)

    def complete(self, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) over the given columns, without rows missing any of them."""
        sub = self.restrict(names)
        return sub.columns.T, sub.target

    def restrict(self, names: list[str]) -> "FeatureMatrix":
        """Submatrix with only listwise-complete rows over the given columns.

        compress, unlike cols[:, keep], keeps the columns C-ordered: numpy
        sums in memory order, so the layout of complete's X sets _cross's bits.
        """
        import numpy as np
        cols = self.columns[[self.names.index(n) for n in names]]
        keep = ~np.isnan(cols).any(axis=0)
        return FeatureMatrix(
            ids=[self.ids[i] for i in np.flatnonzero(keep).tolist()],
            names=list(names),
            columns=cols.compress(keep, axis=1),
            target=self.target[keep],
        )


def pearson(x, y) -> float:
    """Pearson product-moment correlation of two equal-length vectors."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("vectors must be one-dimensional and of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    ss_x, ss_y = xc @ xc, yc @ yc
    if not (_has_spread(ss_x, x @ x) and _has_spread(ss_y, y @ y)):
        raise ValueError("constant vector")
    return float((xc @ yc) / (np.sqrt(ss_x) * np.sqrt(ss_y)))


def bivariate_r(matrix: FeatureMatrix) -> dict[str, float | None]:
    """Per-feature correlation with the target, pairwise-complete.

    Features that cannot be assessed (fewer than 3 paired values, or zero
    variance on either side) get None.
    """
    import numpy as np
    out: dict[str, float | None] = {}
    for name, col in zip(matrix.names, matrix.columns):
        keep = ~np.isnan(col)
        try:
            out[name] = pearson(col[keep], matrix.target[keep])
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
    best: dict[str, str] = {}  # family -> its strongest member so far
    for n in passed:
        fam = soa_family(n)
        if fam is not None and abs(r_by_name[n]) > abs(r_by_name[best.setdefault(fam, n)]):
            best[fam] = n
    # A name outside every family is its own best.
    return [n for n in passed if best.get(soa_family(n), n) == n]


def _cross(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centred cross-products of [x, y]'s columns, and each x column's uncentered sum of squares.

    Centring first fits the intercept without the cancellation that sweeping
    it out of uncentered cross-products suffers when a mean is large against
    its spread.  The uncentered sums of squares scale the _SWEEP_TOL rule.
    """
    import numpy as np
    z = np.column_stack([x, y])
    z = z - z.mean(axis=0)
    return z.T @ z, (x * x).sum(axis=0)


def _has_spread(
    centred_ss: float | np.ndarray, uncentred_ss: float | np.ndarray
) -> bool | np.ndarray:
    """The _SWEEP_TOL rule, elementwise: whether a column with these residual
    and uncentered sums of squares adds something to a fit."""
    return centred_ss > _SWEEP_TOL * uncentred_ss


def _sweep_first(stack: np.ndarray, scale: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit the first column of each cross-product matrix in a stack (Goodnight 1979).

    stack is (m, p, p); scale is the first column's uncentered sum of squares,
    one value or one per matrix.  Returns the (m, p - 1, p - 1) cross-products
    of the other columns left after the fit, and whether each pivot passed the
    _SWEEP_TOL rule.  A column whose pivot fails adds nothing to the fit: it is
    dropped without being swept, as a least-squares fit would ignore it.
    """
    import numpy as np
    pivot = stack[:, 0, 0]
    ok = _has_spread(pivot, scale)
    inv = np.divide(1.0, pivot, out=np.zeros_like(pivot), where=ok)
    rest = stack[:, 1:, 1:]
    return rest - (stack[:, 1:, 0] * inv[:, None])[:, :, None] * stack[:, None, 0, 1:], ok


def _sweep_all(cross: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Fit the first k = len(scale) columns of a cross-product matrix, keeping the inverse.

    cross is (p, p), as from _cross; scale holds the uncentered sums of
    squares of the k columns to fit.  cross is bordered with [I; 0] on the
    right and its transpose below, and _sweep_first sweeps the first k
    columns in turn (Goodnight 1979).  That leaves the (p, p) remainder
    [[R, -B'], [-B, -C^-1]]: C is the k fitted columns' cross-products, B
    (k x (p - k)) their coefficients on the other columns, and R what is left
    of those columns' cross-products after the fit.  Also returns the
    positions whose pivot failed the _SWEEP_TOL rule; such a column is not
    swept, and its row of B and its row and column of C^-1 are 0.
    """
    import numpy as np
    border = np.eye(len(cross), len(scale))
    stack = np.block([[cross, border], [border.T, np.zeros((len(scale),) * 2)]])[None]
    failed = []
    for j, s in enumerate(scale):
        stack, ok = _sweep_first(stack, s)
        if not ok[0]:
            failed.append(j)
    return stack[0], failed


def vif_prune(
    matrix: FeatureMatrix,
    names: list[str] | None = None,
    limit: float = 5.0,
) -> list[str]:
    """Iteratively drop the feature with the largest variance inflation factor.

    Stops once all VIFs are below the limit or a single feature remains.
    Perfectly collinear (or constant) features have infinite VIF and go
    first; VIFs within a relative _VIF_TIE of the largest count as tied,
    and among ties the later column is dropped.
    """
    import numpy as np
    names = list(matrix.names if names is None else names)
    cross, scale = _cross(*matrix.complete(names))
    keep = list(range(len(names)))
    while len(keep) >= 2:
        inverse, failed = _sweep_all(cross[np.ix_(keep, keep)], scale[keep])
        if failed:
            # The latest column of any exact dependency fails its pivot.
            del keep[failed[-1]]
            continue
        vifs = np.diag(cross)[keep] * -np.diag(inverse)
        if vifs.max() < limit:
            break
        del keep[int(np.flatnonzero(vifs >= (1.0 - _VIF_TIE) * vifs.max())[-1])]
    return [names[j] for j in keep]


def aic(n: int, rss: float, k: int) -> float:
    """Gaussian AIC with intercept and error variance counted: n ln(RSS/n) + 2(k+2)."""
    return n * math.log(max(rss, _TINY_RSS) / n) + 2 * (k + 2)


@dataclass
class AicSelection:
    best: tuple[str, ...]
    best_aic: float
    # All subsets within AIC_DELTA of the minimum, best first.
    candidates: list[tuple[tuple[str, ...], float]]
    n_models: int


def _subset_sizes(k: int) -> np.ndarray:
    """Number of set bits of every mask 0 .. 2^k - 1, indexed by mask."""
    import numpy as np
    sizes = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        sizes = np.concatenate([sizes, sizes + 1])
    return sizes


def _lattice(cross: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Cross-products left after fitting the intercept and each subset of the leading columns.

    cross is _cross(x, y) for x = [x_0 .. x_{k-1}]; scale holds the uncentered
    sums of squares of the leading columns x_0 .. x_{j-1} to fit, j <= k.
    Returns a (2^j, k-j+1, k-j+1) stack indexed by bit mask (bit i selects x_i):
    stack[m] holds the cross-products of x_j .. x_{k-1} and y left after
    fitting the intercept and the subset m.  One sweep down the subset lattice
    (Goodnight 1979): step i drops x_i from each matrix (the masks without
    bit i) and sweeps on it (the masks with bit i), and stacks the halves in
    that order.  Where x_i adds nothing, _sweep_first does not sweep it, so
    the subset with it keeps the fit of the subset without it.
    """
    import numpy as np
    stack = cross[None]
    for s in scale:
        swept, _ = _sweep_first(stack, s)
        stack = np.concatenate([stack[:, 1:, 1:], swept])
    return stack


def _all_subset_rss(cross: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """RSS of the intercept-plus-S least-squares fit for every bit mask S, indexed by mask.

    cross and scale are _cross(x, y); the lattice over every column of x
    leaves each subset's residual sum of squares of y.  The largest stacked
    array holds 2^(k-2) x 3 x 3 floats (4.7 MB at k = 18).
    """
    import numpy as np
    return np.maximum(_lattice(cross, scale)[:, 0, 0], 0.0)


def aic_select(matrix: FeatureMatrix, names: list[str] | None = None) -> AicSelection:
    """Best-subset selection by AIC over all 2^k subsets, returning every model within AIC_DELTA of the best.

    Ties for best go to the smaller model.  Beyond MAX_LATTICE candidates the
    lattice is swept over the first k - MAX_LATTICE columns only, which gives
    one branch per subset of them.  Each branch's matrix is a _cross over the
    other columns, so _all_subset_rss scores every model in it, bit for bit
    as one unbranched sweep would.  No model in a branch fits better than its
    largest one or has fewer predictors than its smallest one, which bounds
    the branch's AIC from below (leaps and bounds, Furnival & Wilson 1974).
    Branches are visited by ascending bound until a bound lies AIC_DELTA past
    the best model found.
    """
    import numpy as np
    names = list(matrix.names if names is None else names)
    if len(names) > MAX_CANDIDATES:
        raise ValueError(f"too many candidate features ({len(names)} > {MAX_CANDIDATES})")
    x, y = matrix.complete(names)
    n = len(y)
    if n < 3:
        raise ValueError("need at least 3 complete rows")
    cross, scale = _cross(x, y)
    k = len(names)

    lead = max(0, k - MAX_LATTICE)
    branches = _lattice(cross, scale[:lead])
    rest = scale[lead:]
    largest = branches
    for s in rest:
        largest, _ = _sweep_first(largest, s)
    lead_sizes = _subset_sizes(lead)
    bound = n * np.log(np.maximum(largest[:, 0, 0], _TINY_RSS) / n) + 2 * (lead_sizes + 2)
    sizes = _subset_sizes(k - lead)
    # np.log and math.log may differ in the last bit: the margin keeps every
    # model within AIC_DELTA, and aic() then scores those exactly.  No branch's
    # minimum lies below the global one, so the models near the running best
    # hold every model near the final best.
    margin = AIC_DELTA + 1e-6
    best = math.inf
    scored: dict[int, float] = {}
    for h in np.argsort(bound, kind="stable").tolist():
        if bound[h] >= best + margin:
            break
        rss = _all_subset_rss(branches[h], rest)
        screen = n * np.log(np.maximum(rss, _TINY_RSS) / n) + 2 * (sizes + lead_sizes[h] + 2)
        best = min(best, screen.min())
        for t in np.flatnonzero(screen - best < margin).tolist():
            m = h | t << lead
            scored[m] = aic(n, float(rss[t]), m.bit_count())

    # Ranked by AIC, then size, then column positions: the first is the best.
    ranked = sorted((v, m.bit_count(), [j for j in range(k) if m >> j & 1]) for m, v in scored.items())
    best_aic = ranked[0][0]
    candidates = [(tuple(names[j] for j in s), v) for v, _, s in ranked if v - best_aic < AIC_DELTA]
    return AicSelection(
        best=candidates[0][0],
        best_aic=best_aic,
        candidates=candidates,
        n_models=1 << k,
    )


@dataclass
class RegressionSummary:
    """OLS fit with per-predictor inference and relative importance shares."""

    predictors: list[str]  # excludes the intercept
    estimates: dict[str, float]  # keyed by predictor or "(Intercept)"
    std_errors: dict[str, float]
    t_values: dict[str, float]
    p_values: dict[str, float]
    lmg_shares: dict[str, float] | None  # sum to r_squared ({} at k = 0); None above MAX_LATTICE
    r_squared: float
    adj_r_squared: float
    residual_se: float
    f_statistic: float | None
    f_p_value: float | None
    df_model: int
    df_resid: int
    n_obs: int


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta function I_x(a, b), given x and its complement y = 1 - x.

    y is passed, not formed as 1 - x, which would lose its relative accuracy
    where it is small (a p near 1).  Lentz's continued fraction with a
    log-gamma prefactor (Press et al., Numerical Recipes, 3rd ed., 6.4); past
    (a + 1)/(a + b + 2), where the fraction converges slowly, it is taken on
    1 - I_y(b, a).  x <= 0 gives 0 and y <= 0 gives 1.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    # 1/(1 + d_1/(1 + d_2/(1 + ...))); the loop forms d_{2m} and d_{2m+1}.
    # `or` swaps an exactly zero denominator for a tiny one (Lentz's guard).
    # 1 + d_1 = 1 - (a + b) x/(a + 1) is formed from y, as ((a + 1) y + (1 - b) x)/(a + 1):
    # near the swap point it is about 2/(a + b), which the plain difference
    # would leave with a relative error of about (a + b) times the rounding.
    c, d = 1.0, (a + 1.0) / ((a + 1.0) * y + (1.0 - b) * x)
    h = d
    for m in range(1, _CF_TERMS):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / ((1.0 + num * d) or 1e-300)
            c = (1.0 + num / c) or 1e-300
            h *= c * d
        if abs(c * d - 1.0) < _CF_EPS:
            break
    # x^a y^b / (a B(a, b)) times the fraction, multiplied in logs so that
    # no factor underflows where the product does not.  The log of x or y
    # past 1/2 is log1p of minus the other: its own rounding would move
    # a log x by about a * 1e-16, too much at large df.
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    return math.exp(a * log_x + b * log_y - _log_beta(a, b) + math.log(h / a))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b), for a, b > 0.

    From _STIRLING_MIN on in the larger argument, a say, lgamma(a + b) -
    lgamma(a) is formed by Stirling's series, as (a - 1/2) log1p(b/a) +
    b log(a + b) - b plus the difference of the two series tails; taken as
    the difference of two lgamma values, it would cancel as a grows.
    """
    a, b = max(a, b), min(a, b)
    if a < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rise = (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
    return math.lgamma(b) - rise - _stirling_tail(a + b) + _stirling_tail(a)


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), within 1e-17 for z >= _STIRLING_MIN."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w / 1260.0)) / z


def _f_tail(f: float, d1: int, d2: int) -> float:
    """Upper tail of the F distribution on (d1, d2) degrees of freedom: I_x(d2/2, d1/2) at x = d2/(d2 + d1 f).

    The two-sided p of a t on df degrees of freedom is _f_tail(t * t, 1, df).
    A nan gives nan, and an f whose d1 f overflows gives 0.
    """
    s = d1 * f
    if math.isnan(s):
        return math.nan
    if s == math.inf:
        return 0.0
    return _betainc(d2 / 2, d1 / 2, d2 / (d2 + s), s / (d2 + s))


def ols_fit(matrix: FeatureMatrix, names: list[str] | None = None) -> RegressionSummary:
    """Least-squares fit of the target on the named features plus an intercept.

    A fit with no residual has SEs of 0: its t is then +-inf with a p of 0,
    or nan with a p of nan where the estimate is 0 too.
    """
    import numpy as np
    names = list(matrix.names if names is None else names)
    x, y = matrix.complete(names)
    n, k = x.shape
    if n <= k + 1:
        raise ValueError(f"need more than {k + 1} complete rows, got {n}")
    cross, scale = _cross(x, y)
    # rest is [[RSS, -slopes'], [-slopes, -C^-1]], C the predictors' centred
    # cross-products; a column fails if it adds nothing given the intercept
    # and the columns before it.
    rest, failed = _sweep_all(cross, scale)
    if failed:
        dependent = ", ".join(names[j] for j in failed)
        raise ValueError("rank-deficient design; collinear columns: " + dependent)
    if not _has_spread(cross[-1, -1], y @ y):
        raise ValueError("constant vector")
    slopes, inv, x_mean = -rest[1:, 0], -rest[1:, 1:], x.mean(axis=0)
    beta = np.concatenate([[y.mean() - x_mean @ slopes], slopes])
    rss = max(float(rest[0, 0]), 0.0)
    tss = float(cross[-1, -1])
    df_resid = n - k - 1
    sigma2 = rss / df_resid
    se = np.sqrt(sigma2 * np.concatenate([[1.0 / n + x_mean @ inv @ x_mean], np.diag(inv)]))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_vals = beta / se
    p_vals = [_f_tail(t * t, 1, df_resid) for t in t_vals.tolist()]
    r2 = 1.0 - rss / tss
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df_resid
    if k > 0:
        f_stat = (r2 / k) / ((1.0 - r2) / df_resid) if r2 < 1.0 else math.inf
        f_p = _f_tail(f_stat, k, df_resid)
    else:
        f_stat = None
        f_p = None
    labels = ["(Intercept)"] + names
    return RegressionSummary(
        predictors=names,
        estimates={lab: float(b) for lab, b in zip(labels, beta)},
        std_errors={lab: float(s) for lab, s in zip(labels, se)},
        t_values={lab: float(t) for lab, t in zip(labels, t_vals)},
        p_values=dict(zip(labels, p_vals)),
        lmg_shares=_lmg_shares(cross, scale, names) if k <= MAX_LATTICE else None,
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
    import numpy as np
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


@contextmanager
def _csv_rows(path: str | Path) -> Iterator:
    """A csv.reader over a UTF-8 file; a byte that is not UTF-8 is a ValueError naming it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield csv.reader(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _header(reader, path: str | Path, kind: str) -> list[str]:
    """The column names of a CSV, which must include JOIN_COLUMN and repeat none.

    They are the first row that is not blank; reader.line_num still counts
    the blank lines before it.
    """
    names = next(filter(None, reader), None)
    if names is None or JOIN_COLUMN not in names:
        raise ValueError(f"{path}: {kind} CSV lacks a {JOIN_COLUMN!r} column")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise _csv_error(path, reader.line_num, name, "duplicate column")
    return names


def _keyed_rows(reader, path: str | Path, names: list[str]) -> Iterator[tuple[int, str, list[str]]]:
    """(line, key, cells) for each data row under the header names, skipping blank lines.

    A row with fewer or more cells than the header is an error naming its
    line; a key seen twice is an error naming both lines.
    """
    key_at = names.index(JOIN_COLUMN)
    first_line: dict[str, int] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(names):
            column = names[min(len(row), len(names) - 1)]
            problem = f"{len(row)} cells, expected {len(names)}"
            raise _csv_error(path, reader.line_num, column, problem)
        key = row[key_at]
        if key in first_line:
            problem = f"duplicate {key!r} (first at line {first_line[key]})"
            raise _csv_error(path, reader.line_num, JOIN_COLUMN, problem)
        first_line[key] = reader.line_num
        yield reader.line_num, key, row


def _read_cells(path: str | Path, line: int, names: Sequence[str], cells: list[str]) -> list[float]:
    """A row's cells read as floats, NaN where blank; any other cell must be a finite number.

    A number is ASCII with no "_": float() would also read 1_0, full-width
    and Arabic-Indic digits.  The row is checked whole, and a cell by itself
    only in a row that fails.
    """
    joined = "".join(cells)
    if not joined.isascii() or "_" in joined:
        j = next(j for j, text in enumerate(cells) if not text.isascii() or "_" in text)
        _read_cells(path, line, names[:j], cells[:j])  # a bad cell before it is named first
        raise _csv_error(path, line, names[j], f"non-numeric value {cells[j]!r}")
    values = []
    for name, text in zip(names, cells):
        if not text:
            values.append(math.nan)
            continue
        try:
            value = float(text)
        except ValueError:
            raise _csv_error(path, line, name, f"non-numeric value {text!r}") from None
        if not math.isfinite(value):
            raise _csv_error(path, line, name, f"non-finite value {text!r}")
        values.append(value)
    return values


def load_feature_matrix(
    indices_csv: str | Path,
    scores_csv: str | Path,
    score_columns: Sequence[str] = ("score",),
) -> FeatureMatrix:
    """Join an indices CSV with a scores CSV on JOIN_COLUMN (filename).

    The target is the mean of the score_columns (at least one), added left
    to right.  A row with a blank score cell has no score and is excluded;
    a blank index cell is missing (NaN).  The matrix counts the rows the
    join left out.  A repeated column name, a row
    with fewer or more cells than its header, a duplicate filename, or a
    cell in either file that is neither blank nor a finite number (ASCII,
    no "_") is a ValueError naming the file, the line and the column.  Blank lines
    are skipped.  Both files are UTF-8 and may start with a byte order mark;
    a byte that is not UTF-8 is a ValueError naming the file.
    """
    if not score_columns:
        raise ValueError("no score column named")
    scores: dict[str, float] = {}
    blank: set[str] = set()  # filenames whose score is blank
    with _csv_rows(scores_csv) as reader:
        header = _header(reader, scores_csv, "scores")
        missing = [c for c in score_columns if c not in header]
        if missing:
            raise ValueError(f"{scores_csv}: scores CSV lacks column(s): {', '.join(missing)}")
        wanted_at = [header.index(c) for c in score_columns]
        for line, key, row in _keyed_rows(reader, scores_csv, header):
            cells = [row[j] for j in wanted_at]
            vals = _read_cells(scores_csv, line, score_columns, cells)
            if "" in cells:  # a blank score cell means no score
                blank.add(key)
            else:
                scores[key] = reduce(add, vals, 0.0) / len(vals)  # left to right, as indices' means

    ids: list[str] = []
    target: list[float] = []
    flat = array("d")  # one buffer, and numpy imported after the loop: both keep peak memory down
    no_scores_row = blank_score = 0
    with _csv_rows(indices_csv) as reader:
        header = _header(reader, indices_csv, "indices")
        key_at = header.index(JOIN_COLUMN)
        feature_names = header[:key_at] + header[key_at + 1 :]
        for line, key, row in _keyed_rows(reader, indices_csv, header):
            del row[key_at]
            values = _read_cells(indices_csv, line, feature_names, row)
            if key in scores:
                ids.append(key)
                target.append(scores[key])
                flat.extend(values)
            elif key in blank:
                blank_score += 1
            else:
                no_scores_row += 1
    import numpy as np
    columns = np.frombuffer(flat).reshape(len(ids), len(feature_names)).T
    # Filenames are unique in each file, so a scores row matches one indices row at most.
    unmatched = len(scores) + len(blank) - len(ids) - blank_score
    return FeatureMatrix(
        ids, feature_names, columns, np.array(target), no_scores_row, blank_score, unmatched
    )


@dataclass
class PipelineResult:
    n_rows: int
    r_threshold: float
    vif_limit: float
    r_by_name: dict[str, float | None]
    filtered: list[str]  # survivors of the bivariate filter
    excluded_sparse: list[str]  # of filtered, in the order excluded
    n_dropped_missing: int
    vif_kept: list[str]
    selection: AicSelection
    summary: RegressionSummary


def run_pipeline(
    matrix: FeatureMatrix,
    r_threshold: float = 0.10,
    vif_limit: float = 5.0,
) -> PipelineResult:
    """Filter, prune, select and fit; mirrors the reporting workflow end to end.

    With no candidate left, the model is the intercept alone, fitted on every row.
    """
    import numpy as np
    y = matrix.target
    yc = y - y.mean() if len(y) else y  # an empty score has no spread either
    if not _has_spread(yc @ yc, y @ y):
        raise ValueError("constant vector: the score does not vary")
    r_by_name = bivariate_r(matrix)
    filtered = bivariate_filter(r_by_name, r_threshold)
    # Listwise completion can starve the model when sparse per-type indices
    # pass the filter; exclude the sparsest candidates until enough complete
    # rows remain for the largest possible model.  A feature with an r has 3
    # rows at least, so the last candidate always stays.
    modeling = list(filtered)
    excluded_sparse: list[str] = []
    missing = dict(zip(matrix.names, np.isnan(matrix.columns).sum(axis=1).tolist()))
    complete = matrix.restrict(modeling)
    while modeling and complete.n_rows() < max(3, len(modeling) + 2):
        worst = max(modeling, key=lambda n: (missing[n], modeling.index(n)))
        modeling.remove(worst)
        excluded_sparse.append(worst)
        complete = matrix.restrict(modeling)
    vif_kept = vif_prune(complete, limit=vif_limit)
    selection = aic_select(complete, vif_kept)
    return PipelineResult(
        n_rows=matrix.n_rows(),
        r_threshold=r_threshold,
        vif_limit=vif_limit,
        r_by_name=r_by_name,
        filtered=filtered,
        excluded_sparse=excluded_sparse,
        # restrict([]) keeps every row, so no candidate means no drop
        n_dropped_missing=matrix.n_rows() - complete.n_rows(),
        vif_kept=vif_kept,
        selection=selection,
        summary=ols_fit(complete, list(selection.best)),
    )


def _fmt_p(p: float) -> str:
    """A p-value to three decimals; nan, from a t of 0/0, is shown as --."""
    if math.isnan(p):
        return "--"
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
    lines.append(
        f"Collinearity pruning (VIF < {result.vif_limit:g}): "
        f"{len(result.vif_kept)} candidates entered model selection"
    )
    lines.append(
        f"Model selection: {len(result.selection.candidates)} of "
        f"{result.selection.n_models} models within delta-AIC < {AIC_DELTA:g} "
        f"(best AIC = {result.selection.best_aic:.3f})"
    )
    if result.excluded_sparse:
        lines.append("Note: excluded as too sparse to model: " + ", ".join(result.excluded_sparse))
    dropped = [n for n in result.filtered if n not in result.excluded_sparse + result.vif_kept]
    if dropped:
        lines.append("Note: dropped for collinearity: " + ", ".join(dropped))
    # The sparse exclusion keeps one candidate at least, so this is the one
    # way to an empty model.
    if not result.filtered:
        lines.append("Note: no feature passed the bivariate filter; intercept-only model")
    lines.append("")
    summary = result.summary
    lines.append(f"Selected model ({summary.df_model} predictors, n = {summary.n_obs})")
    lines.append("-" * 72)
    lines.append(
        f"{'predictor':<28} {'estimate':>10} {'SE':>9} {'t':>8} {'p':>7} {'rel.imp(%)':>11}"
    )
    for label in ["(Intercept)"] + summary.predictors:
        est = summary.estimates[label]
        se = summary.std_errors[label]
        t = summary.t_values[label]
        t_txt = f"{'--':>8}" if math.isnan(t) else f"{t:>8.2f}"
        p = _fmt_p(summary.p_values[label])
        if summary.lmg_shares is not None and label in summary.lmg_shares and summary.r_squared > 0:
            imp = f"{100.0 * summary.lmg_shares[label] / summary.r_squared:>11.1f}"
        else:
            imp = f"{'--':>11}"
        lines.append(f"{label:<28} {est:>10.4f} {se:>9.4f} {t_txt} {p:>7} {imp}")
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
