import math
import random
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from asc_toolkit import stats
from asc_toolkit.stats import (
    FeatureMatrix,
    aic,
    aic_select,
    bivariate_filter,
    bivariate_r,
    format_report,
    load_feature_matrix,
    ols_fit,
    pearson,
    run_pipeline,
    soa_family,
    vif_prune,
)


def matrix_from(columns, target):
    n = len(target)
    return FeatureMatrix(
        ids=[f"t{i}" for i in range(n)],
        columns={k: list(v) for k, v in columns.items()},
        target=list(target),
    )


def feature_with_r(rng, target, r):
    """A vector whose sample correlation with target is exactly r (to float)."""
    t = np.asarray(target, dtype=float)
    tc = t - t.mean()
    tc /= math.sqrt(float(tc @ tc))
    z = np.array([rng.gauss(0, 1) for _ in target])
    zc = z - z.mean()
    zc -= (zc @ tc) * tc
    zc /= math.sqrt(float(zc @ zc))
    return (r * tc + math.sqrt(1 - r * r) * zc).tolist()


# --- pearson ---------------------------------------------------------------


def test_pearson_perfect():
    x = [1.0, 2.0, 4.0, 8.0]
    assert pearson(x, x) == pytest.approx(1.0)


def test_pearson_anticorrelation():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_matches_numpy_oracle():
    rng = random.Random(50)
    x = [rng.gauss(0, 2) for _ in range(50)]
    y = [rng.gauss(1, 3) for _ in range(50)]
    assert pearson(x, y) == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-12)


def test_pearson_constant_vector():
    with pytest.raises(ValueError, match="constant vector"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    # The mean of 60 copies of 0.1, 3.7 or 1000.3 is not exact, so the
    # centred sum of squares is rounding noise rather than 0.
    varied = [float(i % 7) for i in range(60)]
    for const in (0.1, 3.7, 1000.3):
        with pytest.raises(ValueError, match="constant vector"):
            pearson([const] * 60, varied)
        with pytest.raises(ValueError, match="constant vector"):
            pearson(varied, [const] * 60)


def test_pearson_too_short():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [2.0, 1.0])


def test_pearson_symmetry_and_affine_invariance():
    rng = random.Random(51)
    x = [rng.gauss(0, 1) for _ in range(40)]
    y = [rng.gauss(0, 1) for _ in range(40)]
    r = pearson(x, y)
    assert pearson(y, x) == pytest.approx(r, abs=1e-12)
    x2 = [3.5 * v + 11.0 for v in x]
    assert pearson(x2, y) == pytest.approx(r, abs=1e-12)


# --- bivariate filter -------------------------------------------------------


def test_soa_family_parsing():
    assert soa_family("ascAvMI") == "asc"
    assert soa_family("ascAvDeltaPStructure") == "asc"
    assert soa_family("TRAN_S_AvDeltaPStructure") == "TRAN_S"
    assert soa_family("PASSIVE_AvT") == "PASSIVE"
    assert soa_family("ascMATTR") is None
    assert soa_family("ATTR_Prop") is None


def test_bivariate_threshold():
    rng = random.Random(60)
    target = [rng.gauss(0, 1) for _ in range(200)]
    cols = {
        "keep_me": feature_with_r(rng, target, 0.26),
        "drop_me": feature_with_r(rng, target, 0.06),
        "keep_neg": feature_with_r(rng, target, -0.22),
    }
    m = matrix_from(cols, target)
    assert bivariate_filter(bivariate_r(m), 0.10) == ["keep_me", "keep_neg"]


def test_bivariate_family_pruning():
    rng = random.Random(61)
    target = [rng.gauss(0, 1) for _ in range(300)]
    cols = {
        "ascMATTR": feature_with_r(rng, target, 0.26),
        "TRAN_S_AvMI": feature_with_r(rng, target, 0.05),
        "TRAN_S_AvT": feature_with_r(rng, target, 0.08),
        "TRAN_S_AvDeltaPStructure": feature_with_r(rng, target, -0.14),
        "TRAN_S_AvDeltaPLemma": feature_with_r(rng, target, 0.03),
        "CAUS_MOT_Prop": feature_with_r(rng, target, 0.06),
    }
    m = matrix_from(cols, target)
    assert bivariate_filter(bivariate_r(m), 0.10) == ["ascMATTR", "TRAN_S_AvDeltaPStructure"]


def test_bivariate_family_keeps_only_strongest_of_several_passers():
    rng = random.Random(62)
    target = [rng.gauss(0, 1) for _ in range(300)]
    cols = {
        "PASSIVE_AvMI": feature_with_r(rng, target, 0.15),
        "PASSIVE_AvT": feature_with_r(rng, target, 0.12),
        "PASSIVE_AvDeltaPLemma": feature_with_r(rng, target, 0.11),
    }
    m = matrix_from(cols, target)
    assert bivariate_filter(bivariate_r(m), 0.10) == ["PASSIVE_AvMI"]


def test_bivariate_r_handles_missing_cells():
    target = [1.0, 2.0, 3.0, 4.0, 5.0]
    cols = {"f": [None, 2.0, 3.0, 4.0, 5.0], "g": [None, None, 1.0, None, None]}
    m = matrix_from(cols, target)
    r = bivariate_r(m)
    assert r["f"] == pytest.approx(1.0)
    assert r["g"] is None  # fewer than 3 paired values


# --- VIF --------------------------------------------------------------------


def test_vif_drops_perfectly_collinear():
    rng = random.Random(70)
    x = [rng.gauss(0, 1) for _ in range(100)]
    cols = {"a": x, "b": [2.0 * v for v in x]}
    m = matrix_from(cols, [rng.gauss(0, 1) for _ in range(100)])
    assert vif_prune(m, limit=5.0) == ["a"]


@pytest.mark.parametrize("const", [0.1, 3.7, 1000.3])
def test_vif_drops_constant_then_sum_and_keeps_large_mean(const):
    # k is constant, c = a + b, m has a mean 100 times its spread, and j a
    # mean 1e10 times its spread, so by the rule j counts as constant.  The
    # VIFs of a, b, c, j and k are all infinite, so k, the latest, goes
    # first; then j, then c; m stays.  At n = 60 the mean of k is not exact.
    rng = random.Random(74)
    n = 60
    a = [rng.gauss(0, 1) for _ in range(n)]
    b = [rng.gauss(0, 1) for _ in range(n)]
    cols = {
        "a": a,
        "b": b,
        "c": [ai + bi for ai, bi in zip(a, b)],
        "m": [100.0 + rng.gauss(0, 1) for _ in range(n)],
        "j": [1e6 + 1e-4 * rng.gauss(0, 1) for _ in range(n)],
        "k": [const] * n,
    }
    m = matrix_from(cols, [rng.gauss(0, 1) for _ in range(n)])
    assert vif_prune(m, ["a", "m", "k"], limit=5.0) == ["a", "m"]
    assert vif_prune(m, ["a", "m", "j"], limit=5.0) == ["a", "m"]
    assert vif_prune(m, limit=5.0) == ["a", "b", "m"]


def test_vif_keeps_orthogonal():
    rng = random.Random(71)
    target = [rng.gauss(0, 1) for _ in range(100)]
    a = feature_with_r(rng, target, 0.0)
    b_rng = random.Random(72)
    b = feature_with_r(b_rng, a, 0.0)  # orthogonal to a
    m = matrix_from({"a": a, "b": b}, target)
    assert vif_prune(m, limit=5.0) == ["a", "b"]


def oracle_vif(x):
    """Independent VIF oracle via the inverse correlation matrix diagonal."""
    xs = (x - x.mean(axis=0)) / x.std(axis=0, ddof=0)
    corr = (xs.T @ xs) / len(x)
    return np.diag(np.linalg.inv(corr))


def test_vif_planted_collinearity_matches_oracle():
    rng = random.Random(73)
    n = 150
    a = [rng.gauss(0, 1) for _ in range(n)]
    b = [rng.gauss(0, 1) for _ in range(n)]
    c = [ai + bi + rng.gauss(0, 0.05) for ai, bi in zip(a, b)]
    m = matrix_from({"a": a, "b": b, "c": c}, [rng.gauss(0, 1) for _ in range(n)])
    survivors = vif_prune(m, limit=5.0)

    # replay the same greedy rule with the oracle VIF formula
    names = ["a", "b", "c"]
    x_full = np.column_stack([a, b, c])
    keep = [0, 1, 2]
    while len(keep) >= 2:
        vifs = oracle_vif(x_full[:, keep])
        worst = 0
        for pos in range(1, len(keep)):
            if vifs[pos] >= vifs[worst]:
                worst = pos
        if vifs[worst] < 5.0:
            break
        del keep[worst]
    assert survivors == [names[i] for i in keep]
    assert max(oracle_vif(x_full[:, keep])) < 5.0


# --- AIC selection ----------------------------------------------------------


def test_aic_formula():
    assert aic(100, 50.0, 3) == pytest.approx(100 * math.log(0.5) + 2 * 5)


def test_aic_select_recovers_planted_feature():
    rng = random.Random(0)
    n = 200
    a = [rng.gauss(0, 1) for _ in range(n)]
    y = [5 * ai + rng.gauss(0, 0.5) for ai in a]
    cols = {"a": a}
    for j in range(5):
        cols[f"n{j}"] = [rng.gauss(0, 1) for _ in range(n)]
    m = matrix_from(cols, y)
    sel = aic_select(m)
    assert sel.best == ("a",)
    assert sel.exhaustive
    assert sel.n_models == 2 ** 6


def test_aic_select_no_candidates():
    rng = random.Random(1)
    m = matrix_from({}, [rng.gauss(0, 1) for _ in range(30)])
    sel = aic_select(m)
    assert sel.best == ()
    assert sel.candidates[0][0] == ()


def test_aic_select_tie_prefers_fewer_predictors():
    rng = random.Random(2)
    n = 80
    a = [rng.gauss(0, 1) for _ in range(n)]
    y = [2 * ai + rng.gauss(0, 0.3) for ai in a]
    m = matrix_from({"a": a, "a_dup": list(a)}, y)
    sel = aic_select(m)
    assert sel.best == ("a",)
    models = [set(names) for names, _ in sel.candidates]
    assert {"a"} in models and {"a_dup"} in models


def test_aic_best_is_in_candidate_set():
    rng = random.Random(3)
    n = 60
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(4)}
    y = [rng.gauss(0, 1) for _ in range(n)]
    sel = aic_select(matrix_from(cols, y))
    assert sel.best in [names for names, _ in sel.candidates]
    assert sel.candidates[0][1] == sel.best_aic


def test_aic_select_rejects_too_many_candidates():
    rng = random.Random(4)
    n = 40
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(26)}
    with pytest.raises(ValueError, match="too many"):
        aic_select(matrix_from(cols, [rng.gauss(0, 1) for _ in range(n)]))


def test_aic_stepwise_fallback_used_above_exhaustive_cap():
    rng = random.Random(5)
    n = 120
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(20)}
    a = [rng.gauss(0, 1) for _ in range(n)]
    cols["a"] = a
    y = [4 * v + rng.gauss(0, 0.5) for v in a]
    sel = aic_select(matrix_from(cols, y))
    assert not sel.exhaustive
    assert "a" in sel.best


def lstsq_aic(x, y, subset):
    """AIC of the intercept-plus-subset fit, by least squares on the design itself."""
    a = np.column_stack([np.ones(len(y))] + [x[:, j] for j in subset])
    resid = y - a @ np.linalg.lstsq(a, y, rcond=None)[0]
    return aic(len(y), float(resid @ resid), len(subset))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(3, 8),
    extra_rows=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    const=st.sampled_from([0.0, 0.1, 1.0, -2.5, 3.7, 1000.3]),
)
def test_aic_select_matches_brute_force_lstsq(k, extra_rows, seed, const):
    # The last two columns are a copy of an earlier one and a constant, so
    # some subsets hold a column that adds nothing to the fit.
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    x = rng.standard_normal((n, k))
    x[:, k - 2] = x[:, rng.integers(0, k - 2)]
    x[:, k - 1] = const
    y = x[:, 0] + rng.standard_normal(n) * 1.5 + 3.0
    names = [f"f{j}" for j in range(k)]
    m = matrix_from({nm: x[:, j].tolist() for j, nm in enumerate(names)}, y.tolist())
    sel = aic_select(m)
    assert sel.exhaustive and sel.n_models == 2**k

    oracle = {
        tuple(names[j] for j in s): lstsq_aic(x, y, s)
        for size in range(k + 1)
        for s in combinations(range(k), size)
    }
    best = min(oracle.values())
    tol = lambda v: 1e-9 * max(1.0, abs(v))
    # A model that only adds redundant columns sits at delta-AIC 2 per column,
    # so some models lie on the delta = 4 boundary up to rounding: either
    # side of it is right for them.
    on_edge = lambda v: abs(v - best - 4.0) <= tol(v)
    expected = sorted(
        ((s, v) for s, v in oracle.items() if v - best < 4.0 and not on_edge(v)),
        key=lambda item: (item[1], len(item[0]), item[0]),
    )
    got = [(s, v) for s, v in sel.candidates if not on_edge(oracle[s])]
    assert len(got) == len(expected)
    for (s, v), (want, want_aic) in zip(got, expected):
        assert abs(v - oracle[s]) <= tol(oracle[s])
        if s != want:  # only models tied in the oracle may trade places
            assert len(s) == len(want)
            assert abs(oracle[s] - want_aic) <= tol(want_aic)
    assert sel.best == sel.candidates[0][0]


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(3, 8),
    n=st.sampled_from([11, 40, 1138]),
    seed=st.integers(0, 2**32 - 1),
    const=st.sampled_from([0.0, 0.1, 1.0, -2.5, 3.7, 1000.3, 7e5 + 0.1]),
    shift=st.sampled_from([0.0, 7e5]),
)
def test_all_subset_rss_matches_lstsq_on_each_design(k, n, seed, const, shift):
    # A copy of an earlier column and a constant column, then the columns
    # shuffled, so the sweep meets a column that adds nothing at any step.
    # Column 1 has a mean 100 times its spread and must still enter the fit.
    # A shift of 7e5 gives y a mean far larger than its spread.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    x[:, 1] += 100.0
    y = x[:, 0] + x[:, 1] + rng.standard_normal(n) * 1.5 - 97.0 + shift
    x[:, k - 2] = x[:, rng.integers(0, k - 2)]
    x[:, k - 1] = const
    x = x[:, rng.permutation(k)]
    a = np.column_stack([np.ones(n), x])
    cross, scale = stats._cross(x, y)
    rss = stats._all_subset_rss(cross, scale)
    assert rss.shape == (2**k,)
    for mask in range(2**k):
        design = a[:, [0] + [j + 1 for j in range(k) if mask >> j & 1]]
        resid = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        want = float(resid @ resid)
        assert abs(rss[mask] - want) <= 1e-9 * max(1.0, want)
        # The stepwise search scores one mask at a time, by the same sweep.
        assert abs(stats._subset_rss(cross, scale, mask) - want) <= 1e-9 * max(1.0, want)


# --- OLS --------------------------------------------------------------------


def test_ols_noiseless_line():
    x = [float(i) for i in range(10)]
    y = [2.0 * v + 1.0 for v in x]
    fit = ols_fit(matrix_from({"x": x}, y))
    assert fit.estimates["x"] == pytest.approx(2.0, abs=1e-9)
    assert fit.estimates["(Intercept)"] == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_ols_monte_carlo_recovery():
    rng = random.Random(2)
    n = 500
    a = [rng.gauss(0, 1) for _ in range(n)]
    b = [rng.gauss(0, 1) for _ in range(n)]
    y = [3 * ai - 2 * bi + rng.gauss(0, 1) for ai, bi in zip(a, b)]
    fit = ols_fit(matrix_from({"a": a, "b": b}, y))
    assert abs(fit.estimates["a"] - 3.0) <= 3 * fit.std_errors["a"]
    assert abs(fit.estimates["b"] + 2.0) <= 3 * fit.std_errors["b"]
    assert fit.adj_r_squared <= fit.r_squared
    assert fit.df_resid == n - 3


def test_ols_lmg_equal_for_symmetric_orthogonal_predictors():
    rng = random.Random(80)
    n = 120
    raw_a = np.array([rng.gauss(0, 1) for _ in range(n)])
    raw_b = np.array([rng.gauss(0, 1) for _ in range(n)])
    a = raw_a - raw_a.mean()
    b = raw_b - raw_b.mean()
    b -= (b @ a) / (a @ a) * a  # orthogonalize
    a /= math.sqrt(float(a @ a))
    b /= math.sqrt(float(b @ b))
    z = np.array([rng.gauss(0, 1) for _ in range(n)])
    z = z - z.mean()
    z -= (z @ a) * a + (z @ b) * b
    y = a + b + 0.3 * z / math.sqrt(float(z @ z))
    fit = ols_fit(matrix_from({"a": a.tolist(), "b": b.tolist()}, y.tolist()))
    shares = fit.lmg_shares
    assert shares["a"] == pytest.approx(shares["b"], abs=1e-9)
    assert shares["a"] >= 0 and shares["b"] >= 0
    assert sum(shares.values()) == pytest.approx(fit.r_squared, abs=1e-9)


def test_ols_lmg_sums_to_r_squared_random_design():
    rng = random.Random(81)
    n = 100
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(5)}
    y = [
        1.5 * cols["f0"][i] - 0.5 * cols["f2"][i] + rng.gauss(0, 1.0) for i in range(n)
    ]
    fit = ols_fit(matrix_from(cols, y))
    assert sum(fit.lmg_shares.values()) == pytest.approx(fit.r_squared, abs=1e-9)


def lstsq_r_squared(x, y, subset):
    a = np.column_stack([np.ones(len(y))] + [x[:, j] for j in subset])
    resid = y - a @ np.linalg.lstsq(a, y, rcond=None)[0]
    yc = y - y.mean()
    return 1.0 - float(resid @ resid) / float(yc @ yc)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 5), extra_rows=st.integers(10, 60), seed=st.integers(0, 2**32 - 1))
def test_lmg_shares_are_the_average_gain_over_orderings(k, extra_rows, seed):
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    x = rng.standard_normal((n, k))
    y = x @ rng.uniform(-2.0, 2.0, k) + rng.standard_normal(n)
    names = [f"f{j}" for j in range(k)]
    r2 = {}
    for size in range(k + 1):
        for s in combinations(range(k), size):
            r2[frozenset(s)] = lstsq_r_squared(x, y, s)
    gains = [0.0] * k
    orderings = list(permutations(range(k)))
    for order in orderings:
        entered = frozenset()
        for j in order:
            gains[j] += r2[entered | {j}] - r2[entered]
            entered = entered | {j}
    shares = stats._lmg_shares(*stats._cross(x, y), names)
    for j, name in enumerate(names):
        assert abs(shares[name] - gains[j] / len(orderings)) <= 1e-12
    assert abs(sum(shares.values()) - r2[frozenset(range(k))]) <= 1e-12


def test_ols_p_values_equal_scipy_stats():
    rng = random.Random(84)
    n = 60
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(3)}
    y = [0.4 * cols["f0"][i] + rng.gauss(0, 1) for i in range(n)]
    fit = ols_fit(matrix_from(cols, y))
    for label, p in fit.p_values.items():
        assert p == float(2.0 * sps.t.sf(abs(fit.t_values[label]), fit.df_resid))
    assert fit.f_p_value == float(sps.f.sf(fit.f_statistic, fit.df_model, fit.df_resid))


def test_ols_residuals_orthogonal_to_predictors():
    rng = random.Random(82)
    n = 90
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(4)}
    y = [sum(cols[f"f{j}"][i] for j in range(4)) + rng.gauss(0, 2) for i in range(n)]
    m = matrix_from(cols, y)
    fit = ols_fit(m)
    x, yv, _ = m.complete(m.names)
    labels = ["(Intercept)"] + m.names
    beta = np.array([fit.estimates[lab] for lab in labels])
    a = np.column_stack([np.ones(n), x])
    resid = yv - a @ beta
    for j in range(x.shape[1]):
        col = x[:, j]
        cos = abs(float(resid @ col)) / (
            math.sqrt(float(resid @ resid)) * math.sqrt(float(col @ col))
        )
        assert cos < 1e-8


def test_ols_rank_deficiency_names_columns():
    rng = random.Random(83)
    n = 50
    a = [rng.gauss(0, 1) for _ in range(n)]
    m = matrix_from(
        {"a": a, "b": [2 * v for v in a]}, [rng.gauss(0, 1) for _ in range(n)]
    )
    with pytest.raises(ValueError, match="collinear.*b"):
        ols_fit(m)

    b = [rng.gauss(0, 1) for _ in range(n)]
    d = [rng.gauss(0, 1) for _ in range(n)]
    m = matrix_from(
        {"k": [3.7] * n, "a": a, "b": b}, [rng.gauss(0, 1) for _ in range(n)]
    )
    with pytest.raises(ValueError, match="collinear columns: k$"):
        ols_fit(m)
    # Two disjoint dependencies: c = a - b, and e = 3d.
    cols = {
        "a": a, "b": b, "c": [ai - bi for ai, bi in zip(a, b)], "d": d, "e": [3 * v for v in d]
    }
    m = matrix_from(cols, [rng.gauss(0, 1) for _ in range(n)])
    with pytest.raises(ValueError, match="collinear columns: c, e$"):
        ols_fit(m)


@pytest.mark.parametrize("const", [0.0, 3.7])
def test_ols_constant_target(const):
    m = matrix_from({"a": [float(i % 7) for i in range(60)]}, [const] * 60)
    with pytest.raises(ValueError, match="constant vector"):
        ols_fit(m)


def test_ols_needs_enough_rows():
    m = matrix_from({"a": [1.0, 2.0]}, [1.0, 2.0])
    with pytest.raises(ValueError, match="complete rows"):
        ols_fit(m)


# --- CSV loading and pipeline ------------------------------------------------


def write_csvs(tmp_path, n=40, seed=90):
    rng = random.Random(seed)
    signal = [rng.gauss(0, 1) for _ in range(n)]
    idx = tmp_path / "indices.csv"
    sc = tmp_path / "scores.csv"
    with open(idx, "w", encoding="utf-8") as fh:
        fh.write("filename,sig,junk\n")
        for i in range(n):
            junk = rng.gauss(0, 1)
            fh.write(f"t{i}.conllu,{signal[i]:.9f},{junk:.9f}\n")
    with open(sc, "w", encoding="utf-8") as fh:
        fh.write("filename,score\n")
        for i in range(n):
            fh.write(f"t{i}.conllu,{2.0 * signal[i] + rng.gauss(0, 0.4):.9f}\n")
    return idx, sc


def test_load_feature_matrix_joins_on_filename(tmp_path):
    idx, sc = write_csvs(tmp_path)
    m = load_feature_matrix(idx, sc)
    assert m.n_rows() == 40
    assert m.names == ["sig", "junk"]


def test_load_feature_matrix_empty_cells_become_missing(tmp_path):
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("filename,f\na,\nb,1.5\nc,2.5\nd,3\ne,4\n", encoding="utf-8")
    sc.write_text("filename,score\na,1\nb,2\nc,3\nd,\ne,n/a\n", encoding="utf-8")
    m = load_feature_matrix(idx, sc)
    assert m.columns["f"] == [None, 1.5, 2.5]
    assert m.ids == ["a", "b", "c"]  # a blank or non-numeric score drops its row


def test_load_feature_matrix_accepts_bom(tmp_path):
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("\ufefffilename,f\na,1\nb,2\nc,3\n", encoding="utf-8")
    sc.write_text("\ufefffilename,score\na,1\nb,2\nc,3\n", encoding="utf-8")
    m = load_feature_matrix(idx, sc)
    assert m.ids == ["a", "b", "c"]
    assert m.names == ["f"]


def test_load_feature_matrix_composite(tmp_path):
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("filename,f\na,1\nb,2\nc,3\n", encoding="utf-8")
    sc.write_text(
        "filename,syntax,vocab\na,1,3\nb,2,4\nc,3,5\n", encoding="utf-8"
    )
    m = load_feature_matrix(idx, sc, composite_of=["syntax", "vocab"])
    assert m.target == [2.0, 3.0, 4.0]


def test_run_pipeline_finds_planted_signal(tmp_path):
    idx, sc = write_csvs(tmp_path)
    m = load_feature_matrix(idx, sc)
    result = run_pipeline(m)
    assert "sig" in result.filtered
    assert result.summary is not None
    assert "sig" in result.summary.predictors
    report = format_report(result)
    assert "sig" in report
    assert "R^2" in report


def test_run_pipeline_correlates_each_feature_once(tmp_path):
    idx, sc = write_csvs(tmp_path)
    m = load_feature_matrix(idx, sc)
    with mock.patch.object(stats, "bivariate_r", wraps=stats.bivariate_r) as spy:
        result = run_pipeline(m)
    assert spy.call_count == 1
    assert result.filtered == bivariate_filter(bivariate_r(m))


def test_run_pipeline_constant_target():
    m = matrix_from({"a": [1.0, 2.0, 3.0, 4.0]}, [5.0, 5.0, 5.0, 5.0])
    with pytest.raises(ValueError, match="constant vector"):
        run_pipeline(m)


def test_run_pipeline_reports_missing_drop_count(tmp_path):
    rng = random.Random(91)
    n = 30
    sig = [rng.gauss(0, 1) for _ in range(n)]
    col = list(sig)
    col[3] = None
    col[7] = None
    m = matrix_from({"sig": col}, [2 * v for v in sig])
    result = run_pipeline(m)
    assert result.n_dropped_missing == 2
