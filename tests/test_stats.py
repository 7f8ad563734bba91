import math
import random
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

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
    """A FeatureMatrix from per-name value lists, None for a missing cell."""
    n = len(target)
    cells = [math.nan if v is None else v for col in columns.values() for v in col]
    return FeatureMatrix(
        ids=[f"t{i}" for i in range(n)],
        names=list(columns),
        columns=np.array(cells, dtype=float).reshape(len(columns), n),
        target=np.array(target, dtype=float),
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


@pytest.mark.parametrize(
    "x, y",
    [([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]), ([[1.0, 2.0, 3.0]], [[3.0, 2.0, 1.0]])],
    ids=["lengths", "two-dimensional"],
)
def test_pearson_needs_one_dimensional_vectors_of_one_length(x, y):
    with pytest.raises(ValueError, match="^vectors must be one-dimensional and of equal length$"):
        pearson(x, y)


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


def test_soa_family_over_every_index_name():
    from asc_toolkit import indices

    assert stats.soa_family is indices.soa_family
    families = {name: soa_family(name) for name in indices.INDEX_NAMES}
    split = {n: n.rpartition("Av") for n in indices.INDEX_NAMES}
    association = [n for n, (_, _, metric) in split.items() if metric in indices.SOA_METRICS]
    assert len(association) == 40
    for name in association:
        prefix = split[name][0]
        assert families[name] == ("asc" if prefix == "asc" else prefix.removesuffix("_"))
        assert families[name] in ("asc", *indices.ASC_TYPES)
    others = [n for n in indices.INDEX_NAMES if n not in association]
    assert len(others) == 14
    assert all(families[n] is None for n in others)
    # Names outside INDEX_NAMES: any "_Av<metric>" ending names a family, a
    # bare "<x>Av<metric>" other than asc does not.
    assert soa_family("x_AvMI") == "x"
    assert soa_family("fooAvMI") is None


def test_bivariate_filter_family_ties_keep_the_earlier_column():
    r = {"PASSIVE_AvMI": 0.3, "PASSIVE_AvT": -0.3, "PASSIVE_AvDeltaPLemma": 0.2}
    assert bivariate_filter(r, 0.10) == ["PASSIVE_AvMI"]
    r = {"PASSIVE_AvT": -0.3, "PASSIVE_AvMI": 0.3}
    assert bivariate_filter(r, 0.10) == ["PASSIVE_AvT"]


def test_bivariate_filter_a_later_stronger_member_replaces_an_earlier_one():
    r = {"ATTR_AvMI": 0.2, "ATTR_AvT": 0.25, "ATTR_AvDeltaPLemma": -0.4, "ATTR_AvDeltaPStructure": 0.39}
    assert bivariate_filter(r, 0.10) == ["ATTR_AvDeltaPLemma"]


def test_bivariate_filter_prunes_the_aggregate_and_each_type_apart():
    r = {
        "ascAvMI": 0.2, "ascAvT": 0.5,
        "TRAN_S_AvMI": 0.9, "TRAN_S_AvT": 0.1,
        "DITRAN_AvDeltaPLemma": 0.15,
    }
    assert bivariate_filter(r, 0.10) == ["ascAvT", "TRAN_S_AvMI", "DITRAN_AvDeltaPLemma"]


def test_bivariate_filter_keeps_every_name_outside_the_families_in_column_order():
    r = {
        "ascMATTR": 0.2, "ascAvMI": 0.9, "zeta": -0.5, "ATTR_Prop": 0.3,
        "ascAvT": 0.95, "alpha": 0.11, "ascAvFreq": 0.8, "dropped": 0.05, "none": None,
    }
    assert bivariate_filter(r, 0.10) == ["ascMATTR", "zeta", "ATTR_Prop", "ascAvT", "alpha", "ascAvFreq"]


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


def pearson_or_none(xs, ys):
    try:
        return pearson(xs, ys)
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 60),
    k=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    fortran=st.booleans(),
)
def test_nan_matrix_agrees_with_plain_list_oracles(n, k, seed, fortran):
    # Columns with every share of missing cells, all-missing and constant
    # ones among them; None marks a missing cell in the oracles' lists.
    rng = random.Random(seed)
    names = [f"f{j}" for j in range(k)]
    cols = {}
    for name in names:
        share = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
        level = rng.uniform(-100.0, 100.0)
        spread = 0.0 if rng.random() < 0.2 else rng.uniform(0.01, 10.0)
        cols[name] = [None if rng.random() < share else level + spread * rng.gauss(0, 1) for _ in range(n)]
    target = [rng.gauss(0, 1) for _ in range(n)]
    m = matrix_from(cols, target)
    if fortran:  # as load_feature_matrix lays its columns out
        m.columns = np.asfortranarray(m.columns)

    def complete_rows(subset):
        return [i for i in range(n) if all(cols[name][i] is not None for name in subset)]

    chosen = rng.sample(names, rng.randint(0, k))
    rows = complete_rows(chosen)
    sub = m.restrict(chosen)
    assert sub.ids == [f"t{i}" for i in rows]
    assert sub.names == chosen
    assert sub.target.tolist() == [target[i] for i in rows]
    assert sub.columns.tolist() == [[cols[name][i] for i in rows] for name in chosen]
    if rows:
        # complete hands _cross the layout of an array built from the lists:
        # numpy's sums run in memory order, so only that layout gives these bits.
        cells = [cols[name][i] for name in chosen for i in rows]
        x = np.array(cells, dtype=float).reshape(len(chosen), len(rows)).T
        want = stats._cross(x, np.array([target[i] for i in rows]))
        got = stats._cross(*m.complete(chosen))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    want_r = {}
    for name in names:
        pairs = [(v, t) for v, t in zip(cols[name], target) if v is not None]
        want_r[name] = pearson_or_none([p[0] for p in pairs], [p[1] for p in pairs])
    hex_or_none = lambda r: {name: v if v is None else v.hex() for name, v in r.items()}
    assert hex_or_none(bivariate_r(m)) == hex_or_none(want_r)

    if n < 3:
        return
    # run_pipeline's sparse exclusion, on lists: drop the candidate with the
    # most missing cells, the later on ties, until the complete rows suffice.
    modeling = bivariate_filter(want_r, 0.0)
    missing = {name: cols[name].count(None) for name in modeling}
    excluded = []
    while modeling and len(complete_rows(modeling)) < max(3, len(modeling) + 2):
        excluded.append(max(modeling, key=lambda name: (missing[name], modeling.index(name))))
        modeling.remove(excluded[-1])
    result = run_pipeline(m, r_threshold=0.0)
    assert result.excluded_sparse == excluded
    assert result.n_dropped_missing == n - len(complete_rows(modeling))
    # A candidate with an r has 3 rows at least, so the exclusion keeps one.
    assert bool(result.vif_kept) == bool(modeling) == bool(result.filtered)
    assert result.summary.n_obs == n - result.n_dropped_missing


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


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 7),
    extra_rows=st.integers(5, 80),
    seed=st.integers(0, 2**32 - 1),
    limit=st.sampled_from([1.5, 2.0, 5.0, 10.0]),
)
def test_vif_prune_matches_the_inverse_correlation_oracle(k, extra_rows, seed, limit):
    # Each column after the first may be an earlier one plus noise or the sum
    # of two earlier ones plus noise, with large means on some columns.
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    x = rng.standard_normal((n, k)) * rng.uniform(0.5, 3.0, k)
    for j in range(1, k):
        kind = rng.integers(0, 3)
        src = rng.integers(0, j, size=2)
        if kind == 1:
            x[:, j] = x[:, src[0]] + rng.choice([0.2, 0.5, 1.0]) * x[:, j]
        elif kind == 2:
            x[:, j] = x[:, src[0]] + x[:, src[1]] + rng.choice([0.05, 0.3]) * x[:, j]
    x += rng.choice([0.0, 1e3], k)
    # A VIF past 1e4 is fixed only to a few digits, so oracle and sweep may
    # then disagree on which is largest; such designs are skipped.
    assume(max(oracle_vif(x)) < 1e4)
    names = [f"f{j}" for j in range(k)]
    cols = {nm: x[:, j].tolist() for j, nm in enumerate(names)}
    m = matrix_from(cols, rng.standard_normal(n).tolist())

    # Replay the greedy rule with the oracle VIF and the same tie band.
    keep = list(range(k))
    while len(keep) >= 2:
        vifs = oracle_vif(x[:, keep])
        if vifs.max() < limit:
            break
        del keep[int(np.flatnonzero(vifs >= (1.0 - stats._VIF_TIE) * vifs.max())[-1])]
    assert vif_prune(m, limit=limit) == [names[j] for j in keep]


@pytest.mark.parametrize("seed", range(12))
def test_vif_pair_tie_drops_the_later_column(seed):
    # The two VIFs of two columns are both 1/(1 - r^2) exactly, so the later
    # column must go, whichever the rounding makes larger.
    rng = random.Random(seed)
    a = [rng.gauss(0, 1) for _ in range(60)]
    b = [v + rng.gauss(0, 0.3) for v in a]
    m = matrix_from({"a": a, "b": b}, [rng.gauss(0, 1) for _ in range(60)])
    assert vif_prune(m, limit=2.0) == ["a"]


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


def test_aic_select_needs_three_complete_rows():
    # Two of the four rows miss their a cell, so two complete rows are left.
    m = matrix_from({"a": [1.0, None, 3.0, None]}, [1.0, 2.0, 0.5, 4.0])
    with pytest.raises(ValueError, match="^need at least 3 complete rows$"):
        aic_select(m)


def test_aic_select_rejects_too_many_candidates():
    rng = random.Random(4)
    n = 40
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(26)}
    with pytest.raises(ValueError, match="too many"):
        aic_select(matrix_from(cols, [rng.gauss(0, 1) for _ in range(n)]))


def unbranched_selection(matrix, names):
    """aic_select's answer from one sweep of the whole subset lattice, as for k <= 18."""
    x, y = matrix.complete(names)
    n, k = x.shape
    rss = stats._all_subset_rss(*stats._cross(x, y))
    # Screen by np.log with a wide margin, then score the survivors exactly.
    screen = n * np.log(np.maximum(rss, 1e-300) / n) + 2 * (stats._subset_sizes(k) + 2)
    scored = {
        tuple(j for j in range(k) if mask >> j & 1): aic(n, float(rss[mask]), mask.bit_count())
        for mask in np.flatnonzero(screen - screen.min() < stats.AIC_DELTA + 1.0).tolist()
    }
    best = min(scored, key=lambda s: (scored[s], len(s), s))
    within = sorted(
        ((s, v) for s, v in scored.items() if v - scored[best] < stats.AIC_DELTA),
        key=lambda item: (item[1], len(item[0]), item[0]),
    )
    to_names = lambda s: tuple(names[j] for j in s)
    return to_names(best), scored[best], [(to_names(s), v) for s, v in within]


@settings(max_examples=4, deadline=None)
@given(
    k=st.integers(19, 22),
    n=st.sampled_from([40, 300]),
    fresh=st.integers(3, 22),
    seed=st.integers(0, 2**32 - 1),
    const=st.sampled_from([0.0, 3.7, 1000.3]),
)
def test_aic_select_above_lattice_width_equals_unbranched_scan(k, n, fresh, seed, const):
    # Columns from `fresh` on are copies of earlier ones and the last is a
    # constant, shuffled so any may land among the leading columns the search
    # branches on.  With few fresh columns a branch's largest model fits
    # little better than its smallest, so its bound falls near the best AIC.
    # The strongest column stays first, so the branches without it are pruned.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    y = 2.0 * x[:, 0] + 0.3 * x[:, 1] + rng.standard_normal(n) * 1.5 + 3.0
    for j in range(min(fresh, k - 2), k - 1):
        x[:, j] = x[:, rng.integers(0, j)]
    x[:, k - 1] = const
    x = x[:, [0] + (1 + rng.permutation(k - 1)).tolist()]
    names = [f"f{j}" for j in range(k)]
    m = matrix_from({nm: x[:, j].tolist() for j, nm in enumerate(names)}, y.tolist())
    sel = aic_select(m)
    assert sel.n_models == 2**k
    assert (sel.best, sel.best_aic, sel.candidates) == unbranched_selection(m, names)


def test_aic_select_keeps_candidates_in_branches_bounded_near_the_margin():
    # The leading columns are a strong predictor and two noise columns, and
    # the others copy them or are constant.  So every branch's largest model
    # fits as {f0, f1, f2} does, and the branches holding f1 or f2 have
    # bounds within AIC_DELTA of the best AIC: a bound set too high, or a
    # stop rule too eager, loses their candidates.
    rng = np.random.default_rng(8)
    n, k = 100, 21
    lead = rng.standard_normal((n, 3))
    y = 2.0 * lead[:, 0] + rng.standard_normal(n)
    rest = [lead[:, j % 3] if j % 4 < 3 else np.full(n, 3.7) for j in range(k - 3)]
    x = np.column_stack([lead] + rest)
    names = [f"f{j}" for j in range(k)]
    m = matrix_from({nm: x[:, j].tolist() for j, nm in enumerate(names)}, y.tolist())
    sel = aic_select(m)
    assert (sel.best, sel.best_aic, sel.candidates) == unbranched_selection(m, names)


def test_aic_select_finds_planted_feature_among_max_candidates():
    rng = np.random.default_rng(5)
    n, k = 2000, stats.MAX_CANDIDATES
    x = rng.standard_normal((n, k))
    y = 4.0 * x[:, 3] + rng.standard_normal(n)
    names = [f"f{j}" for j in range(k)]
    m = matrix_from({nm: x[:, j].tolist() for j, nm in enumerate(names)}, y.tolist())
    with mock.patch.object(stats, "_all_subset_rss", wraps=stats._all_subset_rss) as scan:
        sel = aic_select(m)
    # f3 is a leading column: the bound prunes the branches without it.
    assert scan.call_count <= 2 ** (k - stats.MAX_LATTICE - 1)
    assert sel.n_models == 2**25
    assert "f3" in sel.best
    assert sel.best == sel.candidates[0][0]


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
    assert sel.n_models == 2**k

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


# --- OLS --------------------------------------------------------------------


def test_ols_noiseless_line():
    x = [float(i) for i in range(10)]
    y = [2.0 * v + 1.0 for v in x]
    fit = ols_fit(matrix_from({"x": x}, y))
    assert fit.estimates["x"] == pytest.approx(2.0, abs=1e-9)
    assert fit.estimates["(Intercept)"] == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_se == 0.0


def exact_ols(x, y):
    """Estimates and SEs of the intercept-plus-x least-squares fit, in exact rational arithmetic."""
    rows = [[Fraction(1)] + [Fraction(v) for v in row] for row in x.tolist()]
    ys = [Fraction(v) for v in y.tolist()]
    p = len(rows[0])
    # Gauss-Jordan on [A'A | I | A'y] leaves [I | (A'A)^-1 | beta].
    aug = [
        [sum(r[i] * r[j] for r in rows) for j in range(p)]
        + [Fraction(int(i == j)) for j in range(p)]
        + [sum(r[i] * v for r, v in zip(rows, ys))]
        for i in range(p)
    ]
    for i in range(p):
        aug[i] = [v / aug[i][i] for v in aug[i]]
        for r in range(p):
            if r != i:
                aug[r] = [v - aug[r][i] * w for v, w in zip(aug[r], aug[i])]
    beta = [row[-1] for row in aug]
    rss = sum((v - sum(b * c for b, c in zip(beta, r))) ** 2 for r, v in zip(rows, ys))
    sigma2 = rss / (len(rows) - p)
    return beta, [math.sqrt(sigma2 * aug[i][p + i]) for i in range(p)]


@pytest.mark.parametrize("means", [(1.0,), (1e3,), (1e5,), (1.0, 1e3, 1e5)])
def test_ols_matches_exact_arithmetic_at_large_means(means):
    # Columns of spread 1 about the given means and a score of mean 3e5: the
    # intercept must not cost the fit its precision.
    rng = np.random.default_rng(84)
    n = 50
    x = np.array(means) + rng.standard_normal((n, len(means)))
    y = 3e5 + (x - np.array(means)) @ np.linspace(2.0, -1.0, len(means)) + rng.standard_normal(n)
    names = [f"f{j}" for j in range(len(means))]
    fit = ols_fit(matrix_from({nm: x[:, j].tolist() for j, nm in enumerate(names)}, y.tolist()))
    beta, se = exact_ols(x, y)
    for label, want, want_se in zip(["(Intercept)"] + names, beta, se):
        assert abs(fit.estimates[label] - want) <= 1e-13 * abs(want)
        assert abs(fit.std_errors[label] - want_se) <= 1e-13 * want_se


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


@pytest.mark.parametrize("k", [16, stats.MAX_LATTICE, 0])
def test_ols_lmg_up_to_lattice_width_sums_to_r_squared(k):
    rng = np.random.default_rng(k)
    n = 200
    x = rng.standard_normal((n, k))
    y = x @ rng.uniform(-1.0, 1.0, k) + rng.standard_normal(n)
    fit = ols_fit(matrix_from({f"f{j}": x[:, j].tolist() for j in range(k)}, y.tolist()))
    assert len(fit.lmg_shares) == k
    assert abs(sum(fit.lmg_shares.values()) - fit.r_squared) <= 1e-12
    if k == 0:
        assert fit.lmg_shares == {} and fit.r_squared == 0.0


def test_no_lmg_above_lattice_width():
    # Every predictor carries signal, so the selected model keeps all of them.
    k = stats.MAX_LATTICE + 1
    rng = np.random.default_rng(19)
    n = 500
    x = rng.standard_normal((n, k))
    y = x.sum(axis=1) + rng.standard_normal(n)
    names = [f"f{j}" for j in range(k)]
    result = run_pipeline(matrix_from({nm: x[:, j].tolist() for j, nm in enumerate(names)}, y.tolist()))
    assert result.summary.predictors == names
    assert result.summary.lmg_shares is None
    table = format_report(result).split("Selected model")[1].splitlines()
    rows = [line for line in table if line.split() and line.split()[0] in names]
    assert len(rows) == k
    assert all(line.endswith(" --") for line in rows)


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


def relative_error(p, want):
    return abs(p - want) / want


# 0, then 1e-12 .. 7e12 in six steps a decade: from a p of 1 down to the far tails.
TAIL_GRID = [0.0] + [m * 10.0**e for e in range(-12, 13) for m in (1, 1.5, 2, 3, 5, 7)]


def test_t_tails_equal_closed_forms():
    # df = 1 (Cauchy): p = 1 - (2/pi) atan|t|; df = 2: p = 1 - |t|/sqrt(2 + t^2).
    # Both are written without the cancellation of 1 - ..., so they stay exact
    # in the far tail too.
    for t in TAIL_GRID:
        cauchy = 2 / math.pi * math.atan2(1.0, t)
        v = math.sqrt(2 + t * t)
        assert relative_error(stats._f_tail(t * t, 1, 1), cauchy) <= 1e-13
        assert relative_error(stats._f_tail(t * t, 1, 2), 2 / (v * (v + t))) <= 1e-13


@pytest.mark.parametrize("d2", [1, 2, 3, 4, 5, 10, 20, 10**5, 10**6, 10**7])
def test_f_tails_with_two_numerator_df_equal_the_closed_form(d2):
    # d1 = 2: sf = (d2/(d2 + 2F))^(d2/2), checked down to 1e-300.
    if d2 <= 20:
        for f in TAIL_GRID:
            want = (d2 / (d2 + 2 * f)) ** (d2 / 2)
            if want >= 1e-300:
                assert relative_error(stats._f_tail(f, 2, d2), want) <= 1e-13
        return
    # At large d2, where log-gamma differences cancel, the closed form is
    # written as exp(-d2/2 log1p(2F/d2)), which does not; F from 0.01 to 6.
    # Each of _betainc's three guards against cancellation (the Stirling
    # prefactor, the log1p logs, the first fraction term from y) is needed
    # here: without any one of them the error at 1e7 is 4.5e-10 to 9.5e-9.
    for f in [0.01 * 1.05**i for i in range(132)]:
        want = math.exp(-d2 / 2 * math.log1p(2 * f / d2))
        assert relative_error(stats._f_tail(f, 2, d2), want) <= 1e-12


@pytest.mark.parametrize("df", [1, 2, 7, 60, 2000])
def test_tails_at_their_boundaries_fall_within_zero_and_one(df):
    for d1 in (1, 2, 5, 25):
        assert stats._f_tail(0.0, d1, df) == 1.0
        assert stats._f_tail(math.inf, d1, df) == 0.0
        assert math.isnan(stats._f_tail(math.nan, d1, df))
        ps = [stats._f_tail(f, d1, df) for f in TAIL_GRID]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(a >= b for a, b in zip(ps, ps[1:]))
    # The t tail is the F tail at t^2 on (1, df): t = 0 gives 1, t = +-inf gives 0.
    for t in (0.0, -0.0, math.inf, -math.inf):
        assert stats._f_tail(t * t, 1, df) == (1.0 if t == 0 else 0.0)
    ps = [stats._f_tail(t * t, 1, df) for t in TAIL_GRID]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def scipy_f_tail(f, d1, d2):
    """The F(d1, d2) upper tail at f by scipy, the oracle.

    scipy's own sf forms the complement of x = d2/(d2 + d1 f) as 1 - x, so
    as p nears 1 it loses digits (3.1e-9 off at t = 1e-8 on df = 1).  There
    it is taken as 1 minus scipy's lower tail at the directly formed y.
    """
    s = d1 * f
    lower = float(special.betainc(d1 / 2, d2 / 2, s / (d2 + s)))
    return 1.0 - lower if lower < 0.5 else float(special.betainc(d2 / 2, d1 / 2, d2 / (d2 + s)))


scaled = lambda low, high: st.builds(
    lambda m, e: m * 10.0**e, st.floats(0.0, 10.0), st.integers(low, high)
)


@settings(max_examples=1500, deadline=None)
@given(
    df=st.integers(1, 5000),
    d1=st.integers(1, 25),
    t=scaled(-8, 4),
    f=scaled(-16, 4),
)
def test_tails_agree_with_scipy(df, d1, t, f):
    # Wherever scipy's p is at least 1e-100, both tails agree within 1e-9
    # relative (40,000 draws of these: 3.7e-11 for t, 1.3e-11 for F).  scipy's
    # t tail stays within 4e-13 of mpmath's 40 digits further out, so t is
    # held to 1e-9 down to 1e-300 (5.8e-12 seen).  Its F tail does not (6.7e-2
    # off at 1.1e-296, where _f_tail was within 5e-12): there F is only
    # checked to lie below 1e-100, and the d1 = 2 closed form above holds it
    # to 1e-13.  Below 1e-300 the t tail is checked to lie there.
    p = stats._f_tail(t * t, 1, df)
    want = scipy_f_tail(t * t, 1, df)
    if want >= 1e-300:
        assert relative_error(p, want) <= 1e-9
    else:
        assert p < 1e-299
    p = stats._f_tail(f, d1, df)
    want = scipy_f_tail(f, d1, df)
    if want >= 1e-100:
        assert relative_error(p, want) <= 1e-9
    else:
        assert p < 1e-100 * (1 + 1e-9)


def test_ols_p_values_agree_with_scipy():
    rng = random.Random(84)
    n = 60
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(3)}
    y = [0.4 * cols["f0"][i] + rng.gauss(0, 1) for i in range(n)]
    fit = ols_fit(matrix_from(cols, y))
    for label, p in fit.p_values.items():
        want = scipy_f_tail(fit.t_values[label] ** 2, 1, fit.df_resid)
        assert relative_error(p, want) <= 1e-9
    want = scipy_f_tail(fit.f_statistic, fit.df_model, fit.df_resid)
    assert relative_error(fit.f_p_value, want) <= 1e-9


def test_ols_zero_residual_fit_is_quiet_and_defined():
    # The suite turns warnings into errors, so a numpy divide warning fails here.
    fit = ols_fit(matrix_from({"x": [1.0, 2, 3, 4, 5]}, [3.0, 5, 7, 9, 11]))
    assert set(fit.std_errors.values()) == {0.0}
    assert fit.t_values == {"(Intercept)": math.inf, "x": math.inf}
    assert fit.p_values == {"(Intercept)": 0.0, "x": 0.0}
    assert (fit.f_statistic, fit.f_p_value) == (math.inf, 0.0)
    # Here the swept RSS rounds to -1.8e-15, which is clamped at 0.
    x = [10.0, 1, 5, 9]
    fit = ols_fit(matrix_from({"x": x}, [v / 3 + 1 for v in x]))
    assert (fit.residual_se, fit.r_squared) == (0.0, 1.0)
    assert set(fit.std_errors.values()) == {0.0}
    # An estimate of exactly 0 with an SE of 0 has a t of 0/0: nan, shown as --.
    m = matrix_from({"x": [-1.0, 0.0, 1.0]}, [-1.0, 0.0, 1.0])
    fit = ols_fit(m)
    assert (fit.estimates["(Intercept)"], fit.std_errors["(Intercept)"]) == (0.0, 0.0)
    assert math.isnan(fit.t_values["(Intercept)"])
    assert math.isnan(fit.p_values["(Intercept)"])
    assert (fit.t_values["x"], fit.p_values["x"]) == (math.inf, 0.0)
    report = format_report(run_pipeline(m))
    row = next(line for line in report.splitlines() if line.startswith("(Intercept)"))
    assert row.split()[1:] == ["0.0000", "0.0000", "--", "--", "--"]
    assert "nan" not in report


def test_ols_residuals_orthogonal_to_predictors():
    rng = random.Random(82)
    n = 90
    cols = {f"f{j}": [rng.gauss(0, 1) for _ in range(n)] for j in range(4)}
    y = [sum(cols[f"f{j}"][i] for j in range(4)) + rng.gauss(0, 2) for i in range(n)]
    m = matrix_from(cols, y)
    fit = ols_fit(m)
    x, yv = m.complete(m.names)
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


@pytest.mark.parametrize(
    "ids, shape, problem",
    [
        (["t0", "t1"], (1, 3), "ids and target lengths disagree"),
        (["t0", "t1", "t2"], (1, 2), "columns shape disagrees with names and target"),
        (["t0", "t1", "t2"], (3, 1), "columns shape disagrees with names and target"),
        (["t0", "t1", "t2"], (3,), "columns shape disagrees with names and target"),
    ],
    ids=["ids", "columns-short", "columns-transposed", "columns-flat"],
)
def test_feature_matrix_refuses_parts_that_disagree(ids, shape, problem):
    with pytest.raises(ValueError, match=f"^{problem}$"):
        FeatureMatrix(ids=ids, names=["a"], columns=np.zeros(shape), target=np.zeros(3))


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
    sc.write_text("filename,score\na,1\nb,2\nc,3\nd,\ne,4\n", encoding="utf-8")
    m = load_feature_matrix(idx, sc)
    assert np.array_equal(m.columns[m.names.index("f")], [math.nan, 1.5, 2.5, 4], equal_nan=True)
    assert m.ids == ["a", "b", "c", "e"]  # a blank score drops its row


def test_load_feature_matrix_counts_the_rows_its_join_left_out(tmp_path):
    # d's score is blank, x has no scores row, and y and z (blank) match no text.
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("filename,f\na,1\nb,2\nd,3\nx,4\n", encoding="utf-8")
    sc.write_text("filename,score\na,1\nb,2\nd,\ny,5\nz,\n", encoding="utf-8")
    m = load_feature_matrix(idx, sc)
    assert m.ids == ["a", "b"]
    assert (m.no_scores_row, m.blank_score, m.unmatched_scores) == (1, 1, 2)


def test_load_feature_matrix_reads_ascii_signs_spaces_and_exponents(tmp_path):
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("filename,f\na,+5\nb, 5\nc,1e3\nd,-2.5E-1\n", encoding="utf-8")
    sc.write_text("filename,score\na,1\nb,2\nc, +3 \nd,4\n", encoding="utf-8")
    m = load_feature_matrix(idx, sc)
    assert m.columns.tolist() == [[5.0, 5.0, 1000.0, -0.25]]
    assert m.target.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_load_feature_matrix_accepts_bom(tmp_path):
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("\ufefffilename,f\na,1\nb,2\nc,3\n", encoding="utf-8")
    sc.write_text("\ufefffilename,score\na,1\nb,2\nc,3\n", encoding="utf-8")
    m = load_feature_matrix(idx, sc)
    assert m.ids == ["a", "b", "c"]
    assert m.names == ["f"]


@pytest.mark.parametrize("which", ["indices", "scores"])
def test_load_feature_matrix_names_a_file_that_is_not_utf8(tmp_path, which):
    paths = {name: tmp_path / f"{name}.csv" for name in ("indices", "scores")}
    paths["indices"].write_bytes(b"filename,f\na,1\nb,2\nc,3\n")
    paths["scores"].write_bytes(b"filename,score\na,1\nb,2\nc,3\n")
    paths[which].write_bytes(paths[which].read_bytes().replace(b"b,2", b"b,\xff"))
    with pytest.raises(ValueError) as info:
        load_feature_matrix(paths["indices"], paths["scores"])
    assert str(info.value).startswith(f"{paths[which]}: 'utf-8' codec can't decode byte 0xff")


def test_load_feature_matrix_composite(tmp_path):
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("filename,f\na,1\nb,2\nc,3\nd,4\n", encoding="utf-8")
    sc.write_text(
        "filename,syntax,vocab\na,1,3\nb,2,4\nc,3,5\nd,4,\n", encoding="utf-8"
    )
    m = load_feature_matrix(idx, sc, score_columns=["syntax", "vocab"])
    assert m.target.tolist() == [2.0, 3.0, 4.0]  # d, blank in one score column, has no score


def test_load_feature_matrix_composite_adds_left_to_right(tmp_path):
    # 1e16 + 1 rounds to 1e16, so the plain sum is 0.0; a compensated sum,
    # as Python 3.12's sum() takes, would give a mean of 1/3.
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("filename,f\na,1\n", encoding="utf-8")
    sc.write_text("filename,p,q,r\na,1e16,1,-1e16\n", encoding="utf-8")
    m = load_feature_matrix(idx, sc, score_columns=["p", "q", "r"])
    assert m.target.tolist() == [0.0]


def test_load_feature_matrix_needs_a_score_column(tmp_path):
    idx = tmp_path / "i.csv"
    sc = tmp_path / "s.csv"
    idx.write_text("filename,f\na,1\n", encoding="utf-8")
    sc.write_text("filename,score\na,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^no score column named$"):
        load_feature_matrix(idx, sc, score_columns=[])


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


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 6),
    n=st.integers(12, 60),
    seed=st.integers(0, 2**32 - 1),
    missing=st.sampled_from([0.0, 0.1]),
    scaled=st.integers(0, 5),
    factor=st.sampled_from([4.0, 0.125, 1024.0]),
)
def test_scaling_a_column_by_a_power_of_two_scales_only_its_estimate(
    k, n, seed, missing, scaled, factor
):
    # A power-of-two factor scales every float the column enters exactly, so
    # a rule that is not scale-relative (a tolerance, say) shows as a change
    # in the bits of some r, VIF survivor, AIC, t, p or LMG share.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n))
    x[-1] += rng.uniform(0.0, 4.0) * x[0]  # collinear enough, at times, for VIF to prune
    y = rng.uniform(-1.0, 1.0, k) @ x + rng.standard_normal(n)
    x[rng.random((k, n)) < missing] = math.nan
    ids, names, name = [f"t{i}" for i in range(n)], [f"f{j}" for j in range(k)], f"f{scaled % k}"
    base = run_pipeline(FeatureMatrix(ids, names, x, y))
    x[scaled % k] *= factor
    result = run_pipeline(FeatureMatrix(ids, names, x, y))
    if result.summary is not None and name in result.summary.estimates:
        for values in (result.summary.estimates, result.summary.std_errors):
            values[name] *= factor  # exact, so this undoes an exact division
    assert repr(asdict(result)) == repr(asdict(base))


def test_run_pipeline_without_a_candidate_fits_the_intercept_on_every_row():
    rng = random.Random(27)
    target = [rng.gauss(5.0, 2.0) for _ in range(12)]
    f = feature_with_r(rng, target, 0.5)
    f[3] = f[8] = None  # a missing cell drops no row when f is not modelled
    result = run_pipeline(matrix_from({"f": f}, target), r_threshold=1.0)
    assert result.filtered == result.excluded_sparse == result.vif_kept == []
    assert result.n_dropped_missing == 0
    selection, summary = result.selection, result.summary
    tss = float(sum((t - np.mean(target)) ** 2 for t in target))
    assert (selection.best, selection.n_models) == ((), 1)
    assert selection.candidates == [((), selection.best_aic)]
    assert selection.best_aic == pytest.approx(aic(12, tss, 0), rel=1e-12)
    assert (summary.predictors, summary.df_model, summary.n_obs) == ([], 0, 12)
    assert summary.estimates["(Intercept)"] == pytest.approx(np.mean(target), rel=1e-12)
    assert (summary.r_squared, summary.lmg_shares, summary.f_statistic) == (0.0, {}, None)
    report = format_report(result)
    assert "\nModel selection: 1 of 1 models " in report
    assert "\nNote: no feature passed the bivariate filter; intercept-only model\n" in report
    assert "\nSelected model (0 predictors, n = 12)\n" in report


def test_sparse_exclusion_keeps_the_last_candidate():
    # a, b and c each hold 3 of the 9 rows, so no two share a complete row.
    # Tied on missing cells, the later goes first: c, then b; a stays.
    cols = {
        "a": [1.0, 2.0, 4.0] + [None] * 6,
        "b": [None] * 3 + [3.0, 1.0, 2.0] + [None] * 3,
        "c": [None] * 6 + [2.0, 5.0, 3.0],
    }
    target = [1.0, 3.0, 4.0, 6.0, 2.0, 5.0, 2.0, 9.0, 4.0]
    result = run_pipeline(matrix_from(cols, target), r_threshold=0.0)
    assert result.filtered == ["a", "b", "c"]
    assert result.excluded_sparse == ["c", "b"]
    assert result.vif_kept == ["a"]
    assert (result.n_dropped_missing, result.summary.n_obs) == (6, 3)
    notes = [line for line in format_report(result).splitlines() if line.startswith("Note: ")]
    assert notes == ["Note: excluded as too sparse to model: c, b"]


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
