import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpusgen
from asc_toolkit.cli import resolve_source
from asc_toolkit.indices import (
    INDEX_NAMES,
    IndexConfig,
    _window_types,
    compute_all,
    compute_from_tags,
    diversity_indices,
    dp_lemma,
    dp_structure,
    frequency_index,
    mattr,
    mi,
    proportion_indices,
    soa_indices,
    t_score,
)
from asc_toolkit.ingest import Document, parse_conllu
from asc_toolkit.norms import ContingencyCells, NormTable, contingency, load_norms, save_norms
from asc_toolkit.tagger import ASC_TYPES, AscToken, tag_document


def naive_mattr(seq, w):
    """Independent oracle: enumerate every window explicitly."""
    n = len(seq)
    if n < w + 1:
        return None
    acc = 0.0
    for i in range(n - w + 1):
        acc += len(set(seq[i : i + w])) / w
    return acc / (n - w + 1)


def make_tags(pairs):
    return [
        AscToken(asc_type=c, verb_token_id=i + 1, verb_lemma=v, sentence_index=i, source_id="t")
        for i, (c, v) in enumerate(pairs)
    ]


def test_mattr_single_type():
    assert mattr(list("AAAA"), 3) == pytest.approx((1 / 3 + 1 / 3) / 2)


def test_mattr_enumerated():
    # windows {A,B,A} -> 2/3 and {B,A,C} -> 1
    assert mattr(list("ABAC"), 3) == pytest.approx((2 / 3 + 1.0) / 2)


def test_mattr_gate_requires_w_plus_one():
    assert mattr(list(range(11)), 11) is None
    assert mattr(list(range(12)), 11) is not None


def test_mattr_rejects_tiny_window():
    with pytest.raises(ValueError):
        mattr(list("ABAB"), 1)


def test_mattr_matches_oracle_bitwise():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 60)
        alphabet = rng.randint(1, 8)
        w = rng.randint(2, 12)
        seq = [rng.randrange(alphabet) for _ in range(n)]
        assert mattr(seq, w) == naive_mattr(seq, w)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alphabet=st.integers(1, 20), w=st.integers(2, 15))
def test_window_type_counts_equal_a_set_per_window(data, alphabet, w):
    n = data.draw(st.integers(w + 1, 200))
    seq = data.draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    assert list(_window_types(seq, w)) == [len(set(seq[i : i + w])) for i in range(n - w + 1)]


def test_diversity_single_type():
    out = diversity_indices(["TRAN_S"] * 12, [("TRAN_S", "eat")] * 12, 11)
    assert out["ascMATTR"] == pytest.approx(1 / 11)
    assert out["ascLemmaMATTR"] == pytest.approx(1 / 11)
    assert out["ascLemmaMATTRNoBe"] == pytest.approx(1 / 11)


def test_diversity_no_be_filter_shortens_sequence():
    pairs = [("ATTR", "be")] * 3 + [("TRAN_S", "eat")] * 9
    out = diversity_indices([c for c, _ in pairs], pairs, 11)
    assert out["ascMATTR"] is not None
    assert out["ascLemmaMATTR"] is not None
    assert out["ascLemmaMATTRNoBe"] is None  # 9 < 12 after dropping be


def test_diversity_empty():
    out = diversity_indices([], [], 11)
    assert list(out.values()) == [None, None, None]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alphabet=st.integers(1, 20), w=st.integers(2, 15))
def test_mattr_lies_in_the_unit_interval(data, alphabet, w):
    n = data.draw(st.integers(w + 1, 200))
    seq = data.draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    assert 0 < mattr(seq, w) <= 1


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(ASC_TYPES), st.sampled_from(["be", "eat", "give", "run"])),
        max_size=60,
    ),
    w=st.integers(2, 15),
)
def test_diversity_values_are_missing_or_in_the_unit_interval(pairs, w):
    out = diversity_indices([c for c, _ in pairs], pairs, w)
    assert all(v is None or 0 < v <= 1 for v in out.values())


def test_proportions_direct_count():
    out = proportion_indices(["TRAN_S", "TRAN_S", "ATTR", "PASSIVE"])
    assert out["TRAN_S_Prop"] == 0.5
    assert out["ATTR_Prop"] == 0.25
    assert out["PASSIVE_Prop"] == 0.25
    zeros = [v for k, v in out.items() if k not in ("TRAN_S_Prop", "ATTR_Prop", "PASSIVE_Prop")]
    assert zeros == [0.0] * 6


def test_proportions_single_token():
    out = proportion_indices(["DITRAN"])
    assert out["DITRAN_Prop"] == 1.0
    assert sum(v for v in out.values()) == 1.0


def test_proportions_empty_is_missing():
    out = proportion_indices([])
    assert all(v is None for v in out.values())


def test_proportions_sum_to_one():
    rng = random.Random(4)
    for _ in range(50):
        out = proportion_indices([rng.choice(ASC_TYPES) for _ in range(rng.randint(1, 40))])
        assert abs(sum(out.values()) - 1.0) <= 1e-12


def test_frequency_index_values():
    lookup = {"a": 5, "b": 10, "c": 100, "d": 4}
    assert frequency_index(["a"], lookup, 5) == pytest.approx(math.log(5))
    assert frequency_index(["b", "c"], lookup, 5) == pytest.approx(
        (math.log(10) + math.log(100)) / 2
    )
    assert frequency_index(["d", "d"], lookup, 5) is None
    assert frequency_index(["missing"], lookup, 5) is None
    # below-threshold tokens leave both the sum and the denominator
    assert frequency_index(["b", "d"], lookup, 5) == pytest.approx(math.log(10))


def _left_to_right(values):
    acc = 0.0
    for v in values:
        acc += v
    return acc


def test_means_add_left_to_right():
    # From Python 3.12, sum() compensates float sums.  On these values the
    # plain and compensated sums differ, and every mean takes the plain one.
    logs = [math.log(n) for n in (5, 6, 8)]
    assert _left_to_right(logs) != math.fsum(logs)
    assert frequency_index(["a", "b", "c"], {"a": 5, "b": 6, "c": 8}, 1) == _left_to_right(logs) / 3
    norm = NormTable({("ATTR", "be"): 1})
    for lemma, v in zip("xyz", [1e16, 1.0, -1e16]):  # plain sum 0.0, compensated 1.0
        norm.pair_scores[("ATTR", lemma)] = (v, v, v, v)
    out = soa_indices([("ATTR", lemma) for lemma in "xyz"], norm)
    assert out["ascAvMI"] == out["ATTR_AvDeltaPStructure"] == 0.0


def test_soa_hand_values():
    cells = ContingencyCells(8, 2, 2, 88)
    assert mi(cells) == 3.0
    assert t_score(cells) == pytest.approx(7 / math.sqrt(8), abs=1e-12)
    assert dp_lemma(cells) == pytest.approx(0.8 - 2 / 90, abs=1e-12)
    assert dp_structure(cells) == pytest.approx(0.8 - 2 / 90, abs=1e-12)


def test_soa_independence_is_exactly_zero():
    # a*N == (a+b)(a+c) -> E == a -> MI = T = 0
    cells = ContingencyCells(4, 4, 4, 4)
    assert mi(cells) == 0.0
    assert t_score(cells) == 0.0


def test_soa_undefined_at_zero_pair_count():
    cells = ContingencyCells(0, 5, 10, 85)
    assert mi(cells) is None
    assert t_score(cells) is None
    assert dp_lemma(cells) == pytest.approx(0 / 5 - 10 / 95)
    assert dp_structure(cells) == pytest.approx(0 / 10 - 5 / 90)


def test_soa_perfect_association():
    cells = ContingencyCells(1, 0, 0, 0)
    assert dp_lemma(cells) == 1.0
    assert dp_structure(cells) == 1.0


def test_dp_bounds_random_cells():
    rng = random.Random(17)
    for _ in range(200):
        a, b, c, d = (rng.randint(0, 50) for _ in range(4))
        if a + b + c + d == 0:
            continue
        cells = ContingencyCells(a, b, c, d)
        assert -1.0 <= dp_lemma(cells) <= 1.0
        assert -1.0 <= dp_structure(cells) <= 1.0


def four_pair_norm():
    return NormTable(
        pair_counts={
            ("TRAN_S", "eat"): 8,
            ("INTRAN_S", "eat"): 2,
            ("TRAN_S", "see"): 2,
            ("INTRAN_S", "run"): 88,
        },
        source="unit",
    )


def test_soa_indices_identical_tokens():
    norm = four_pair_norm()
    out = soa_indices([("TRAN_S", "eat")] * 3, norm)
    assert out["ascAvMI"] == 3.0
    assert out["TRAN_S_AvMI"] == 3.0
    assert out["ascAvT"] == pytest.approx(7 / math.sqrt(8))
    for tag in ASC_TYPES:
        if tag != "TRAN_S":
            assert out[f"{tag}_AvMI"] is None


def test_soa_indices_mean_over_tokens():
    # (TRAN_S, eat) has cells (8,2,2,88) -> MI 3; (INTRAN_S, run) has
    # cells (2,8,8,82) -> MI 1; the text-level index is their mean.
    norm = NormTable(
        pair_counts={
            ("TRAN_S", "eat"): 8,
            ("INTRAN_S", "eat"): 2,
            ("TRAN_S", "see"): 2,
            ("INTRAN_S", "run"): 2,
            ("PASSIVE", "run"): 8,
            ("INTRAN_S", "sleep"): 6,
            ("ATTR", "be"): 72,
        },
        source="unit",
    )
    out = soa_indices([("TRAN_S", "eat"), ("INTRAN_S", "run")], norm)
    assert mi(ContingencyCells(8, 2, 2, 88)) == 3.0
    assert mi(ContingencyCells(2, 8, 8, 82)) == 1.0
    assert out["ascAvMI"] == pytest.approx(2.0)


def test_soa_unattested_pair_excluded_from_mi_t_only():
    norm = four_pair_norm()
    out = soa_indices([("TRAN_S", "eat"), ("TRAN_S", "zzz")], norm)
    assert out["ascAvMI"] == 3.0  # zzz token dropped from MI mean
    dpl_eat = dp_lemma(ContingencyCells(8, 2, 2, 88))
    dpl_zzz = dp_lemma(ContingencyCells(0, 0, 10, 90))
    assert out["ascAvDeltaPLemma"] == pytest.approx((dpl_eat + dpl_zzz) / 2)


def rescanned_soa(pairs, norm):
    """soa_indices by its definition: score each token, then one scan per mean."""
    per_token = []
    for asc_type, lemma in pairs:
        cells = contingency(norm, asc_type, lemma)
        per_token.append(
            (
                asc_type,
                {
                    "MI": mi(cells),
                    "T": t_score(cells),
                    "DeltaPLemma": dp_lemma(cells),
                    "DeltaPStructure": dp_structure(cells),
                },
            )
        )

    def mean(values):
        return sum(values) / len(values) if values else None

    out = {}
    for m in ("MI", "T", "DeltaPLemma", "DeltaPStructure"):
        out[f"ascAv{m}"] = mean([v[m] for _, v in per_token if v[m] is not None])
    for tag in ASC_TYPES:
        for m in ("MI", "T", "DeltaPLemma", "DeltaPStructure"):
            out[f"{tag}_Av{m}"] = mean(
                [v[m] for t, v in per_token if t == tag and v[m] is not None]
            )
    return out


# Every corpusgen verb (swing and burst are missing from the demo table), a
# lemma no table has, and a type outside the nine, which counts only overall.
_LEMMAS = sorted({v for pool in corpusgen.VERBS.values() for v in pool} | {"zzz"})
_TYPES = [*ASC_TYPES, "OTHER"]


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(_TYPES), st.sampled_from(_LEMMAS)), max_size=60))
def test_soa_indices_equal_the_rescanning_definition(pairs):
    norm = load_norms(resolve_source("demo"))
    out = soa_indices(pairs, norm)
    expected = rescanned_soa(pairs, norm)
    assert len(expected) == 4 + 4 * len(ASC_TYPES)
    assert out == expected  # exact: same values summed in the same order


def _saved(norm, directory):
    path = directory / "norm.tsv"
    with open(path, "w", encoding="utf-8", newline="") as out:
        save_norms(norm, out)
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.tuples(st.sampled_from(_TYPES), st.sampled_from(_LEMMAS)), max_size=40),
        min_size=1,
        max_size=8,
    ),
    min_ref_freq=st.sampled_from([1, 5]),
    window=st.sampled_from([2, 11]),
)
def test_one_norm_serving_many_texts_scores_each_as_a_fresh_norm(
    texts, min_ref_freq, window, tmp_path_factory
):
    """The per-run score table changes no value, and no part of the table's identity."""
    path = resolve_source("demo")
    norm, cfg = load_norms(path), IndexConfig(window=window, min_ref_freq=min_ref_freq)
    for pairs in texts:
        out = compute_from_tags(make_tags(pairs), norm, cfg)
        assert out == compute_from_tags(make_tags(pairs), load_norms(path), cfg)
        for name, lookup, keys in (
            ("ascAvFreq", norm.type_counts, [c for c, _ in pairs]),
            ("ascLemmaAvFreq", norm.pair_counts, pairs),
        ):
            logs = [math.log(lookup[k]) for k in keys if lookup.get(k, 0) >= min_ref_freq]
            assert out[name] == (sum(logs) / len(logs) if logs else None)
    fresh = load_norms(path)
    assert norm.pair_scores or not any(texts)  # the table was filled
    assert norm == fresh
    assert repr(norm) == repr(fresh)
    assert pickle.dumps(norm) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(norm))
    assert copy == norm and not copy.pair_scores
    directory = tmp_path_factory.mktemp("norms")
    assert _saved(norm, directory) == _saved(fresh, directory)


def test_compute_all_empty_document():
    doc = Document(source_id="x", sentences=[])
    out = compute_all(doc, four_pair_norm())
    assert list(out.keys()) == list(INDEX_NAMES)
    assert all(v is None for v in out.values())


def test_compute_from_tags_keys_come_in_index_name_order():
    # Four types present and five absent, so both branches of each family fill keys.
    tags = make_tags(
        [("TRAN_S", "eat"), ("DITRAN", "give"), ("TRAN_S", "see"), ("ATTR", "be"),
         ("INTRAN_S", "run"), ("DITRAN", "give")] * 3
    )
    out = compute_from_tags(tags, four_pair_norm())
    assert list(out) == list(INDEX_NAMES)
    assert out["TRAN_S_AvMI"] is not None and out["PASSIVE_AvMI"] is None


def test_compute_all_single_ditran(tmp_path):
    text = (
        "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tgave\tgive\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\thim\the\tPRON\t_\t_\t2\tiobj\t_\t_\n"
        "4\ta\ta\tDET\t_\t_\t5\tdet\t_\t_\n"
        "5\tbook\tbook\tNOUN\t_\t_\t2\tobj\t_\t_\n"
    )
    norm = NormTable(
        pair_counts={("DITRAN", "give"): 6, ("TRAN_S", "take"): 14}, source="unit"
    )
    out = compute_all(parse_conllu(text), norm)
    assert out["DITRAN_Prop"] == 1.0
    assert out["ascMATTR"] is None
    cells = ContingencyCells(6, 0, 0, 14)
    assert out["ascAvMI"] == mi(cells)
    assert out["DITRAN_AvMI"] == mi(cells)
    assert out["ascAvT"] == t_score(cells)
    assert out["ascAvDeltaPLemma"] == dp_lemma(cells)
    assert out["ascAvDeltaPStructure"] == dp_structure(cells)
    assert out["ascAvFreq"] == pytest.approx(math.log(6))
    assert out["ascLemmaAvFreq"] == pytest.approx(math.log(6))


def test_compute_all_matches_componentwise_recomputation():
    corpus = corpusgen.make_corpus(seed=31, n_sentences=30)
    doc = parse_conllu(corpus, source_id="t")
    norm = four_pair_norm()
    cfg = IndexConfig()
    out = compute_all(doc, norm, cfg)
    tags = tag_document(doc)
    types, pairs = [t.asc_type for t in tags], [t.pair() for t in tags]
    expect = {}
    expect.update(diversity_indices(types, pairs, cfg.window))
    expect.update(proportion_indices(types))
    expect["ascAvFreq"] = frequency_index(types, norm.type_counts, cfg.min_ref_freq)
    expect["ascLemmaAvFreq"] = frequency_index(pairs, norm.pair_counts, cfg.min_ref_freq)
    expect.update(soa_indices(pairs, norm))
    assert out == {name: expect[name] for name in INDEX_NAMES}


def test_compute_all_deterministic():
    corpus = corpusgen.make_corpus(seed=8, n_sentences=40)
    doc = parse_conllu(corpus, source_id="t")
    norm = four_pair_norm()
    assert compute_all(doc, norm) == compute_all(doc, norm)


def test_scaling_norm_counts_invariance():
    corpus = corpusgen.make_corpus(seed=12, n_sentences=60)
    doc = parse_conllu(corpus, source_id="t")
    base = corpusgen_norm(seed=13)
    scaled = NormTable(
        pair_counts={k: 7 * v for k, v in base.pair_counts.items()}, source="scaled"
    )
    a = compute_all(doc, base)
    b = compute_all(doc, scaled)
    for name in INDEX_NAMES:
        va, vb = a[name], b[name]
        if "AvT" in name or "AvFreq" in name:
            continue  # t-score and frequency are scale-sensitive by design
        if va is None or vb is None:
            assert va == vb, name
        else:
            assert va == pytest.approx(vb, abs=1e-12), name


def corpusgen_norm(seed):
    from asc_toolkit.norms import build_norms

    corpus = corpusgen.make_corpus(seed=seed, n_sentences=300)
    return build_norms([parse_conllu(corpus, source_id="ref")], "ref")


def test_freq_floor_invariant():
    norm = corpusgen_norm(seed=41)
    corpus = corpusgen.make_corpus(seed=42, n_sentences=50)
    doc = parse_conllu(corpus, source_id="t")
    cfg = IndexConfig()
    out = compute_all(doc, norm, cfg)
    for name in ("ascAvFreq", "ascLemmaAvFreq"):
        if out[name] is not None:
            assert out[name] >= math.log(cfg.min_ref_freq)


def test_index_config_validation():
    with pytest.raises(ValueError):
        IndexConfig(window=1)
    with pytest.raises(ValueError):
        IndexConfig(min_ref_freq=0)


def test_compute_from_tags_equals_compute_all():
    corpus = corpusgen.make_corpus(seed=77, n_sentences=25)
    doc = parse_conllu(corpus, source_id="t")
    norm = four_pair_norm()
    assert compute_from_tags(tag_document(doc), norm) == compute_all(doc, norm)
