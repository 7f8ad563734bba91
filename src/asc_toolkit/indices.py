"""Per-text construction usage indices.

Four families: diversity (moving-average type-token ratios over the tag
sequence), proportion (per-type share of tagged clauses), frequency (mean
log reference frequency), and association strength (MI, t-score and the two
directional delta-P values against reference-corpus norms).

Missing values are represented as None throughout and serialize to empty
CSV cells; they are never conflated with zero.  Means add left to right with
reduce(add, ...), since from Python 3.12 sum() compensates float sums.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, sub
from typing import Hashable, Iterator, Mapping, Sequence

from .ingest import Document
from .norms import ContingencyCells, NormTable, contingency
from .tagger import ASC_TYPES, AscToken, tag_document

SOA_METRICS = ("MI", "T", "DeltaPLemma", "DeltaPStructure")


def _build_index_names() -> tuple[str, ...]:
    names = ["ascMATTR", "ascLemmaMATTR", "ascLemmaMATTRNoBe"]
    names += [f"{t}_Prop" for t in ASC_TYPES]
    names += ["ascAvFreq", "ascLemmaAvFreq"]
    names += [f"ascAv{m}" for m in SOA_METRICS]
    for t in ASC_TYPES:
        names += [f"{t}_Av{m}" for m in SOA_METRICS]
    return tuple(names)


# Canonical per-text index names, in CSV column order (54 entries).
INDEX_NAMES: tuple[str, ...] = _build_index_names()


def soa_family(name: str) -> str | None:
    """Family of an association index as _build_index_names spells it:
    'asc' for ascAv{m}, the type tag for {type}_Av{m}, None for any other name."""
    for m in SOA_METRICS:
        if name == f"ascAv{m}":
            return "asc"
        if name.endswith(f"_Av{m}"):
            return name[: -len(m) - 3]
    return None

# An index vector maps every canonical name to a float or None (missing).
IndexVector = dict[str, "float | None"]

# Lemmas left out of ascLemmaMATTRNoBe.
BE_LEMMAS = frozenset({"be"})


@dataclass(slots=True)
class IndexConfig:
    window: int = 11
    min_ref_freq: int = 5

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.min_ref_freq < 1:
            raise ValueError(f"min_ref_freq must be >= 1, got {self.min_ref_freq}")


def mattr(seq: Sequence[Hashable], w: int) -> float | None:
    """Moving-average type-token ratio over all w-wide windows.

    Defined only for sequences longer than the window (N >= w + 1); shorter
    input returns None.  Windows are summed left to right so results are
    bit-reproducible.
    """
    if w < 2:
        raise ValueError(f"window must be >= 2, got {w}")
    n = len(seq)
    if n < w + 1:
        return None
    ratio = [d / w for d in range(w + 1)]
    # reduce adds left to right, as a running `acc +=` does (sum need not).
    return reduce(add, map(ratio.__getitem__, _window_types(seq, w))) / (n - w + 1)


def _window_types(seq: Sequence[Hashable], w: int) -> Iterator[int]:
    """The number of distinct symbols in each w-wide window of seq, left to right.

    Needs len(seq) >= w.
    """
    n = len(seq)
    # near[k]: seq[k] also occurs within the w - 1 places before k;
    # stays[j]: seq[j] occurs again within the w - 1 places after j.
    # Sliding the window one place drops seq[i - 1], which leaves a type
    # unless stays[i - 1], and takes in seq[i + w - 1], a new type unless
    # near[i + w - 1]; so the count moves by stays - near.
    near = bytearray(n)
    stays = bytearray(n)
    last: dict[Hashable, int] = {}
    for k, sym in enumerate(seq):
        j = last.get(sym)
        if j is not None and k - j < w:
            near[k] = stays[j] = 1
        last[sym] = k
    return accumulate(map(sub, stays[: n - w], near[w:]), initial=w - sum(near[:w]))


def diversity_indices(
    types: Sequence[str], pairs: Sequence[tuple[str, str]], w: int
) -> IndexVector:
    """MATTR over tags, over (tag, lemma) pairs, and over pairs excluding be."""
    return {
        "ascMATTR": mattr(types, w),
        "ascLemmaMATTR": mattr(pairs, w),
        "ascLemmaMATTRNoBe": mattr([p for p in pairs if p[1] not in BE_LEMMAS], w),
    }


def proportion_indices(types: Sequence[str]) -> IndexVector:
    """Share of tagged clauses per construction type; all None on empty input."""
    n = len(types)
    if n == 0:
        return {f"{t}_Prop": None for t in ASC_TYPES}
    counts = Counter(types)
    return {f"{t}_Prop": counts.get(t, 0) / n for t in ASC_TYPES}


def frequency_index(
    tokens: Sequence[Hashable],
    lookup: Mapping[Hashable, int],
    min_ref_freq: int,
) -> float | None:
    """Mean natural-log reference frequency over tokens meeting the cutoff.

    Tokens absent from the reference, or below min_ref_freq, are excluded
    from both the sum and the denominator; None if nothing survives.
    """
    counts = [f for f in map(lookup.get, tokens, repeat(0)) if f >= min_ref_freq]
    if not counts:
        return None
    return reduce(add, map(math.log, counts), 0.0) / len(counts)


def expected_frequency(cells: ContingencyCells) -> float:
    return (cells.a + cells.b) * (cells.a + cells.c_cell) / cells.total


def mi(cells: ContingencyCells) -> float | None:
    """Pointwise mutual information, log2(a / E); undefined when a = 0."""
    if cells.a == 0:
        return None
    return math.log2(cells.a / expected_frequency(cells))


def t_score(cells: ContingencyCells) -> float | None:
    if cells.a == 0:
        return None
    return (cells.a - expected_frequency(cells)) / math.sqrt(cells.a)


def dp_lemma(cells: ContingencyCells) -> float:
    """P(construction | lemma) - P(construction | other lemmas)."""
    return _frac(cells.a, cells.a + cells.b) - _frac(cells.c_cell, cells.c_cell + cells.d)


def dp_structure(cells: ContingencyCells) -> float:
    """P(lemma | construction) - P(lemma | other constructions)."""
    return _frac(cells.a, cells.a + cells.c_cell) - _frac(cells.b, cells.b + cells.d)


def _frac(num: int, den: int) -> float:
    # Zero denominators only arise in degenerate norm tables; contribute 0.
    return num / den if den else 0.0


def soa_indices(pairs: Sequence[tuple[str, str]], norm: NormTable) -> IndexVector:
    """Token-mean association scores, overall and per construction type.

    pairs holds each tagged token's (construction, lemma) pair, in token
    order.  MI and t-score are undefined for pairs unattested in the
    reference (a = 0); such tokens drop out of those means but still
    contribute to the delta-P means.  Empty means are None.  Each pair is
    scored once per norm table, into norm.pair_scores.
    """
    scores = norm.pair_scores
    # One row of scores per token, in token order, so each mean sums the same
    # values in the same order as a per-metric rescan.
    rows = [scores.get(key) or _score(norm, key) for key in pairs]
    by_type: defaultdict[str, list[tuple[float | None, ...]]] = defaultdict(list)
    for (asc_type, _), vals in zip(pairs, rows):
        by_type[asc_type].append(vals)
    out: IndexVector = {}
    for prefix, group in (("ascAv", rows), *((f"{t}_Av", by_type[t]) for t in ASC_TYPES)):
        # An empty group has no values for any metric, so each mean is None.
        for m, values in zip(SOA_METRICS, zip(*group) if group else repeat(())):
            if None in values:
                values = [v for v in values if v is not None]
            out[prefix + m] = reduce(add, values, 0.0) / len(values) if values else None
    return out


def _score(norm: NormTable, key: tuple[str, str]) -> tuple[float | None, ...]:
    """The four association scores of pair key, kept in norm.pair_scores."""
    cells = contingency(norm, *key)
    vals = norm.pair_scores[key] = (mi(cells), t_score(cells), dp_lemma(cells), dp_structure(cells))
    return vals


def compute_from_tags(
    tags: Sequence[AscToken], norm: NormTable, cfg: IndexConfig | None = None
) -> IndexVector:
    """Fill the full canonical index vector, keyed in INDEX_NAMES order, from tagged tokens."""
    if cfg is None:
        cfg = IndexConfig()
    types = [t.asc_type for t in tags]
    pairs = [(t.asc_type, t.verb_lemma) for t in tags]
    values = diversity_indices(types, pairs, cfg.window)
    values.update(proportion_indices(types))
    values["ascAvFreq"] = frequency_index(types, norm.type_counts, cfg.min_ref_freq)
    values["ascLemmaAvFreq"] = frequency_index(pairs, norm.pair_counts, cfg.min_ref_freq)
    values.update(soa_indices(pairs, norm))
    return values


def compute_all(doc: Document, norm: NormTable, cfg: IndexConfig | None = None) -> IndexVector:
    """Tag the document and fill the full canonical index vector."""
    return compute_from_tags(tag_document(doc), norm, cfg)
