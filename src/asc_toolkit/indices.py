"""Per-text construction usage indices.

Four families: diversity (moving-average type-token ratios over the tag
sequence), proportion (per-type share of tagged clauses), frequency (mean
log reference frequency), and association strength (MI, t-score and the two
directional delta-P values against reference-corpus norms).

Missing values are represented as None throughout and serialize to empty
CSV cells; they are never conflated with zero.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
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


def _diversity(
    types: list[str], pairs: list[tuple[str, str]], no_be: list[tuple[str, str]], w: int
) -> IndexVector:
    return {
        "ascMATTR": mattr(types, w),
        "ascLemmaMATTR": mattr(pairs, w),
        "ascLemmaMATTRNoBe": mattr(no_be, w),
    }


def _sequences(
    ascs: Sequence[AscToken],
) -> tuple[list[str], list[tuple[str, str]], list[tuple[str, str]]]:
    """The tag sequence, the (tag, lemma) sequence, and the latter without be."""
    types = [t.asc_type for t in ascs]
    pairs = [(t.asc_type, t.verb_lemma) for t in ascs]
    no_be = [p for p in pairs if p[1] not in BE_LEMMAS]
    return types, pairs, no_be


def diversity_indices(ascs: Sequence[AscToken], cfg: IndexConfig) -> IndexVector:
    """MATTR over tags, over (tag, lemma) pairs, and over pairs excluding be."""
    return _diversity(*_sequences(ascs), cfg.window)


def proportion_indices(ascs: Sequence[AscToken]) -> IndexVector:
    """Share of tagged clauses per construction type; all None on empty input."""
    n = len(ascs)
    if n == 0:
        return {f"{t}_Prop": None for t in ASC_TYPES}
    counts = Counter(t.asc_type for t in ascs)
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
    logs = []
    for sym in tokens:
        f_ref = lookup.get(sym, 0)
        if f_ref >= min_ref_freq:
            logs.append(math.log(f_ref))
    if not logs:
        return None
    return sum(logs) / len(logs)


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


def soa_indices(ascs: Sequence[AscToken], norm: NormTable) -> IndexVector:
    """Token-mean association scores, overall and per construction type.

    MI and t-score are undefined for pairs unattested in the reference
    (a = 0); such tokens drop out of those means but still contribute to
    the delta-P means.  Empty means are None.
    """
    # One list per metric, overall and per type, filled in token order so each
    # mean sums the same values in the same order as a per-metric rescan.
    overall: list[list[float]] = [[] for _ in SOA_METRICS]
    by_type = {t: [[] for _ in SOA_METRICS] for t in ASC_TYPES}
    scores: dict[tuple[str, str], tuple[float | None, ...]] = {}
    for tok in ascs:
        key = (tok.asc_type, tok.verb_lemma)
        vals = scores.get(key)
        if vals is None:
            cells = contingency(norm, tok.asc_type, tok.verb_lemma)
            vals = scores[key] = (mi(cells), t_score(cells), dp_lemma(cells), dp_structure(cells))
        typed = by_type.get(tok.asc_type, ())
        for i, v in enumerate(vals):
            if v is not None:
                overall[i].append(v)
                if typed:
                    typed[i].append(v)
    out: IndexVector = {}
    for m, values in zip(SOA_METRICS, overall):
        out[f"ascAv{m}"] = _mean(values)
    for tag in ASC_TYPES:
        for m, values in zip(SOA_METRICS, by_type[tag]):
            out[f"{tag}_Av{m}"] = _mean(values)
    return out


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


def compute_from_tags(
    tags: Sequence[AscToken], norm: NormTable, cfg: IndexConfig | None = None
) -> IndexVector:
    """Fill the full canonical index vector from an already-tagged token list."""
    if cfg is None:
        cfg = IndexConfig()
    types, pairs, no_be = _sequences(tags)
    values = _diversity(types, pairs, no_be, cfg.window)
    values.update(proportion_indices(tags))
    values["ascAvFreq"] = frequency_index(types, norm.type_counts, cfg.min_ref_freq)
    values["ascLemmaAvFreq"] = frequency_index(pairs, norm.pair_counts, cfg.min_ref_freq)
    values.update(soa_indices(tags, norm))
    return {name: values[name] for name in INDEX_NAMES}


def compute_all(doc: Document, norm: NormTable, cfg: IndexConfig | None = None) -> IndexVector:
    """Tag the document and fill the full canonical index vector."""
    return compute_from_tags(tag_document(doc), norm, cfg)
