"""Seeded inputs for the three benchmark workloads, with what was planted in them.

Every generator is a pure function of its seed: the same seed gives
byte-identical files.  Construction sentences come from
``tests/corpusgen.make_sentence``; the benchmark records the construction and
verb lemma it planted in each sentence, so the output checks can recompute
the program's results without calling the program.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

import corpusgen  # noqa: E402

ASC_TYPES = tuple(sorted(corpusgen.VERBS))
SOA_METRICS = ("MI", "T", "DeltaPLemma", "DeltaPStructure")

# The 54 per-text index names in the column order the CSV format documents,
# written out here rather than imported so the checks stay independent.
INDEX_NAMES = (
    ("ascMATTR", "ascLemmaMATTR", "ascLemmaMATTRNoBe")
    + tuple(f"{t}_Prop" for t in ASC_TYPES)
    + ("ascAvFreq", "ascLemmaAvFreq")
    + tuple(f"ascAv{m}" for m in SOA_METRICS)
    + tuple(f"{t}_Av{m}" for t in ASC_TYPES for m in SOA_METRICS)
)

MATTR_WINDOW = 11


def _line(i: int, form: str, lemma: str, upos: str, head: int, deprel: str) -> str:
    return f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def no_frame_sentence(rng: random.Random) -> str:
    """A sentence no construction rule may tag: a noun fragment or a subjectless imperative."""
    noun = rng.choice(corpusgen.NOUNS)
    if rng.random() < 0.5:
        adj = rng.choice(corpusgen.ADJECTIVES)
        lines = [
            _line(1, "The", "the", "DET", 3, "det"),
            _line(2, adj, adj, "ADJ", 3, "amod"),
            _line(3, noun, noun, "NOUN", 0, "root"),
            _line(4, ".", ".", "PUNCT", 3, "punct"),
        ]
    else:
        verb = rng.choice(corpusgen.VERBS["TRAN_S"])
        lines = [
            _line(1, verb.capitalize(), verb, "VERB", 0, "root"),
            _line(2, "the", "the", "DET", 3, "det"),
            _line(3, noun, noun, "NOUN", 1, "obj"),
            _line(4, ".", ".", "PUNCT", 1, "punct"),
        ]
    return "\n".join(lines) + "\n"


def planted_of(asc_type: str, block: str) -> tuple[str, str]:
    """The (construction, lemma) a corpusgen template sentence carries.

    The anchor lemma is the root's, except for the attributive frame, whose
    anchor is the copula.
    """
    if asc_type == "ATTR":
        return asc_type, "be"
    for line in block.splitlines():
        fields = line.split("\t")
        if fields[6] == "0":
            return asc_type, fields[2].lower()
    raise ValueError("template sentence without a root")


def _type_weights(diversity: float) -> dict[str, float]:
    """corpusgen.make_diverse_text's mix: TRAN_S only at 0, uniform at 1."""
    return {
        t: (1.0 - diversity) * (1.0 if t == "TRAN_S" else 0.0) + diversity / len(ASC_TYPES)
        for t in ASC_TYPES
    }


def _text(
    rng: random.Random, n_sentences: int, weights: dict[str, float], verb_flat: float,
    no_frame_share: float,
) -> tuple[str, list]:
    types = sorted(weights)
    probs = [weights[t] for t in types]
    blocks, planted = [], []
    for _ in range(n_sentences):
        if rng.random() < no_frame_share:
            blocks.append(no_frame_sentence(rng))
            planted.append(None)
            continue
        asc_type = rng.choices(types, weights=probs, k=1)[0]
        block = corpusgen.make_sentence(rng, asc_type, verb_flat)
        blocks.append(block)
        planted.append(planted_of(asc_type, block))
    return "\n".join(blocks), planted


# ---------------------------------------------------------------------------
# analyze-2k: many short essay-like texts.

ANALYZE_TEXTS = 2000
SHORT_TEXT_SHARE = 0.08  # texts of 3..10 sentences, fewer tags than the MATTR window
MAX_NO_FRAME_SHARE = 0.20  # per text, drawn uniformly from [0, this]


@dataclass
class AnalyzeInput:
    files: dict[str, str]  # file name -> CoNLL-U text
    # file name -> per sentence, the planted (construction, lemma), or None
    # for a sentence that carries no construction frame
    planted: dict[str, list]


def analyze_input(seed: int, n_texts: int = ANALYZE_TEXTS) -> AnalyzeInput:
    rng = random.Random(f"analyze-2k:{seed}")
    files, planted = {}, {}
    for i in range(n_texts):
        if rng.random() < SHORT_TEXT_SHARE:
            n_sentences = rng.randint(3, 10)
        else:
            n_sentences = rng.randint(24, 64)
        diversity = rng.random()
        name = f"text{i:04d}.conllu"
        files[name], planted[name] = _text(
            rng, n_sentences, _type_weights(diversity), diversity,
            rng.uniform(0.0, MAX_NO_FRAME_SHARE),
        )
    return AnalyzeInput(files=files, planted=planted)


# ---------------------------------------------------------------------------
# norms-ref: a few dozen long reference files.

NORMS_FILES = 40
NORMS_NO_FRAME_SHARE = 0.05


@dataclass
class NormsInput:
    files: dict[str, str]
    pair_counts: Counter  # (construction, lemma) -> planted count


def norms_input(seed: int, n_files: int = NORMS_FILES, mean_sentences: int = 2500) -> NormsInput:
    rng = random.Random(f"norms-ref:{seed}")
    files: dict[str, str] = {}
    counts: Counter = Counter()
    lo, hi = (mean_sentences * 3) // 5, (mean_sentences * 7) // 5
    # File lengths come in pairs that sum to 2 * mean_sentences, so every seed
    # has the same number of sentences in all: the work per run does not
    # depend on the seed, only its spread over the files does.
    lengths = []
    for _ in range(n_files // 2):
        n = rng.randint(lo, hi)
        lengths += [n, lo + hi - n]
    lengths += [mean_sentences] * (n_files % 2)
    rng.shuffle(lengths)
    for i, n_sentences in enumerate(lengths):
        text, planted = _text(
            rng, n_sentences, corpusgen.DEFAULT_TYPE_WEIGHTS, rng.random(),
            NORMS_NO_FRAME_SHARE,
        )
        files[f"ref{i:02d}.conllu"] = text
        counts.update(p for p in planted if p is not None)
    return NormsInput(files=files, pair_counts=counts)


# ---------------------------------------------------------------------------
# stats-k18: an indices table built directly, with a planted score signal.
#
# Which features reach the AIC scan is fixed by construction:
# - every non-candidate column is made exactly uncorrelated with the score
#   over its non-empty rows, so it fails the |r| >= 0.10 filter;
# - the candidates take at most one member of each association family, so
#   family pruning keeps all of them;
# - each candidate is a planted predictor or a noisy proxy of one (two
#   proxies per predictor), which keeps every VIF near 2.5, below 5;
# - proxies add nothing given their predictor, so AIC takes few of them and
#   the selected model stays well under the 15-predictor LMG cap.

STATS_ROWS = 2000
PLANTED = (
    "ascLemmaMATTR", "TRAN_S_Prop", "ATTR_Prop", "INTRAN_MOT_Prop", "ascAvFreq",
    "ascAvDeltaPLemma",
)
PROXIES = (
    "ascMATTR", "ascLemmaMATTRNoBe", "CAUS_MOT_Prop", "DITRAN_Prop", "INTRAN_RES_Prop",
    "INTRAN_S_Prop", "PASSIVE_Prop", "TRAN_RES_Prop", "ascLemmaAvFreq", "TRAN_S_AvMI",
    "ATTR_AvT", "INTRAN_S_AvDeltaPStructure",
)
CANDIDATES = PLANTED + PROXIES
PROXY_NOISE = 1.2
SCORE_NOISE = 1.5

# Typical location and spread of each index family, so cells look like analyze output.
_SCALE = {
    "MATTR": (0.62, 0.08), "Prop": (0.11, 0.03), "Freq": (4.0, 0.4),
    "MI": (1.2, 0.5), "T": (2.0, 0.8), "DeltaPLemma": (0.25, 0.08),
    "DeltaPStructure": (0.15, 0.06),
}


def _scale_of(name: str) -> tuple[float, float]:
    for key, scale in _SCALE.items():
        if name.endswith(key) or name.endswith(key + "NoBe"):
            return scale
    raise KeyError(name)


def _present(name: str, counts: dict[str, int]) -> bool:
    """Whether analyze would fill this cell for a text with these tag counts."""
    total = sum(counts.values())
    if name in ("ascMATTR", "ascLemmaMATTR"):
        return total > MATTR_WINDOW
    if name == "ascLemmaMATTRNoBe":
        return total - counts.get("ATTR", 0) > MATTR_WINDOW
    prefix = name.split("_Av", 1)[0]
    if prefix in ASC_TYPES:
        return counts.get(prefix, 0) > 0
    return True


@dataclass
class StatsInput:
    indices_csv: str
    scores_csv: str
    planted: tuple[str, ...]
    candidates: tuple[str, ...]


def _fmt(value: float) -> str:
    return format(value, ".6g")


def stats_input(seed: int, n_rows: int = STATS_ROWS, n_candidates: int = len(CANDIDATES)) -> StatsInput:
    """Indices and scores CSVs from which exactly n_candidates features reach the AIC scan."""
    rng = random.Random(f"stats-k18:{seed}")
    planted = PLANTED[: max(1, min(len(PLANTED), n_candidates // 3))]
    candidates = planted + PROXIES[: n_candidates - len(planted)]
    ids = [f"text{i:04d}.conllu" for i in range(n_rows)]
    counts = []
    for _ in range(n_rows):
        n_tags = rng.randint(3, 11) if rng.random() < SHORT_TEXT_SHARE else rng.randint(20, 55)
        weights = _type_weights(rng.random())
        types = rng.choices(ASC_TYPES, weights=[weights[t] for t in ASC_TYPES], k=n_tags)
        counts.append(Counter(types))

    latent = {name: [rng.gauss(0.0, 1.0) for _ in range(n_rows)] for name in planted}
    for j, name in enumerate(candidates[len(planted):]):
        base = latent[planted[j % len(planted)]]
        latent[name] = [b + PROXY_NOISE * rng.gauss(0.0, 1.0) for b in base]
    score = [
        sum(latent[p][i] for p in planted) + SCORE_NOISE * rng.gauss(0.0, 1.0)
        for i in range(n_rows)
    ]
    for name in INDEX_NAMES:
        if name not in latent:
            latent[name] = [rng.gauss(0.0, 1.0) for _ in range(n_rows)]

    columns = {}
    for name in INDEX_NAMES:
        rows = [i for i in range(n_rows) if _present(name, counts[i])]
        z = latent[name]
        if name not in candidates:
            z = _orthogonal_to(z, score, rows)
        loc, spread = _scale_of(name)
        col = [""] * n_rows
        for i in rows:
            col[i] = _fmt(loc + spread * z[i])
        columns[name] = col

    lines = [",".join(("filename",) + INDEX_NAMES)]
    for i, key in enumerate(ids):
        lines.append(",".join([key] + [columns[name][i] for name in INDEX_NAMES]))
    indices_csv = "\n".join(lines) + "\n"
    order = list(range(n_rows))
    rng.shuffle(order)  # the join must not depend on matching row order
    scores_csv = "filename,score\n" + "".join(
        f"{ids[i]},{_fmt(3.0 + 0.4 * score[i])}\n" for i in order
    )
    return StatsInput(indices_csv, scores_csv, planted, candidates)


def _orthogonal_to(z: list[float], y: list[float], rows: list[int]) -> list[float]:
    """z with its least-squares projection on y removed over the given rows."""
    n = len(rows)
    if n < 3:
        return z
    zm = sum(z[i] for i in rows) / n
    ym = sum(y[i] for i in rows) / n
    syy = sum((y[i] - ym) ** 2 for i in rows)
    b = sum((z[i] - zm) * (y[i] - ym) for i in rows) / syy
    out = list(z)
    for i in rows:
        out[i] = z[i] - zm - b * (y[i] - ym)
    sd = math.sqrt(sum(out[i] ** 2 for i in rows) / n) or 1.0
    for i in rows:
        out[i] /= sd
    return out


# ---------------------------------------------------------------------------
# Minimal inputs of each kind, for the fixed cost of one invocation.

def minimal_conllu() -> str:
    return corpusgen.make_sentence(random.Random(0), "TRAN_S")


def minimal_stats() -> tuple[str, str]:
    """Twelve rows with one filled feature column; the other 53 columns are empty."""
    rng = random.Random(0)
    header = ",".join(("filename",) + INDEX_NAMES)
    rows, scores = [header], ["filename,score"]
    for i in range(12):
        x = rng.random()
        rows.append(",".join([f"t{i:02d}.conllu", _fmt(x)] + [""] * (len(INDEX_NAMES) - 1)))
        scores.append(f"t{i:02d}.conllu,{_fmt(2.0 * x + rng.random())}")
    return "\n".join(rows) + "\n", "\n".join(scores) + "\n"


def write_files(directory: Path, files: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
