"""Deterministic synthetic CoNLL-U corpora for tests and the bundled demo norms.

Sentences are built from fixed templates, one per construction type, with
verbs drawn Zipf-style from small per-type pools.  Everything is driven by a
seeded random.Random, so identical seeds give byte-identical corpora.
"""

from __future__ import annotations

import random

NOUNS = [
    "dog", "cat", "teacher", "student", "child", "letter", "book", "ball",
    "car", "story", "house", "door", "window", "cake", "song", "report",
    "player", "farmer", "nurse", "driver",
]

VERBS = {
    "ATTR": ["be"],
    "TRAN_S": ["make", "see", "take", "read", "eat", "watch", "find", "like"],
    "INTRAN_S": ["sleep", "laugh", "bark", "cry", "wait", "smile"],
    "DITRAN": ["give", "send", "offer", "show", "tell", "hand"],
    "CAUS_MOT": ["put", "throw", "push", "move", "place", "drive"],
    "INTRAN_MOT": ["go", "come", "walk", "travel", "jump", "march"],
    "INTRAN_RES": ["break", "slam", "swing", "snap", "burst"],
    "PASSIVE": ["break", "eat", "write", "build", "steal", "repair"],
    "TRAN_RES": ["paint", "wipe", "hammer", "sweep", "knock"],
}

ADJECTIVES = ["happy", "blue", "tall", "red", "clean", "flat", "smooth", "dry"]
RESULT_ADVERBS = ["shut", "apart", "open", "loose", "free"]
PLACES = ["store", "school", "park", "kitchen", "garden", "yard"]

DEFAULT_TYPE_WEIGHTS = {
    "TRAN_S": 0.30, "ATTR": 0.18, "INTRAN_S": 0.15, "INTRAN_MOT": 0.10,
    "PASSIVE": 0.08, "DITRAN": 0.07, "CAUS_MOT": 0.07, "TRAN_RES": 0.03,
    "INTRAN_RES": 0.02,
}


def _zipf_pick(rng: random.Random, items: list[str], flat: float = 0.0) -> str:
    """Rank-weighted choice; flat=1 is uniform, flat=0 strongly favors rank 0."""
    weights = [(1.0 - flat) / (rank + 1) + flat for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=1)[0]


def _tok(i, form, lemma, upos, head, deprel):
    return f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def make_sentence(rng: random.Random, asc_type: str, verb_flat: float = 0.0) -> str:
    """One CoNLL-U sentence block instantiating the given construction."""
    verb = _zipf_pick(rng, VERBS[asc_type], verb_flat)
    subj = rng.choice(NOUNS)
    lines = []
    if asc_type == "ATTR":
        adj = rng.choice(ADJECTIVES)
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 4, "nsubj"),
            _tok(3, "is", "be", "AUX", 4, "cop"),
            _tok(4, adj, adj, "ADJ", 0, "root"),
            _tok(5, ".", ".", "PUNCT", 4, "punct"),
        ]
    elif asc_type == "TRAN_S":
        obj = rng.choice(NOUNS)
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, "the", "the", "DET", 5, "det"),
            _tok(5, obj, obj, "NOUN", 3, "obj"),
            _tok(6, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif asc_type == "INTRAN_S":
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif asc_type == "DITRAN":
        rec, theme = rng.choice(NOUNS), rng.choice(NOUNS)
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, "the", "the", "DET", 5, "det"),
            _tok(5, rec, rec, "NOUN", 3, "iobj"),
            _tok(6, "the", "the", "DET", 7, "det"),
            _tok(7, theme, theme, "NOUN", 3, "obj"),
            _tok(8, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif asc_type == "CAUS_MOT":
        obj, place = rng.choice(NOUNS), rng.choice(PLACES)
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, "the", "the", "DET", 5, "det"),
            _tok(5, obj, obj, "NOUN", 3, "obj"),
            _tok(6, "into", "into", "ADP", 8, "case"),
            _tok(7, "the", "the", "DET", 8, "det"),
            _tok(8, place, place, "NOUN", 3, "obl"),
            _tok(9, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif asc_type == "INTRAN_MOT":
        place = rng.choice(PLACES)
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, "to", "to", "ADP", 6, "case"),
            _tok(5, "the", "the", "DET", 6, "det"),
            _tok(6, place, place, "NOUN", 3, "obl"),
            _tok(7, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif asc_type == "INTRAN_RES":
        adv = rng.choice(RESULT_ADVERBS)
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, adv, adv, "ADV", 3, "advmod"),
            _tok(5, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif asc_type == "PASSIVE":
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 4, "nsubj:pass"),
            _tok(3, "was", "be", "AUX", 4, "aux:pass"),
            _tok(4, verb + "ed", verb, "VERB", 0, "root"),
            _tok(5, ".", ".", "PUNCT", 4, "punct"),
        ]
    elif asc_type == "TRAN_RES":
        obj, adj = rng.choice(NOUNS), rng.choice(ADJECTIVES)
        lines = [
            _tok(1, "The", "the", "DET", 2, "det"),
            _tok(2, subj, subj, "NOUN", 3, "nsubj"),
            _tok(3, verb + "ed", verb, "VERB", 0, "root"),
            _tok(4, "the", "the", "DET", 5, "det"),
            _tok(5, obj, obj, "NOUN", 3, "obj"),
            _tok(6, adj, adj, "ADJ", 3, "xcomp"),
            _tok(7, ".", ".", "PUNCT", 3, "punct"),
        ]
    else:
        raise ValueError(f"unknown construction type {asc_type}")
    return "\n".join(lines) + "\n"


def make_corpus(
    seed: int,
    n_sentences: int,
    type_weights: dict[str, float] | None = None,
    verb_flat: float = 0.0,
) -> str:
    """A CoNLL-U corpus string of n_sentences template sentences."""
    rng = random.Random(seed)
    weights = type_weights or DEFAULT_TYPE_WEIGHTS
    types = sorted(weights)
    probs = [weights[t] for t in types]
    blocks = []
    for _ in range(n_sentences):
        asc_type = rng.choices(types, weights=probs, k=1)[0]
        blocks.append(make_sentence(rng, asc_type, verb_flat))
    return "\n".join(blocks)


def make_diverse_text(seed: int, n_sentences: int, diversity: float) -> str:
    """A text whose construction/verb variety scales with diversity in [0, 1].

    diversity 0 concentrates all sentences on one construction and its top
    verb; diversity 1 spreads uniformly over all nine types and full pools.
    """
    uniform = {t: 1.0 / 9.0 for t in VERBS}
    concentrated = {t: (1.0 if t == "TRAN_S" else 0.0) for t in VERBS}
    weights = {
        t: (1.0 - diversity) * concentrated[t] + diversity * uniform[t] for t in VERBS
    }
    return make_corpus(seed, n_sentences, type_weights=weights, verb_flat=diversity)


# Filler for the columns the parser reads past.
_FEATS = ["_", "Number=Sing", "Mood=Ind|Tense=Past|VerbForm=Fin"]
_MISC = ["_", "SpaceAfter=No", "Gloss=x|SpaceAfter=No"]


def write_conllu(doc, rng: random.Random) -> str:
    """A parsed Document written back as CoNLL-U text that parses to the same rows.

    Around the words it writes what the parser reads past, drawn from rng:
    comment lines, multiword ranges, empty nodes (one before the first word
    too), and filled XPOS, FEATS, DEPS and MISC columns.  Each line ends in
    LF, CRLF or a lone CR.  It draws from its own rng only, so the other
    generators' output is untouched.
    """
    lines = []
    for k, sentence in enumerate(doc.sentences, start=1):
        text = " ".join(row[1] for row in sentence.rows)
        lines += [f"# sent_id = {k}", f"# text = {text}"][: rng.randint(0, 2)]
        if rng.random() < 0.2:
            lines.append("0.1\tghost\tghost\tVERB\t_\t_\t_\t_\t0:root\t_")
        for word_id, form, lemma, upos, head, deprel in sentence.rows:
            if word_id < len(sentence.rows) and rng.random() < 0.2:
                lines.append(f"{word_id}-{word_id + 1}\t{form}{form}\t_\t_\t_\t_\t_\t_\t_\t_")
            xpos = rng.choice(["_", upos.lower(), "NN"])
            cells = [word_id, form, lemma, upos, xpos, rng.choice(_FEATS), head, deprel]
            lines.append("\t".join(map(str, cells + [f"{head}:{deprel}", rng.choice(_MISC)])))
            if rng.random() < 0.2:
                lines.append(f"{word_id}.1\tghost\tghost\tVERB\t_\t_\t_\t_\t{word_id}:nsubj\t_")
        lines.append("")
    out, end = [], "\n"
    for line in lines:
        # A lone CR and then an empty line's LF would read as one CRLF.
        end = rng.choice(["\r\n", "\r"] if not line and end == "\r" else ["\n", "\r\n", "\r"])
        out.append(line + end)
    return "".join(out)
