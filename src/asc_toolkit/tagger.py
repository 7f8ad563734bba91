"""Rule-based tagging of nine English argument structure constructions.

Each clause-level construction is keyed to a syntactic frame over basic UD
relations (e.g. the ditransitive is a predicate with nsubj, iobj and obj
dependents).  Rules are checked most-specific-first so a predicate receives
at most one tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .ingest import Document, Row, Sentence

# The nine construction tags, alphabetical.  This order is canonical for all
# per-type output columns.
ASC_TYPES = (
    "ATTR",
    "CAUS_MOT",
    "DITRAN",
    "INTRAN_MOT",
    "INTRAN_RES",
    "INTRAN_S",
    "PASSIVE",
    "TRAN_RES",
    "TRAN_S",
)

# Degree/negation/temporal adverbs never count as a result predicate.
ADVERB_STOPLIST = frozenset(
    {
        "not", "n't", "very", "too", "so", "just", "also",
        "then", "now", "here", "there", "always", "never", "often", "really",
    }
)

# Relations that appear in some construction frame.  A candidate whose only
# frame-relevant dependent is its subject gets the simple intransitive tag.
_FRAME_RELS = frozenset(
    {"cop", "obj", "iobj", "obl", "xcomp", "nsubj:pass", "aux:pass"}
)


@dataclass(slots=True)
class AscToken:
    """One tagged clause: construction type plus its anchor verb lemma."""

    asc_type: str
    verb_token_id: int
    verb_lemma: str
    sentence_index: int
    source_id: str

    def pair(self) -> tuple[str, str]:
        return (self.asc_type, self.verb_lemma)


def normalize_deprel(deprel: str) -> str:
    """Map subtype relations to their base relation (obl:tmod -> obl).

    nsubj:pass and aux:pass are kept exact; collapsing them would make
    passives indistinguishable from actives.
    """
    if deprel in ("nsubj:pass", "aux:pass"):
        return deprel
    return deprel.split(":", 1)[0]


def _first_copula(deps: list[Row]) -> Row | None:
    """The first row of deps, in word order, whose base relation is cop, or None."""
    for d in deps:
        # A label without a colon is its own base relation.
        if d[5] == "cop" or (":" in d[5] and normalize_deprel(d[5]) == "cop"):
            return d
    return None


def tag_sentence(sentence: Sentence, sentence_index: int = 0, source_id: str = "") -> list[AscToken]:
    """Tag every qualifying predicate in one sentence, in word-id order."""
    return _tag([sentence], sentence_index, source_id)


def tag_document(doc: Document) -> list[AscToken]:
    """Tag every sentence of the document, in sentence order, as tag_sentence does.

    Sentences are numbered from doc.first_sentence, so a chunk's tags carry
    their sentences' indices in the whole file.
    """
    return _tag(doc.sentences, doc.first_sentence, doc.source_id)


def _tag(sentences: list[Sentence], first_index: int, source_id: str) -> list[AscToken]:
    """Tag every qualifying predicate of sentences, numbered from first_index, in order.

    Candidates are VERB words and words governing a copula; _classify
    picks each one's frame, if any.  A row is (id, form, lemma, upos, head,
    deprel), so row[0] is the id, row[2] the lemma, row[3] the UPOS and
    row[5] the relation.
    """
    tags: list[AscToken] = []
    for sentence_index, sentence in enumerate(sentences, first_index):
        dep_rows = sentence.dep_rows
        for row in sentence.rows:
            # A word without dependents fits no frame, nor does a non-candidate.
            deps = dep_rows[row[0]]
            if deps is None or (row[3] != "VERB" and _first_copula(deps) is None):
                continue
            # A label without a colon is its own base relation.
            rels = {normalize_deprel(d[5]) if ":" in d[5] else d[5] for d in deps}
            asc_type = _classify(rels, deps)
            if asc_type is None:
                continue
            # An ATTR tag is anchored on its copula, every other tag on its predicate.
            lemma = (_first_copula(deps) if asc_type == "ATTR" else row)[2].lower()
            if not lemma:
                continue
            tags.append(AscToken(asc_type, row[0], lemma, sentence_index, source_id))
    return tags


def _classify(rels: set[str], deps: list[Row]) -> str | None:
    """The frame of a candidate with base relations rels over dependent rows deps.

    First matching frame wins; richer frames are checked before leaner ones.
    Every frame needs an overt subject: nsubj:pass for the passive, nsubj
    for the rest, so conjoined predicates without their own subject never
    match.  A result adverb is an ADV advmod off the stoplist.
    """
    if "nsubj:pass" in rels and "aux:pass" in rels:
        return "PASSIVE"
    if "cop" in rels and "nsubj" in rels:
        return "ATTR"
    if "nsubj" not in rels:
        return None
    if "iobj" in rels and "obj" in rels:
        return "DITRAN"
    if "obj" in rels and "obl" in rels:
        return "CAUS_MOT"
    if "obj" in rels and "xcomp" in rels:
        return "TRAN_RES"
    if "obj" in rels:
        return "TRAN_S"
    if "obl" in rels:
        return "INTRAN_MOT"
    if "advmod" in rels and any(
        normalize_deprel(d[5]) == "advmod"
        and d[3] == "ADV"
        and d[2].lower() not in ADVERB_STOPLIST
        for d in deps
    ):
        return "INTRAN_RES"
    if not (rels & _FRAME_RELS):
        return "INTRAN_S"
    return None


def debug_lines(tags: Iterable[AscToken]) -> Iterator[str]:
    """Tab-separated debug stream: source, sentence, token id, tag, lemma."""
    for t in tags:
        yield f"{t.source_id}\t{t.sentence_index}\t{t.verb_token_id}\t{t.asc_type}\t{t.verb_lemma}"
