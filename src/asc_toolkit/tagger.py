"""Rule-based tagging of nine English argument structure constructions.

Each clause-level construction is keyed to a syntactic frame over basic UD
relations (e.g. the ditransitive is a predicate with nsubj, iobj and obj
dependents).  Rules are checked most-specific-first so a predicate receives
at most one tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .ingest import Document, Sentence

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


class _DeprelMemo(dict):
    """normalize_deprel, computed once per distinct relation label."""

    def __missing__(self, deprel: str) -> str:
        base = self[deprel] = normalize_deprel(deprel)
        return base


def tag_sentence(
    sentence: Sentence, sentence_index: int = 0, source_id: str = "", *, base_rel: _DeprelMemo | None = None
) -> list[AscToken]:
    """Tag every qualifying predicate in one sentence, in token-id order.

    Candidates are VERB tokens and tokens governing a copula; each needs an
    overt subject (nsubj or nsubj:pass).  Conjoined predicates without their
    own subject therefore never match.  base_rel memoises normalize_deprel;
    tag_document passes one per document, and a fresh one is made if none is.
    """
    if base_rel is None:
        base_rel = _DeprelMemo()
    tags: list[AscToken] = []
    deps_of = sentence.deps
    for tok in sentence.tokens:
        # A token without dependents has no subject and is never tagged.
        deps = deps_of[tok.id]
        if deps is None:
            continue
        rels = {base_rel[d.deprel] for d in deps}
        if tok.upos != "VERB" and "cop" not in rels:
            continue
        if "nsubj" not in rels and "nsubj:pass" not in rels:
            continue
        has_result_adv = "advmod" in rels and any(
            base_rel[d.deprel] == "advmod"
            and d.upos == "ADV"
            and d.lemma.lower() not in ADVERB_STOPLIST
            for d in deps
        )
        asc_type = _classify(rels, has_result_adv)
        if asc_type is None:
            continue
        if asc_type == "ATTR":
            cop = min(
                (d for d in deps if base_rel[d.deprel] == "cop"),
                key=lambda d: d.id,
            )
            lemma = cop.lemma.lower()
        else:
            lemma = tok.lemma.lower()
        if not lemma:
            continue
        tags.append(
            AscToken(
                asc_type=asc_type,
                verb_token_id=tok.id,
                verb_lemma=lemma,
                sentence_index=sentence_index,
                source_id=source_id,
            )
        )
    return tags


def _classify(rels: set[str], has_result_adv: bool) -> str | None:
    """First matching frame wins; richer frames are checked before leaner ones."""
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
    if has_result_adv:
        return "INTRAN_RES"
    if not (rels & _FRAME_RELS):
        return "INTRAN_S"
    return None


def tag_document(doc: Document) -> list[AscToken]:
    """Concatenate tag_sentence output over the document, in sentence order."""
    tags: list[AscToken] = []
    base_rel = _DeprelMemo()
    for i, sentence in enumerate(doc.sentences):
        tags.extend(tag_sentence(sentence, i, doc.source_id, base_rel=base_rel))
    return tags


def debug_lines(tags: Iterable[AscToken]) -> Iterator[str]:
    """Tab-separated debug stream: source, sentence, token id, tag, lemma."""
    for t in tags:
        yield f"{t.source_id}\t{t.sentence_index}\t{t.verb_token_id}\t{t.asc_type}\t{t.verb_lemma}"
