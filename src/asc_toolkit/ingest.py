"""Read CoNLL-U dependency-annotated text into Document/Sentence/Token objects.

Only pre-parsed input is supported; tokenization and parsing of raw text are
left to whatever UD parser produced the file.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")
_DIGITS = re.compile(r"^\d+$")  # word ids and heads


class ConlluError(ValueError):
    """Malformed CoNLL-U input."""


@dataclass(slots=True)
class Token:
    """One syntactic word; id is 1-based within the sentence, head 0 = root."""

    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str


@dataclass(slots=True)
class Sentence:
    tokens: list[Token]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(slots=True)
class Document:
    source_id: str
    sentences: list[Sentence]

    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def parse_conllu(stream: Iterable[str] | str, source_id: str = "<stream>") -> Document:
    """Parse a CoNLL-U character stream into a Document.

    Token lines must have exactly 10 tab-separated columns; multiword-token
    ranges ("3-4") and empty nodes ("3.1") are dropped.  Comment lines and
    columns other than ID/FORM/LEMMA/UPOS/HEAD/DEPREL are ignored.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    sentences: list[Sentence] = []
    current: list[Token] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if line == "":
            if current:
                sentences.append(_finish_sentence(current, len(sentences)))
                current = []
            continue
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise ConlluError(
                f"line {lineno}: malformed token line ({len(fields)} columns, expected 10)"
            )
        tok_id = fields[0]
        if _RANGE_ID.match(tok_id) or _EMPTY_NODE_ID.match(tok_id):
            continue
        if not _DIGITS.match(tok_id):
            raise ConlluError(f"line {lineno}: malformed token line (non-integer id {tok_id!r})")
        if not _DIGITS.match(fields[6]):
            raise ConlluError(
                f"line {lineno}: malformed token line (non-integer head {fields[6]!r})"
            )
        current.append(
            Token(
                id=int(tok_id),
                form=fields[1],
                lemma=fields[2],
                upos=fields[3],
                head=int(fields[6]),
                deprel=fields[7],
            )
        )
    if current:
        sentences.append(_finish_sentence(current, len(sentences)))
    return Document(source_id=source_id, sentences=sentences)


def parse_conllu_file(path: str | Path, source_id: str | None = None) -> Document:
    """Parse a UTF-8 CoNLL-U file; a leading byte order mark is skipped."""
    path = Path(path)
    with open(path, encoding="utf-8-sig") as fh:
        return parse_conllu(fh, source_id=source_id if source_id is not None else path.name)


def _finish_sentence(tokens: list[Token], index: int) -> Sentence:
    """Validate the head graph: unique ids, one root, valid heads, no cycles."""
    head_of = {t.id: t.head for t in tokens}
    if len(head_of) != len(tokens):
        raise ConlluError(f"sentence {index}: duplicate token ids")
    roots = [t for t in tokens if t.head == 0]
    if not roots:
        raise ConlluError(f"sentence {index}: headless sentence (no head=0 token)")
    if len(roots) > 1:
        raise ConlluError(f"sentence {index}: multiple root tokens")
    for t in tokens:
        if t.head != 0 and t.head not in head_of:
            raise ConlluError(f"sentence {index}: head {t.head} points to missing token")
    # Walk each token to the root; revisiting a node on the same walk is a cycle.
    resolved: set[int] = set()
    for t in tokens:
        seen: set[int] = set()
        node = t.id
        while node != 0 and node not in resolved:
            if node in seen:
                raise ConlluError(f"sentence {index}: cyclic dependency structure")
            seen.add(node)
            node = head_of[node]
        resolved |= seen
    return Sentence(tokens=tokens)
