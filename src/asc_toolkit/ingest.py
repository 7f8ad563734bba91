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

# Word ids and heads are checked with str.isdecimal(), which accepts exactly
# the characters \d matches; these two are tried only on other ids.
_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")


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
    """Tokens in file order; deps maps a head id to its dependents, in token order.

    Roots (head 0) appear in no deps list.
    """

    tokens: list[Token]
    deps: dict[int, list[Token]]

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
        tok_id, form, lemma, upos, _, _, head, deprel, _, _ = fields
        if not tok_id.isdecimal():
            if _RANGE_ID.match(tok_id) or _EMPTY_NODE_ID.match(tok_id):
                continue
            raise ConlluError(f"line {lineno}: malformed token line (non-integer id {tok_id!r})")
        if not head.isdecimal():
            raise ConlluError(f"line {lineno}: malformed token line (non-integer head {head!r})")
        current.append(Token(int(tok_id), form, lemma, upos, int(head), deprel))
    if current:
        sentences.append(_finish_sentence(current, len(sentences)))
    return Document(source_id=source_id, sentences=sentences)


def parse_conllu_file(path: str | Path, source_id: str | None = None) -> Document:
    """Parse a UTF-8 CoNLL-U file; a leading byte order mark is skipped."""
    path = Path(path)
    with open(path, encoding="utf-8-sig") as fh:
        return parse_conllu(fh, source_id=source_id if source_id is not None else path.name)


def _finish_sentence(tokens: list[Token], index: int) -> Sentence:
    """Validate the head graph: unique ids, one root, valid heads, no cycles.

    With unique ids, one root and every head present, the graph is a tree
    exactly when a walk down the dependents from the root reaches every token.
    """
    deps: dict[int, list[Token]] = {}
    roots: list[Token] = []
    for t in tokens:
        head = t.head
        if head == 0:
            roots.append(t)
        elif head in deps:
            deps[head].append(t)
        else:
            deps[head] = [t]
    ids = {t.id for t in tokens}
    if len(ids) != len(tokens):
        raise ConlluError(f"sentence {index}: duplicate token ids")
    if not roots:
        raise ConlluError(f"sentence {index}: headless sentence (no head=0 token)")
    if len(roots) > 1:
        raise ConlluError(f"sentence {index}: multiple root tokens")
    if not ids.issuperset(deps):
        # deps keys follow token order: the first one missing is the first
        # missing head in token order.
        head = next(h for h in deps if h not in ids)
        raise ConlluError(f"sentence {index}: head {head} points to missing token")
    reached = roots  # the root, then each token reached from it: grows while walked
    for t in reached:
        dependents = deps.get(t.id)
        if dependents:
            reached += dependents
    if len(reached) != len(tokens):
        raise ConlluError(f"sentence {index}: cyclic dependency structure")
    return Sentence(tokens, deps)
