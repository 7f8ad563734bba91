"""Read CoNLL-U dependency-annotated text into Documents of Sentences.

A Sentence holds each word as a row, the tuple (id, form, lemma, upos, head,
deprel): Token's fields in Token's order, so Token(*row) is that word.  Only
these six columns are kept.  The tagger reads the rows; Token objects are
built only when Sentence.tokens or Sentence.deps is asked for.

A file's text is read whole, in text mode, which makes every line end a line
feed, but parsed in chunks of whole sentences (read_conllu_chunks), each about
CHUNK_CHARS characters and cut at an empty line, so the parse held in memory
at once is bounded by one chunk, not by one file.  parse_conllu_file joins
the chunks into one Document.

Only pre-parsed input is supported; tokenization and parsing of raw text are
left to whatever UD parser produced the file.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

# Word ids and heads up to 1023 are read through this table, any other by
# _field_int.  An id outside it that _SKIPPED_ID matches whole, a multiword
# range ("3-4") or an empty node ("3.1"), is skipped.
_SMALL_INTS = {str(i): i for i in range(1024)}
_SKIPPED_ID = re.compile(r"[0-9]+[-.][0-9]+")

# read_conllu_chunks cuts a file's text at the first empty line this many
# characters or more past the chunk's start: about 16 KiB of whole sentences,
# whose parse is made, used and freed while it is still in cache.
CHUNK_CHARS = 16384


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


# A word as the parser keeps it: Token's fields, in Token's order.
Row = tuple[int, str, str, str, int, str]


@dataclass(slots=True)
class Sentence:
    """Rows in file order, row k having id k + 1.

    dep_rows[h] lists the rows of the dependents of the word with id h, in
    word order, or is None if it has none; dep_rows[0] is None, since roots
    appear in no list.  tokens and deps are the same two lists over Token
    objects, built anew on each request.
    """

    rows: list[Row]
    dep_rows: list[list[Row] | None]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def tokens(self) -> list[Token]:
        return [Token(*row) for row in self.rows]

    @property
    def deps(self) -> list[list[Token] | None]:
        return self.token_view()[1]

    def token_view(self) -> tuple[list[Token], list[list[Token] | None]]:
        """tokens and deps built together, so deps holds the same objects as tokens."""
        tokens = self.tokens
        deps = [
            None if rows is None else [tokens[row[0] - 1] for row in rows]
            for rows in self.dep_rows
        ]
        return tokens, deps


@dataclass(slots=True)
class Document:
    """Sentences of one text, or of one chunk of it whose first sentence has index first_sentence."""

    source_id: str
    sentences: list[Sentence]
    first_sentence: int = 0

    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def parse_conllu(text: str, source_id: str = "<stream>", first_line: int = 1) -> Document:
    """Parse CoNLL-U text into a Document.

    Token lines must have exactly 10 tab-separated columns, and the word ids
    of a sentence must run 1, 2, ..., n in order; multiword-token ranges
    ("3-4") and empty nodes ("3.1") are dropped.  Ids and heads are written
    in ASCII digits.  Comment lines and columns
    other than ID/FORM/LEMMA/UPOS/HEAD/DEPREL are ignored.

    A line ends at a line feed, a CRLF or a lone carriage return, as in a
    file read in text mode, so no field holds a carriage return.  Only an
    empty line ends a sentence.  Lines are numbered from first_line, the
    number of text's first line in the file it was cut from.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    sentences: list[Sentence] = []
    current: list[Row] = []
    start = 0  # the index in lines of the current sentence's first line
    for index, line in enumerate(lines):
        if not line:
            if current:
                sentences.append(_finish_sentence(current, lines, start, first_line))
                current = []
            start = index + 1
            continue
        if line[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != 10:
            raise ConlluError(
                f"line {first_line + index}: malformed token line"
                f" ({len(fields)} columns, expected 10)"
            )
        tok_id, form, lemma, upos, _, _, head, deprel, _, _ = fields
        word_id = _SMALL_INTS.get(tok_id)
        if word_id is None:
            if _SKIPPED_ID.fullmatch(tok_id):
                continue
            word_id = _field_int(tok_id, "id", first_line + index)
        head_id = _SMALL_INTS.get(head)
        if head_id is None:
            head_id = _field_int(head, "head", first_line + index)
        if word_id != len(current) + 1:
            raise ConlluError(
                f"line {first_line + index}: word id {word_id}, expected {len(current) + 1}"
            )
        current.append((word_id, form, lemma, upos, head_id, deprel))
    if current:
        sentences.append(_finish_sentence(current, lines, start, first_line))
    return Document(source_id=source_id, sentences=sentences)


def _field_int(text: str, column: str, lineno: int) -> int:
    """A word id or head cell as an int; it must be ASCII decimal digits."""
    if not (text.isascii() and text.isdecimal()):
        raise ConlluError(f"line {lineno}: malformed token line (non-integer {column} {text!r})")
    return int(text)


def read_conllu_chunks(path: str | Path, source_id: str | None = None) -> Iterator[Document]:
    """Parse a UTF-8 CoNLL-U file chunk by chunk, in file order; a leading byte order mark is skipped.

    The text is read whole in text mode, which makes every line end, CRLF
    and lone CR included, a line feed.  It is cut into chunks at the first
    empty line CHUNK_CHARS or more characters past each chunk's start, so a
    chunk holds whole sentences.  Each chunk is yielded as a Document that
    carries the index of its first sentence in the file, and its errors name
    lines of the whole file.  source_id defaults to the file's name.  A
    read, decode or parse error is a ConlluError whose text starts with the
    source_id; the chunks before it have been yielded.
    """
    # open and os.path take path as it is: making a Path of it costs about 7 us a file.
    source_id = os.path.basename(path) if source_id is None else source_id
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConlluError(f"{source_id}: {exc}") from exc
    pos, first_line, first_sentence = 0, 1, 0
    while pos < len(text):
        # "\n\n" ends a line and then an empty one; a chunk ends after both.
        cut = text.find("\n\n", pos + CHUNK_CHARS - 1)
        chunk = text[pos:] if cut < 0 else text[pos : cut + 2]
        try:
            doc = parse_conllu(chunk, source_id, first_line)
        except ConlluError as exc:
            raise ConlluError(f"{source_id}: {exc}") from exc
        doc.first_sentence = first_sentence
        yield doc
        if cut < 0:
            return
        pos = cut + 2
        first_line += chunk.count("\n")
        first_sentence += len(doc.sentences)
        del chunk, doc  # neither is held while the next chunk is parsed


def parse_conllu_file(path: str | Path, source_id: str | None = None) -> Document:
    """Parse a UTF-8 CoNLL-U file into one Document: read_conllu_chunks' chunks, joined."""
    source_id = os.path.basename(path) if source_id is None else source_id
    sentences: list[Sentence] = []
    for chunk in read_conllu_chunks(path, source_id):
        sentences += chunk.sentences
    return Document(source_id=source_id, sentences=sentences)


def _finish_sentence(rows: list[Row], lines: list[str], start: int, first_line: int) -> Sentence:
    """Validate the head graph of rows with ids 1..n: heads in range, one root, no cycles.

    lines are the text's lines, numbered from first_line, and the sentence's
    begin at lines[start].  An error names the line of the word at fault: the
    first whose head names no word, else the second root, else the first word
    of a sentence with no root, else the first word that a walk down the
    dependents from the root does not reach.  With one root and every head in
    range, the graph is a tree exactly when that walk reaches every row.
    """
    n = len(rows)
    dep_rows: list[list[Row] | None] = [None] * (n + 1)
    roots: list[Row] = []
    missing = None  # the first row in word order whose head names no word
    for row in rows:
        head = row[4]
        if head == 0:
            roots.append(row)
        elif head <= n:
            dependents = dep_rows[head]
            if dependents is None:
                dep_rows[head] = [row]
            else:
                dependents.append(row)
        elif missing is None:
            missing = row
    if missing is not None:
        fault, message = missing, f"head {missing[4]} points to missing token"
    elif len(roots) > 1:
        fault, message = roots[1], "multiple root tokens"
    elif not roots:
        fault, message = rows[0], "headless sentence (no head=0 token)"
    else:
        reached = roots  # the root, then each row reached from it: grows while walked
        for row in reached:
            dependents = dep_rows[row[0]]
            if dependents:
                reached += dependents
        if len(reached) == n:
            return Sentence(rows, dep_rows)
        ids = {row[0] for row in reached}
        fault = next(row for row in rows if row[0] not in ids)
        message = "cyclic dependency structure"
    raise ConlluError(f"line {first_line + _word_index(lines, start, fault[0])}: {message}")


def _word_index(lines: list[str], start: int, word_id: int) -> int:
    """The index in lines of word word_id of the sentence whose lines begin at lines[start].

    Comments, multiword ranges and empty nodes may sit between its words.
    """
    word_indices = (
        index
        for index, line in enumerate(islice(lines, start, None), start)
        if line[0] != "#" and not _SKIPPED_ID.fullmatch(line.partition("\t")[0])
    )
    return next(islice(word_indices, word_id - 1, None))
