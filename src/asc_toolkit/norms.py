"""Reference-corpus frequency norms for construction types and verb lemmas.

A NormTable stores how often each (construction, lemma) pair occurs in a
tagged reference corpus, together with the marginals, derived from those
counts, that build the 2x2 contingency table behind every association score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, TextIO

from .ingest import Document
from .tagger import ASC_TYPES, AscToken, debug_lines, tag_document

# Format version written to norm files; a table's version must share its major number.
NORM_FORMAT_VERSION = "1.0.0"


class NormTableError(ValueError):
    """Raised for unusable norm tables (empty, malformed, inconsistent)."""


@dataclass(slots=True)
class ContingencyCells:
    """2x2 cells for one (construction, lemma) pair against a reference corpus.

    a: pair count; b: lemma with other constructions; c_cell: construction
    with other lemmas; d: everything else.  Cells sum to the corpus total.
    """

    a: int
    b: int
    c_cell: int
    d: int

    @property
    def total(self) -> int:
        return self.a + self.b + self.c_cell + self.d


@dataclass(frozen=True)
class NormTable:
    """Pair counts of a reference corpus; the marginals are derived from them.

    __post_init__ states every rule of a table, so every table saves and loads back.

    type_counts, lemma_counts and total are the per-construction and
    per-lemma sums of pair_counts and their total, set on construction.

    pair_scores is a memo that the indices fill on first use, so a run
    scores each (construction, lemma) pair once.  It is derived from the
    counts and takes no part in equality, repr or pickling: an unpickled
    copy starts it empty.
    """

    pair_counts: dict[tuple[str, str], int]
    type_counts: dict[str, int] = field(init=False)
    lemma_counts: dict[str, int] = field(init=False)
    total: int = field(init=False)
    source: str = ""
    version: str = NORM_FORMAT_VERSION
    pair_scores: dict[tuple[str, str], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def check_header_value(name: str, text: str) -> None:
        """A NormTableError if text, the value of a header line, holds a line break or
        cannot be written as UTF-8 (a lone surrogate, such as os.fsdecode makes of a
        byte that is not UTF-8)."""
        if "\n" in text or "\r" in text:
            raise NormTableError(f"{name} must not hold a line break, got {text!r}")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise NormTableError(f"{name} must be UTF-8, got {text!r}") from None

    def __post_init__(self) -> None:
        self.check_header_value("source label", self.source)
        self.check_header_value("version", self.version)
        if self.version.split(".", 1)[0] != NORM_FORMAT_VERSION.split(".", 1)[0]:
            raise NormTableError(
                f"unsupported norm table version {self.version!r} (expected {NORM_FORMAT_VERSION})"
            )
        type_counts: Counter[str] = Counter()
        lemma_counts: Counter[str] = Counter()
        for (c, v), n in self.pair_counts.items():
            if n < 1:
                raise NormTableError(f"inconsistent norm table: count {n} for ({c}, {v})")
            if c not in ASC_TYPES:
                raise NormTableError(f"inconsistent norm table: unknown construction tag {c!r}")
            # The tagger lowercases every lemma it counts and skips an empty one.
            if not v or v != v.lower() or "\t" in v or "\n" in v or "\r" in v:
                raise NormTableError(
                    f"inconsistent norm table: the lemma of {(c, v)!r} must be lowercase"
                    " and non-empty, with no tab or line break"
                )
            type_counts[c] += n
            lemma_counts[v] += n
        if not self.pair_counts:
            raise NormTableError("empty norm table")
        object.__setattr__(self, "type_counts", dict(type_counts))
        object.__setattr__(self, "lemma_counts", dict(lemma_counts))
        object.__setattr__(self, "total", sum(self.pair_counts.values()))

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "pair_scores"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, pair_scores={})


def build_norms(
    documents: Iterable[Document], label: str, debug: TextIO | None = None
) -> NormTable:
    """Tag every document and accumulate pair counts into a NormTable.

    A document may be one chunk of a file (ingest.read_conllu_chunks), so a
    file's parse need never be held whole.  With a debug sink, each
    document's tagged-token stream is written to it as the document is
    counted.
    """
    pair_counts: Counter[tuple[str, str]] = Counter()
    for doc in documents:
        tags = tag_document(doc)
        pair_counts.update(map(AscToken.pair, tags))
        if debug is not None:
            for line in debug_lines(tags):
                debug.write(line + "\n")
        del doc, tags  # neither is held while the next document is parsed
    return NormTable(pair_counts=dict(pair_counts), source=label)


def contingency(norm: NormTable, asc_type: str, lemma: str) -> ContingencyCells:
    """Cells for one pair; pairs absent from the reference get a = 0."""
    a = norm.pair_counts.get((asc_type, lemma), 0)
    b = norm.lemma_counts.get(lemma, 0) - a
    c_cell = norm.type_counts.get(asc_type, 0) - a
    d = norm.total - a - b - c_cell
    return ContingencyCells(a=a, b=b, c_cell=c_cell, d=d)


def save_norms(norm: NormTable, out: TextIO) -> None:
    """Write the TSV norm format to out: #source/#version/#total header, sorted rows.

    Lines end in a line feed as written: open a file for out with newline="".
    """
    out.write(f"#source={norm.source}\n#version={norm.version}\n#total={norm.total}\n")
    for (c, v), n in sorted(norm.pair_counts.items()):
        out.write(f"{c}\t{v}\t{n}\n")


def load_norms(path: str | Path) -> NormTable:
    """Read a norm TSV, checking its #total against the rows.

    Lines end only at a line feed or a carriage return, as CoNLL-U lines do,
    so a lemma may hold any other character but a tab.  The file may start
    with a UTF-8 byte order mark.  Counts and #total are ASCII digits only.
    Every error names the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise NormTableError(f"cannot read norm file {path}: {exc}") from exc
    try:
        return _parse_norms(text)
    except NormTableError as exc:
        raise NormTableError(f"{path}: {exc}") from None


def _parse_norms(text: str) -> NormTable:
    header: dict[str, str] = {}
    pair_counts: dict[tuple[str, str], int] = {}
    # read_text turns \r\n and \r into \n; splitlines() would also break
    # at U+2028, U+0085 and other characters a lemma may hold.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise NormTableError(f"malformed norm file: bad header at line {lineno}")
            if key in header:
                raise NormTableError(f"malformed norm file: repeated #{key} header at line {lineno}")
            header[key] = value
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise NormTableError(f"malformed norm file: expected 3 columns at line {lineno}")
        c, v, n_str = fields
        n = _count(n_str, f"count at line {lineno}")
        if (c, v) in pair_counts:
            raise NormTableError(f"malformed norm file: duplicate pair at line {lineno}")
        pair_counts[(c, v)] = n
    for required in ("source", "version", "total"):
        if required not in header:
            raise NormTableError(f"malformed norm file: missing #{required} header")
    declared_total = _count(header["total"], "#total header")
    norm = NormTable(pair_counts=pair_counts, source=header["source"], version=header["version"])
    if norm.total != declared_total:
        raise NormTableError(
            f"inconsistent norm table: #total={declared_total} but rows sum to {norm.total}"
        )
    return norm


def _count(text: str, what: str) -> int:
    """text read as a count; int() would also take 1_0, " 5 " and "+5", so only 0-9 pass."""
    if not (text.isascii() and text.isdigit()):
        raise NormTableError(f"malformed norm file: {what} is not ASCII digits: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits(), 4300 by default
        raise NormTableError(f"malformed norm file: {what} has {len(text)} digits") from None
