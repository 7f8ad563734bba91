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
from .tagger import ASC_TYPES, debug_lines, tag_document

# Format version written to norm files; loaders accept the same major version.
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


@dataclass
class NormTable:
    """Pair counts of a reference corpus; the marginals are derived from them.

    type_counts, lemma_counts and total are the per-construction and
    per-lemma sums of pair_counts and their total, set on construction.
    """

    pair_counts: dict[tuple[str, str], int]
    type_counts: dict[str, int] = field(init=False)
    lemma_counts: dict[str, int] = field(init=False)
    total: int = field(init=False)
    source: str = ""
    version: str = NORM_FORMAT_VERSION

    def __post_init__(self) -> None:
        type_counts: Counter[str] = Counter()
        lemma_counts: Counter[str] = Counter()
        for (c, v), n in self.pair_counts.items():
            type_counts[c] += n
            lemma_counts[v] += n
        self.type_counts = dict(type_counts)
        self.lemma_counts = dict(lemma_counts)
        self.total = sum(self.pair_counts.values())
        if not self.pair_counts or self.total < 1:
            raise NormTableError("empty norm table")
        for (c, v), n in self.pair_counts.items():
            if n < 1:
                raise NormTableError(f"inconsistent norm table: count {n} for ({c}, {v})")
            if c not in ASC_TYPES:
                raise NormTableError(f"inconsistent norm table: unknown construction tag {c!r}")


def build_norms(
    documents: Iterable[Document], label: str, debug: TextIO | None = None
) -> NormTable:
    """Tag every document and accumulate pair counts into a NormTable.

    With a debug sink, each document's tagged-token stream is written to it
    as the document is counted.
    """
    pair_counts: Counter[tuple[str, str]] = Counter()
    for doc in documents:
        tags = tag_document(doc)
        for tag in tags:
            pair_counts[tag.pair()] += 1
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


def save_norms(norm: NormTable, path: str | Path) -> None:
    """Write the TSV norm format: #source/#version/#total header, sorted rows."""
    path = Path(path)
    lines = [
        f"#source={norm.source}",
        f"#version={norm.version}",
        f"#total={norm.total}",
    ]
    for (c, v), n in sorted(norm.pair_counts.items()):
        lines.append(f"{c}\t{v}\t{n}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_norms(path: str | Path) -> NormTable:
    """Read a norm TSV, checking its #total against the rows.

    Lines end only at a line feed or a carriage return, as CoNLL-U lines do,
    so a lemma may hold any other character but a tab.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise NormTableError(f"cannot read norm file {path}: {exc}") from exc
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
            header[key] = value
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise NormTableError(f"malformed norm file: expected 3 columns at line {lineno}")
        c, v, n_str = fields
        try:
            n = int(n_str)
        except ValueError:
            raise NormTableError(
                f"malformed norm file: non-integer count at line {lineno}"
            ) from None
        if (c, v) in pair_counts:
            raise NormTableError(f"malformed norm file: duplicate pair at line {lineno}")
        pair_counts[(c, v)] = n
    for required in ("source", "version", "total"):
        if required not in header:
            raise NormTableError(f"malformed norm file: missing #{required} header")
    version = header["version"]
    if version.split(".", 1)[0] != NORM_FORMAT_VERSION.split(".", 1)[0]:
        raise NormTableError(
            f"unsupported norm file version {version} (expected {NORM_FORMAT_VERSION})"
        )
    try:
        declared_total = int(header["total"])
    except ValueError:
        raise NormTableError("malformed norm file: non-integer #total header") from None
    norm = NormTable(pair_counts=pair_counts, source=header["source"], version=version)
    if norm.total != declared_total:
        raise NormTableError(
            f"inconsistent norm table: #total={declared_total} but rows sum to {norm.total}"
        )
    return norm
