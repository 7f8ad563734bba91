"""Command-line driver.

Subcommands:
  analyze      tag a directory of CoNLL-U files and write one CSV row per file
  build-norms  build a reference norm table from a CoNLL-U corpus
  stats        relate an indices CSV to a scores CSV and write a model report

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import importlib.util
import math
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Container, Iterator, TextIO

from .indices import INDEX_NAMES, IndexConfig, compute_from_tags
from .ingest import ConlluError, parse_conllu_file, read_conllu_chunks
from .norms import NormTable, NormTableError, build_norms, load_norms, save_norms
from .stats import JOIN_COLUMN, format_report, load_feature_matrix, run_pipeline
from .tagger import debug_lines, tag_document

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# A file's (device, inode): two paths with one FileId name one file.
FileId = tuple[int, int]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="asc-toolkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_an = sub.add_parser("analyze", help="analyze a directory of CoNLL-U files to CSV")
    p_an.add_argument("--input-dir", required=True, help="directory of *.conllu files")
    p_an.add_argument("--output-csv", required=True, help="destination CSV path")
    p_an.add_argument(
        "--source",
        required=True,
        help="norm table: bundled name (e.g. 'demo') or path to a norm TSV",
    )
    p_an.add_argument("--window", type=int, default=11, help="MATTR window (default %(default)s)")
    p_an.add_argument(
        "--min-ref-freq",
        type=int,
        default=5,
        help="minimum reference frequency for the frequency indices (default %(default)s)",
    )
    p_an.add_argument("--recursive", action="store_true", help="search input dir recursively")
    p_an.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_an.add_argument("--debug-tags", metavar="PATH", help="write the tagged-token stream here")
    p_an.set_defaults(func=cmd_analyze)

    p_bn = sub.add_parser("build-norms", help="build a norm TSV from a CoNLL-U corpus")
    p_bn.add_argument("--corpus-dir", required=True, help="directory of *.conllu files")
    p_bn.add_argument("--out", required=True, help="destination norm TSV path")
    p_bn.add_argument("--label", default=None, help="source label (default: corpus dir name)")
    p_bn.add_argument("--recursive", action="store_true", help="search corpus dir recursively")
    p_bn.add_argument("--debug-tags", metavar="PATH", help="write the tagged-token stream here")
    p_bn.set_defaults(func=cmd_build_norms)

    p_st = sub.add_parser("stats", help="correlation filter + model selection report")
    p_st.add_argument("--indices-csv", required=True, help="CSV produced by analyze")
    p_st.add_argument("--scores-csv", required=True, help="CSV with filename + score column(s)")
    p_st.add_argument("--report", required=True, help="destination report path")
    p_st.add_argument(
        "--score-column",
        default="score",
        metavar="A[,B,...]",
        help="score column, or comma-separated columns to average (default %(default)r)",
    )
    p_st.add_argument(
        "--r-threshold", type=float, default=0.10, help="|r| cutoff (default %(default).2f)"
    )
    p_st.add_argument(
        "--vif-limit", type=float, default=5.0, help="VIF cutoff (default %(default)g)"
    )
    p_st.set_defaults(func=cmd_stats)
    return parser


def bundled_norm_names() -> list[str]:
    data = resources.files("asc_toolkit").joinpath("data")
    return sorted(p.name[:-4] for p in data.iterdir() if p.name.endswith(".tsv"))


def resolve_source(source: str) -> Path:
    """Map a --source value to a norm TSV path: explicit path or bundled name."""
    p = Path(source)
    if p.is_file():
        return p
    bundled = resources.files("asc_toolkit").joinpath("data", f"{source}.tsv")
    if bundled.is_file():
        return Path(str(bundled))
    names = ", ".join(bundled_norm_names()) or "none"
    raise NormTableError(
        f"unknown norm source {source!r}: not a file and not a bundled table "
        f"(bundled: {names})"
    )


def discover_files(root: Path, recursive: bool) -> tuple[list[tuple[str, Path]], set[FileId]]:
    """(key, path) pairs sorted by key, and the _file_id of each path.

    A key is the posix path relative to root.  Only files count: a directory
    named *.conllu is passed over.  A root that is not a directory, or that
    holds no .conllu file, is a ValueError.
    """
    if not root.is_dir():
        raise ValueError(f"{root} is not a directory")
    pattern = "**/*.conllu" if recursive else "*.conllu"
    ids = {p: _file_id(p) for p in root.glob(pattern)}
    pairs = sorted((p.relative_to(root).as_posix(), p) for p, fid in ids.items() if fid)
    if not pairs:
        raise ValueError(f"no .conllu files found in {root}")
    return pairs, {fid for fid in ids.values() if fid}


def _analyze_one(norm: NormTable, cfg: IndexConfig, want_debug: bool, item: tuple[str, Path]):
    """(CSV row, None, debug lines) for a readable file; (None, warning, []) otherwise."""
    key, path = item
    try:
        doc = parse_conllu_file(path, key)
    except ConlluError as exc:
        return None, str(exc), []
    tags = tag_document(doc)
    values = compute_from_tags(tags, norm, cfg).values()  # in INDEX_NAMES order
    row = [key, *("" if v is None else "%.6g" % v for v in values)]
    return row, None, list(debug_lines(tags)) if want_debug else []


def _file_id(path: str | Path) -> FileId | None:
    """(device, inode) of the regular file at path, links followed; None if there is none."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _destination(path: str | Path) -> Path | None:
    """The real path at which an output is replaced; None if it is written directly.

    Links are followed: a regular file, or nothing yet, is replaced; anything
    else (/dev/null, a FIFO) is written directly.  So is a path reached
    through /proc/, as /dev/stdout and /dev/fd/N are: it names a descriptor
    that a process holds open, and replacing the file by name would leave
    that process holding the old one.  Any other OSError, a symlink loop
    say, propagates.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except FileNotFoundError:
        pass
    step = os.fspath(path)
    while True:  # one link at a time; os.stat has already refused a loop
        if os.path.realpath(os.path.dirname(step)).startswith("/proc/"):
            return None
        if not os.path.islink(step):
            return Path(os.path.realpath(path))
        step = os.path.join(os.path.dirname(step), os.readlink(step))


def _check_outputs(outputs: dict[str, str | None], inputs: Container[FileId | None] = ()) -> None:
    """A usage error if an output names another output or an input file of its command.

    outputs maps each output flag to its path, None if not asked for; inputs
    holds the _file_id of each input.  Two outputs may not share a
    _destination or lead to one regular file, the file behind /dev/stdout
    included, and an output may not lead to an input.  Outputs that lead to
    no regular file, /dev/null say, stay allowed.
    """
    first: dict[object, tuple[str, str]] = {}  # destination or file id -> its first (flag, path)
    for flag, path in outputs.items():
        if path is None:
            continue
        fid = _file_id(path)
        keys = {_destination(path), fid} - {None}
        for key in keys:
            if key in first:
                first_flag, first_path = first[key]
                raise UsageError(f"{first_flag} and {flag} name the same file: {first_path}")
        if fid is not None and fid in inputs:
            raise UsageError(f"{flag} names an input file: {path}")
        first.update(dict.fromkeys(keys, (flag, path)))


@contextmanager
def _replace_on_success(path: str | Path | None) -> Iterator[TextIO | None]:
    """Write a file that replaces path's _destination only if the block completes.

    Every command opens each of its outputs here.
    On any exception, Ctrl-C included, the destination keeps what it had
    before, and a symlink to it stays a symlink.  An output that _destination
    does not replace is written directly, so that it stays what it is.  An
    optional output that was not asked for (path None) yields None.
    """
    if path is None:
        yield None
        return
    dest = _destination(path)
    if dest is None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    partial = dest.with_name(dest.name + ".partial")
    try:
        fh = open(partial, "w", encoding="utf-8", newline="")
    except OSError as exc:
        exc.filename = str(path)  # name the destination that was asked for
        raise
    try:
        with fh:
            yield fh
        os.replace(partial, dest)
    finally:
        partial.unlink(missing_ok=True)


def cmd_analyze(args) -> int:
    # Flags first, so that a bad one is a usage error whatever the input dir holds.
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    try:
        cfg = IndexConfig(window=args.window, min_ref_freq=args.min_ref_freq)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    outputs = {"--output-csv": args.output_csv, "--debug-tags": args.debug_tags}
    _check_outputs(outputs)
    files, text_ids = discover_files(Path(args.input_dir), args.recursive)
    # Each worker forked holds a copy of the norm table: no more of them than files.
    jobs = min(args.jobs, len(files))
    source = resolve_source(args.source)
    _check_outputs(outputs, {*text_ids, _file_id(source)})
    norm = load_norms(source)
    want_debug = args.debug_tags is not None
    out_path = Path(args.output_csv)

    task = functools.partial(_analyze_one, norm, cfg, want_debug)
    warnings: list[str] = []
    with ExitStack() as stack:
        out = stack.enter_context(_replace_on_success(out_path))
        debug = stack.enter_context(_replace_on_success(args.debug_tags))
        # Results arrive in file order, which discover_files sorted by key.
        if jobs == 1:
            results = map(task, files)
        else:
            # Imported here: multiprocessing adds tens of milliseconds to start-up.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            # About four chunks per worker: the chunk count sets the round trips,
            # and a slow chunk does not leave the other workers idle for long.
            results = pool.map(task, files, chunksize=max(1, len(files) // (4 * jobs)))
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([JOIN_COLUMN, *INDEX_NAMES])
        for row, warning, lines in results:
            if warning is not None:
                warnings.append(warning)
                continue
            writer.writerow(row)
            for line in lines:
                debug.write(line + "\n")
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if len(warnings) == len(files):
            # Raised inside the block, so the outputs keep what they held before.
            raise ValueError("no file could be analyzed")
    print(
        f"analyzed {len(files) - len(warnings)} of {len(files)} files, "
        f"{len(warnings)} warnings -> {out_path}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_build_norms(args) -> int:
    if args.label is not None:  # NormTable's rule, checked before the corpus is tagged
        try:
            NormTable.check_header_value("--label", args.label)
        except NormTableError as exc:
            raise UsageError(str(exc)) from None
    outputs = {"--out": args.out, "--debug-tags": args.debug_tags}
    _check_outputs(outputs)
    corpus_dir = Path(args.corpus_dir)
    files, text_ids = discover_files(corpus_dir, args.recursive)
    _check_outputs(outputs, text_ids)
    # Chunks of whole sentences, so no file's parse is held whole; chain holds no chunk.
    documents = chain.from_iterable(read_conllu_chunks(path, key) for key, path in files)
    # abspath makes `.` and `sub/..` name their directory, without following a symlink.
    label = args.label if args.label is not None else os.path.basename(os.path.abspath(corpus_dir))
    # --out is replaced first, so a failure there leaves --debug-tags as it was.
    with _replace_on_success(args.debug_tags) as debug, _replace_on_success(args.out) as out:
        norm = build_norms(documents, label, debug=debug)
        save_norms(norm, out)
    print(f"{norm.total} ASC tokens ({len(norm.pair_counts)} pairs) -> {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    # Written so that nan fails each range check.
    if not 0.0 <= args.r_threshold <= 1.0:
        raise UsageError(f"--r-threshold must be within [0, 1], got {args.r_threshold}")
    if not 1.0 < args.vif_limit < math.inf:
        raise UsageError(f"--vif-limit must be finite and > 1, got {args.vif_limit}")
    score_columns = [c.strip() for c in args.score_column.split(",") if c.strip()]
    if not score_columns:
        raise UsageError(f"--score-column names no column: {args.score_column!r}")
    inputs = {_file_id(args.indices_csv), _file_id(args.scores_csv)}
    _check_outputs({"--report": args.report}, inputs)
    # analyze and build-norms run without numpy; stats needs it at every stage.
    # Found, not imported, here: loading it before the CSVs raises peak memory.
    if importlib.util.find_spec("numpy") is None:
        raise ValueError("stats needs numpy, which is not installed: pip install numpy")
    matrix = load_feature_matrix(args.indices_csv, args.scores_csv, score_columns)
    # Said before the row check, so that a join that fails explains itself.
    n_indices = matrix.n_rows() + matrix.no_scores_row + matrix.blank_score
    print(
        f"joined {matrix.n_rows()} of {n_indices} indices rows: "
        f"{matrix.no_scores_row} with no scores row, {matrix.blank_score} with a blank score; "
        f"{matrix.unmatched_scores} scores rows match no indices row",
        file=sys.stderr,
    )
    if matrix.n_rows() < 10:
        raise ValueError(f"join produced only {matrix.n_rows()} rows (need >= 10)")
    result = run_pipeline(matrix, r_threshold=args.r_threshold, vif_limit=args.vif_limit)
    with _replace_on_success(args.report) as out:
        out.write(format_report(result))
    print(f"report -> {args.report}", file=sys.stderr)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # Nothing a command builds holds a reference cycle, so reference counting
    # frees all of it and the cyclic collector's passes, most of them in
    # stats' numpy import, find nothing.  It is off for the command (forked
    # --jobs workers inherit that) and back on after only if it was on before.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # ConlluError and NormTableError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
