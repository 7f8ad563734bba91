"""Command-line driver.

Subcommands:
  analyze      tag a directory of CoNLL-U files and write one CSV row per file
  build-norms  build a reference norm table from a CoNLL-U corpus
  stats        relate an indices CSV to a scores CSV and write a model report

Running with bare flags (no subcommand) behaves like `analyze`.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from importlib import resources
from pathlib import Path
from typing import Iterator, TextIO

from .indices import INDEX_NAMES, IndexConfig, compute_from_tags
from .ingest import ConlluError, parse_conllu_file
from .norms import NormTable, NormTableError, build_norms, load_norms, save_norms
from .stats import format_report, load_feature_matrix, run_pipeline
from .tagger import debug_lines, tag_document

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_COMMANDS = ("analyze", "build-norms", "stats")


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
    p_an.add_argument("--window", type=int, default=11, help="MATTR window (default 11)")
    p_an.add_argument(
        "--min-ref-freq",
        type=int,
        default=5,
        help="minimum reference frequency for the frequency indices (default 5)",
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
        "--score-column", default="score", help="score column name (default 'score')"
    )
    p_st.add_argument(
        "--composite-of",
        default=None,
        help="comma-separated subscore columns to average into the target",
    )
    p_st.add_argument("--r-threshold", type=float, default=0.10, help="|r| cutoff (default 0.10)")
    p_st.add_argument("--vif-limit", type=float, default=5.0, help="VIF cutoff (default 5)")
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


def discover_files(root: Path, recursive: bool) -> list[tuple[str, Path]]:
    """(key, path) pairs sorted by key; key is the posix path relative to root."""
    pattern = "**/*.conllu" if recursive else "*.conllu"
    pairs = [(p.relative_to(root).as_posix(), p) for p in root.glob(pattern)]
    return sorted(pairs)


def _format_cell(value: float | None) -> str:
    return "" if value is None else format(value, ".6g")


def _parse(path: Path, key: str):
    """parse_conllu_file, with a read, decode or parse error naming the file by key."""
    try:
        return parse_conllu_file(path, source_id=key)
    except (OSError, UnicodeDecodeError, ConlluError) as exc:
        raise ConlluError(f"{key}: {exc}") from exc


def _analyze_one(path: Path, key: str, norm: NormTable, cfg: IndexConfig, want_debug: bool):
    """(CSV row, None, debug lines) for a readable file; (None, warning, []) otherwise."""
    try:
        doc = _parse(path, key)
    except ConlluError as exc:
        return None, str(exc), []
    tags = tag_document(doc)
    values = compute_from_tags(tags, norm, cfg)
    row = [key, *(_format_cell(values[name]) for name in INDEX_NAMES)]
    return row, None, list(debug_lines(tags)) if want_debug else []


_WORKER_STATE: dict = {}


def _init_worker(norm: NormTable, cfg: IndexConfig, want_debug: bool) -> None:
    _WORKER_STATE.update(norm=norm, cfg=cfg, want_debug=want_debug)


def _worker_task(item: tuple[str, Path]):
    key, path = item
    return _analyze_one(path, key, **_WORKER_STATE)


@contextmanager
def _replace_on_success(path: str | Path | None) -> Iterator[TextIO | None]:
    """Write a file beside path that replaces it only if the block completes.

    On any exception, Ctrl-C included, path keeps what it had before.  This
    holds for a path that is a regular file or does not exist yet; any other
    destination (a symlink such as /dev/stdout, a device such as /dev/null,
    a FIFO) is written directly, so that it stays what it is.  An optional
    output that was not asked for (path None) yields None.
    """
    if path is None:
        yield None
        return
    path = Path(path)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    partial = path.with_name(path.name + ".partial")
    try:
        fh = open(partial, "w", encoding="utf-8", newline="")
    except OSError as exc:
        exc.filename = str(path)  # name the destination that was asked for
        raise
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def cmd_analyze(args) -> int:
    input_dir = Path(args.input_dir)
    if not input_dir.is_dir():
        raise ValueError(f"input dir {input_dir} does not exist")
    files = discover_files(input_dir, args.recursive)
    if not files:
        raise ValueError(f"no .conllu files found in {input_dir}")
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    try:
        cfg = IndexConfig(window=args.window, min_ref_freq=args.min_ref_freq)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    norm = load_norms(resolve_source(args.source))
    want_debug = args.debug_tags is not None
    out_path = Path(args.output_csv)

    warnings: list[str] = []
    with ExitStack() as stack:
        out = stack.enter_context(_replace_on_success(out_path))
        debug = stack.enter_context(_replace_on_success(args.debug_tags))
        # Results arrive in file order, which discover_files sorted by key.
        if args.jobs == 1:
            results = (_analyze_one(path, key, norm, cfg, want_debug) for key, path in files)
        else:
            pool = stack.enter_context(
                ProcessPoolExecutor(
                    max_workers=args.jobs,
                    initializer=_init_worker,
                    initargs=(norm, cfg, want_debug),
                )
            )
            results = pool.map(_worker_task, files)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["filename", *INDEX_NAMES])
        for row, warning, lines in results:
            if warning is not None:
                warnings.append(warning)
                continue
            writer.writerow(row)
            for line in lines:
                debug.write(line + "\n")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(
        f"analyzed {len(files) - len(warnings)} of {len(files)} files, "
        f"{len(warnings)} warnings -> {out_path}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_build_norms(args) -> int:
    corpus_dir = Path(args.corpus_dir)
    if not corpus_dir.is_dir():
        raise ValueError(f"corpus dir {corpus_dir} does not exist")
    files = discover_files(corpus_dir, args.recursive)
    documents = (_parse(path, key) for key, path in files)
    label = args.label if args.label is not None else corpus_dir.name
    with _replace_on_success(args.debug_tags) as debug:
        norm = build_norms(documents, label, debug=debug)
    save_norms(norm, args.out)
    print(f"{norm.total} ASC tokens ({len(norm.pair_counts)} pairs) -> {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    # Written so that nan fails each range check.
    if not 0.0 <= args.r_threshold <= 1.0:
        raise UsageError(f"--r-threshold must be within [0, 1], got {args.r_threshold}")
    if not 1.0 < args.vif_limit < math.inf:
        raise UsageError(f"--vif-limit must be finite and > 1, got {args.vif_limit}")
    composite = None
    if args.composite_of is not None:
        composite = [c.strip() for c in args.composite_of.split(",") if c.strip()]
        if not composite:
            raise UsageError(f"--composite-of names no column: {args.composite_of!r}")
    matrix = load_feature_matrix(
        args.indices_csv,
        args.scores_csv,
        score_column=args.score_column,
        composite_of=composite,
    )
    if matrix.n_rows() < 10:
        raise ValueError(f"join produced only {matrix.n_rows()} rows (need >= 10)")
    result = run_pipeline(matrix, r_threshold=args.r_threshold, vif_limit=args.vif_limit)
    report = format_report(result)
    Path(args.report).write_text(report, encoding="utf-8", newline="\n")
    print(f"report -> {args.report}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in _COMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "analyze")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConlluError, NormTableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
