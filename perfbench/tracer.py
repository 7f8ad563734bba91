"""Traced run: time each layer's public functions from outside the program.

Usage: python3 perfbench/tracer.py SPANS_JSON asc-toolkit-args...

Replaces the layer functions bound in the ``asc_toolkit.cli``,
``asc_toolkit.norms`` and ``asc_toolkit.stats`` namespaces with timing
wrappers, runs ``cli.main`` with the given arguments, and writes every span
(name, start, end, parent, counts) to SPANS_JSON when it ends.  Spans are
kept in memory until then.  No program file changes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (namespace, function, span name) for every wrapped call site.  Names are
# "<layer>.<function>"; the layer is the module the function belongs to.
WRAPPED = (
    ("cli", "parse_conllu_file", "ingest.parse_conllu_file"),
    ("cli", "tag_document", "tagger.tag_document"),
    ("norms", "tag_document", "tagger.tag_document"),
    ("cli", "compute_from_tags", "indices.compute_from_tags"),
    ("cli", "resolve_source", "norms.resolve_source"),
    ("cli", "load_norms", "norms.load_norms"),
    ("cli", "build_norms", "norms.build_norms"),
    ("cli", "save_norms", "norms.save_norms"),
    ("cli", "load_feature_matrix", "stats.load_feature_matrix"),
    ("cli", "run_pipeline", "stats.run_pipeline"),
    ("cli", "format_report", "stats.format_report"),
    ("stats", "bivariate_r", "stats.bivariate_r"),
    ("stats", "bivariate_filter", "stats.bivariate_filter"),
    ("stats", "vif_prune", "stats.vif_prune"),
    ("stats", "aic_select", "stats.aic_select"),
    ("stats", "ols_fit", "stats.ols_fit"),
)


def _counts(name: str, args: tuple, result) -> dict[str, int]:
    """Counts at the layer boundary, read from the call's arguments and result."""
    if name == "ingest.parse_conllu_file":
        return {"tokens": result.n_tokens()}
    if name == "tagger.tag_document":
        return {"tokens": args[0].n_tokens(), "tags": len(result)}
    if name == "indices.compute_from_tags":
        return {"tags": len(args[0]), "missing": sum(v is None for v in result.values())}
    if name in ("norms.load_norms", "norms.build_norms"):
        return {"pairs": len(result.pair_counts)}
    if name == "stats.aic_select":
        return {"candidates": len(args[1]), "models": result.n_models}
    if name == "stats.ols_fit":
        return {"lmg_predictors": len(result.predictors) if result.lmg_shares is not None else 0}
    return {}


class Tracer:
    """Spans of one traced process, in call order; parent is an index or -1."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["counts"] = _counts(name, args, result)
            return result

        return traced


def main(argv: list[str]) -> int:
    from asc_toolkit import cli, norms, stats

    out_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    modules = {"cli": cli, "norms": norms, "stats": stats}
    for namespace, function, name in WRAPPED:
        module = modules[namespace]
        setattr(module, function, tracer.wrap(name, getattr(module, function)))
    rc = tracer.wrap("cli.main", cli.main)(cli_args)
    out_path.write_text(json.dumps({"rc": rc, "spans": tracer.spans}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
