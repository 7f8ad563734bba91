"""End-to-end and per-layer benchmark of the asc-toolkit command line.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: analyze-2k, stats-k18, norms-ref
(see perfbench/README.md).  The inputs are generated from --seed under
perfbench/work/ and removed at the end.  With --trace 0 the run times the
workload's command, launched as a user launches it, for about S seconds and
reports the end-to-end metrics, with every time scaled to a reference machine
speed measured while the command runs (see "Speed scaling"); with --trace 1
it alternates untraced and traced runs (perfbench/tracer.py) and reports the
per-layer metrics.  Every output is checked against what was planted in the
inputs.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
DEMO_NORMS = SRC / "asc_toolkit" / "data" / "demo.tsv"

# One BLAS thread in every process: the stats workload solves ~262k systems of
# at most 19 unknowns, which gain nothing from threads, and idle OpenBLAS
# workers on two shared cores add CPU time and noise.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

IMPORTTIME_REPS = 3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# Speed scaling.  This machine's speed swings by up to a half over seconds to
# minutes, one CPU at a time, and a swing that lasts longer than a run moves
# every repetition in it, whatever statistic the run takes.  So while a
# command runs, the benchmark runs a short fixed loop (the probe) on the same
# CPU every PROBE_PERIOD_S, and scales the command's times by the probe's mean
# speed over the command's lifetime: a time is what the command would have
# taken at the speed at which the probe takes its reference time.  The probe
# does the same kind of work as the workload (string and dict work for
# analyze and build-norms, small numpy solves for stats) and none of the
# program's code.  The raw times are logged too.  README.md has the evidence.
PROBE_PERIOD_S = 0.02

_FIELDS = "3\tquickly\tquickly\tADV\tRB\t_\t2\tadvmod\t_\t_"


def _text_probe_work() -> None:
    counts: dict[tuple[str, str], int] = {}
    for i in range(1000):
        f = _FIELDS.split("\t")
        key = (f[2].lower(), f[7])
        counts[key] = counts.get(key, 0) + int(f[0]) + int(f[6]) + i


def _numpy_probe_work() -> None:
    import numpy as np

    gram, gy = _probe_system()
    for i in range(48):
        idx = [j for j in range(12) if (i >> (j % 4)) & 1 or j % 3 == 0]
        beta = np.linalg.solve(gram[np.ix_(idx, idx)], gy[idx])
        float(beta @ gy[idx])


@functools.cache
def _probe_system():
    import numpy as np

    x = np.random.default_rng(0).normal(size=(60, 12))
    return x.T @ x, x.T @ x[:, 0]


# name -> (work, its reference time in seconds: about its CPU time in the
# machine's fast stretches, so the scaled times read close to the fastest
# raw ones)
PROBES = {"text": (_text_probe_work, 0.0008), "numpy": (_numpy_probe_work, 0.00085)}


def probe(kind: str) -> float:
    """The probe's speed now, relative to its reference: reference time / CPU time taken."""
    work, reference = PROBES[kind]
    start = time.thread_time()
    work()
    return reference / (time.thread_time() - start)


@dataclass
class Sample:
    wall: float  # launch to exit, seconds at the probe's reference speed
    cpu: float  # user plus system CPU, likewise scaled
    rss_mb: float
    rc: int
    stderr: str
    raw_wall: float  # launch to exit, as the clock read it
    speed: float  # the probe's mean speed while the command ran, relative to its reference


def run_command(argv: list[str], stderr_path: Path, probe_kind: str) -> Sample:
    """Run one process to its end, probing the machine's speed until it exits.

    Wall time runs from launch to exit; CPU time and peak RSS come from wait4.
    The command and this process share one CPU, and the probe runs here
    between waits on the child's pidfd, so the exit is seen at once unless it
    falls inside a probe (about a millisecond).
    """
    speeds: list[float] = []
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(PROBE_PERIOD_S * 1000):
                    speeds.append(probe(probe_kind))
                wall = time.perf_counter() - start
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    speed = statistics.fmean(speeds) if speeds else probe(probe_kind)
    return Sample(
        wall=wall * speed,
        cpu=(usage.ru_utime + usage.ru_stime) * speed,
        rss_mb=usage.ru_maxrss / 1024.0,
        rc=proc.returncode,
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        raw_wall=wall,
        speed=speed,
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "asc_toolkit.cli", *args]


@dataclass
class Plan:
    """One workload's command, its minimal-input twin, and its output check."""

    args: list[str]
    setup_args: list[str]
    output: Path
    texts: int
    check: Callable[[str, str], int]  # (output text, stderr) -> items checked
    probe: str  # the PROBES kind whose work is most like the command's
    notes: list[str] = field(default_factory=list)


def plan_analyze(work: Path, seed: int) -> Plan:
    import checks
    import inputs

    data = inputs.analyze_input(seed)
    inputs.write_files(work / "texts", data.files)
    inputs.write_files(work / "min_texts", {"one.conllu": inputs.minimal_conllu()})
    out = work / "indices.csv"
    common = ["analyze", "--jobs", "1", "--source", "demo", "--output-csv"]
    norms = checks.Norms(checks.read(DEMO_NORMS))
    n_sent = sum(len(p) for p in data.planted.values())
    n_free = sum(p is None for ps in data.planted.values() for p in ps)
    return Plan(
        args=[*common, str(out), "--input-dir", str(work / "texts")],
        setup_args=[*common, str(work / "min.csv"), "--input-dir", str(work / "min_texts")],
        output=out,
        texts=len(data.files),
        check=lambda text, err: checks.check_analyze(text, err, data.planted, norms),
        probe="text",
        notes=[f"{len(data.files)} texts, {n_sent} sentences, {n_free} without a frame"],
    )


def plan_stats(work: Path, seed: int) -> Plan:
    import checks
    import inputs

    data = inputs.stats_input(seed)
    work.mkdir(parents=True, exist_ok=True)
    (work / "indices.csv").write_text(data.indices_csv, encoding="utf-8")
    (work / "scores.csv").write_text(data.scores_csv, encoding="utf-8")
    min_ix, min_sc = inputs.minimal_stats()
    (work / "min_indices.csv").write_text(min_ix, encoding="utf-8")
    (work / "min_scores.csv").write_text(min_sc, encoding="utf-8")
    out = work / "report.txt"

    def argv(ix: str, sc: str, report: Path) -> list[str]:
        return ["stats", "--indices-csv", ix, "--scores-csv", sc, "--report", str(report)]

    return Plan(
        args=argv(str(work / "indices.csv"), str(work / "scores.csv"), out),
        setup_args=argv(str(work / "min_indices.csv"), str(work / "min_scores.csv"), work / "min.txt"),
        output=out,
        texts=inputs.STATS_ROWS,
        check=lambda text, err: checks.check_stats(
            text, data.indices_csv, data.scores_csv, data.planted, data.candidates, seed
        ),
        probe="numpy",
        notes=[f"{inputs.STATS_ROWS} rows, {len(data.candidates)} planted candidates"],
    )


def plan_norms(work: Path, seed: int) -> Plan:
    import checks
    import inputs

    data = inputs.norms_input(seed)
    inputs.write_files(work / "ref", data.files)
    inputs.write_files(work / "min_ref", {"one.conllu": inputs.minimal_conllu()})
    out = work / "norms.tsv"
    return Plan(
        args=["build-norms", "--corpus-dir", str(work / "ref"), "--out", str(out)],
        setup_args=["build-norms", "--corpus-dir", str(work / "min_ref"), "--out", str(work / "min.tsv")],
        output=out,
        texts=len(data.files),
        check=lambda text, err: checks.check_norms(text, data.pair_counts),
        probe="text",
        notes=[f"{len(data.files)} files, {sum(data.pair_counts.values())} constructions"],
    )


WORKLOADS = {"analyze-2k": plan_analyze, "stats-k18": plan_stats, "norms-ref": plan_norms}


class Outcome:
    """Commands and texts attempted and failed, and whether every output checked out."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.commands = self.commands_failed = 0
        self.texts = self.texts_failed = 0
        self.digests: set[str] = set()
        self.errors: list[str] = []

    def record(self, sample: Sample, timed: bool) -> None:
        self.commands += 1
        if timed:
            self.texts += self.plan.texts
        if sample.rc != 0:
            self.commands_failed += 1
            self.texts_failed += self.plan.texts if timed else 0
            self.errors.append(f"exit {sample.rc}: {sample.stderr.strip()[-500:]}")
            return
        if timed:
            text = self.plan.output.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest not in self.digests:
                self.digests.add(digest)
                self.check(text, sample.stderr)

    def check(self, text: str, stderr: str) -> None:
        import checks

        try:
            self.plan.check(text, stderr)
        except checks.CheckFailed as exc:
            self.errors.append(f"output check failed: {exc}")

    @property
    def correct(self) -> bool:
        return not self.errors and len(self.digests) == 1


def timed_loop(seconds: float, step: Callable[[], float], min_steps: int) -> None:
    """Call step() at least min_steps times, then until another call would likely overrun."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        durations.append(step())
        elapsed = time.perf_counter() - start
        if len(durations) >= min_steps and elapsed + statistics.median(durations) > seconds:
            return


def run_end_to_end(plan: Plan, work: Path, seconds: float, outcome: Outcome) -> dict:
    """Repeat (command on the minimal input, workload's command) for the run length.

    The set-up runs are spread through the run, one before each repetition,
    so that they see the same stretches of machine speed as the repetitions.
    Every metric is the median over the run of the speed-scaled figures of
    its commands (see run_command and README.md).
    """
    setups: list[Sample] = []
    samples: list[Sample] = []

    def step() -> float:
        setup = run_command(cli_argv(plan.setup_args), work / "setup.err", plan.probe)
        outcome.record(setup, timed=False)
        setups.append(setup)
        sample = run_command(cli_argv(plan.args), work / "run.err", plan.probe)
        outcome.record(sample, timed=True)
        samples.append(sample)
        return setup.raw_wall + sample.raw_wall

    timed_loop(seconds, step, min_steps=2)
    ok = [s for s in samples if s.rc == 0] or samples
    wall = statistics.median(s.wall for s in ok)
    log(f"setup walls {[round(s.wall, 4) for s in setups]}")
    log(f"setup raw walls {[round(s.raw_wall, 4) for s in setups]}")
    log(f"walls {[round(s.wall, 4) for s in samples]}")
    log(f"raw walls {[round(s.raw_wall, 4) for s in samples]}")
    log(f"speeds {[round(s.speed, 4) for s in samples]}")
    log(f"cpus {[round(s.cpu, 4) for s in samples]}")
    log(f"rss {[round(s.rss_mb, 2) for s in samples]}")
    return {
        "setup_s": (statistics.median(s.wall for s in setups), "s"),
        "wall_s": (wall, "s"),
        "texts_per_s": (plan.texts / wall, "texts/s"),
        "cpu_s": (statistics.median(s.cpu for s in ok), "s"),
        "peak_rss_mb": (statistics.median(s.rss_mb for s in ok), "MB"),
    }


# ---------------------------------------------------------------------------
# Traced runs


def import_stats_seconds(work: Path) -> float:
    """Cumulative import time of asc_toolkit.stats inside `import asc_toolkit.cli`."""
    values = []
    for _ in range(IMPORTTIME_REPS):
        sample = run_command(
            [sys.executable, "-X", "importtime", "-c", "import asc_toolkit.cli"],
            work / "importtime.err",
            "text",
        )
        for line in sample.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "asc_toolkit.stats":
                values.append(int(fields[1]) / 1e6 * sample.speed)
    if len(values) != IMPORTTIME_REPS:
        raise RuntimeError("-X importtime did not report asc_toolkit.stats")
    return statistics.median(values)


# Per-layer time metrics: the span names whose self times each one sums.
LAYER_TIMES = {
    "cli.self_s": ("cli.main",),
    "ingest.busy_s": ("ingest.parse_conllu_file",),
    "tagger.busy_s": ("tagger.tag_document",),
    "norms.load_s": ("norms.resolve_source", "norms.load_norms"),
    "norms.count_s": ("norms.build_norms",),
    "norms.save_s": ("norms.save_norms",),
    "indices.busy_s": ("indices.compute_from_tags",),
    "stats.load_s": ("stats.load_feature_matrix",),
    "stats.filter_s": ("stats.bivariate_r", "stats.bivariate_filter"),
    "stats.vif_s": ("stats.vif_prune",),
    "stats.aic_s": ("stats.aic_select",),
    "stats.ols_s": ("stats.ols_fit",),
    "stats.report_s": ("stats.format_report",),
    "stats.pipeline_s": ("stats.run_pipeline",),
}

# Per-layer counts: (span names, count key) summed over the run.
LAYER_COUNTS = {
    "ingest.tokens": (("ingest.parse_conllu_file",), "tokens"),
    "tagger.tags": (("tagger.tag_document",), "tags"),
    "norms.pairs": (("norms.load_norms", "norms.build_norms"), "pairs"),
    "indices.missing_cells": (("indices.compute_from_tags",), "missing"),
    "stats.aic_models": (("stats.aic_select",), "models"),
    "stats.candidates": (("stats.aic_select",), "candidates"),
    "stats.lmg_predictors": (("stats.ols_fit",), "lmg_predictors"),
}

UNITS = {
    "cli.output_bytes": "B", "ingest.tokens": "tokens", "ingest.tokens_per_s": "tokens/s",
    "tagger.tags": "tags", "tagger.tokens_per_s": "tokens/s", "norms.pairs": "pairs",
    "indices.tags_per_s": "tags/s", "indices.missing_cells": "cells",
    "stats.aic_models": "models", "stats.aic_models_per_s": "models/s",
    "stats.candidates": "features", "stats.lmg_predictors": "predictors",
}


def layer_metrics(spans: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Self time per layer metric and counts at the layer boundaries, from one traced run.

    A span's self time is its duration minus its children's, so the metrics
    add up to the root span's duration by construction.  What can go wrong is
    the tree itself, so it is checked: one cli.main root, every span inside
    its parent, and each child starting after its previous sibling ended
    (spans are in call order).
    """
    roots = [s for s in spans if s["parent"] == -1]
    if [s["name"] for s in roots] != ["cli.main"]:
        raise RuntimeError(f"the root spans are {[s['name'] for s in roots]}, not one cli.main")
    self_time = [s["end"] - s["start"] for s in spans]
    last_child_end: dict[int, float] = {}
    for s in spans:
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
                raise RuntimeError(f"span {s['name']} does not lie inside {parent['name']}")
            if s["start"] < last_child_end.get(s["parent"], s["start"]):
                raise RuntimeError(f"span {s['name']} overlaps its previous sibling")
            last_child_end[s["parent"]] = s["end"]
            self_time[s["parent"]] -= s["end"] - s["start"]
    by_name: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    for s, own in zip(spans, self_time):
        by_name[s["name"]] += own
        for key, value in s.get("counts", {}).items():
            counts[(s["name"], key)] += value
    unmapped = set(by_name) - {n for names in LAYER_TIMES.values() for n in names}
    if unmapped:
        raise RuntimeError(f"spans without a layer metric: {sorted(unmapped)}")
    times = {metric: sum(by_name[n] for n in names) for metric, names in LAYER_TIMES.items()}
    found = {}
    for metric, (names, key) in LAYER_COUNTS.items():
        found[metric] = sum(counts[(n, key)] for n in names)
    found["tagger.tokens_in"] = counts[("tagger.tag_document", "tokens")]
    found["indices.tags_in"] = counts[("indices.compute_from_tags", "tags")]
    return times, found


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def run_traced(plan: Plan, work: Path, seconds: float, outcome: Outcome) -> dict:
    import_stats = import_stats_seconds(work)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    traced_times: list[dict[str, float]] = []
    counts_seen: list[dict[str, int]] = []
    spans_path = work / "spans.json"

    def step() -> float:
        plain = run_command(cli_argv(plan.args), work / "run.err", plan.probe)
        outcome.record(plain, timed=True)
        traced = run_command(
            [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *plan.args],
            work / "traced.err",
            plan.probe,
        )
        outcome.record(traced, timed=True)
        if plain.rc == 0 and traced.rc == 0:
            plain_walls.append(plain.wall)
            traced_walls.append(traced.wall)
            times, counts = layer_metrics(json.loads(spans_path.read_text(encoding="utf-8"))["spans"])
            traced_times.append({name: t * traced.speed for name, t in times.items()})
            counts_seen.append(counts)
        return plain.raw_wall + traced.raw_wall

    timed_loop(seconds, step, min_steps=1)
    if not counts_seen:
        raise RuntimeError("no traced run completed")
    if any(c != counts_seen[0] for c in counts_seen):
        outcome.errors.append(f"layer counts differ between traced runs: {counts_seen}")
    metrics = {"cli.import_stats_s": import_stats}
    for name in LAYER_TIMES:
        metrics[name] = statistics.median(t[name] for t in traced_times)
    c = counts_seen[0]
    metrics.update({name: c[name] for name in LAYER_COUNTS})
    metrics["cli.output_bytes"] = plan.output.stat().st_size
    metrics["ingest.tokens_per_s"] = _rate(c["ingest.tokens"], metrics["ingest.busy_s"])
    metrics["tagger.tokens_per_s"] = _rate(c["tagger.tokens_in"], metrics["tagger.busy_s"])
    metrics["indices.tags_per_s"] = _rate(c["indices.tags_in"], metrics["indices.busy_s"])
    metrics["stats.aic_models_per_s"] = _rate(c["stats.aic_models"], metrics["stats.aic_s"])
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    log(f"plain walls {[round(w, 4) for w in plain_walls]}")
    log(f"traced walls {[round(w, 4) for w in traced_walls]}")
    return {name: (value, UNITS.get(name, "s")) for name, value in metrics.items()}


# ---------------------------------------------------------------------------


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before the checks import numpy
    # One CPU for this process and every command it starts, so that the speed
    # probe runs on the CPU whose speed it stands for (run_command).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    missing = [
        p for p in (SRC / "asc_toolkit" / "cli.py", DEMO_NORMS, REPO / "tests" / "corpusgen.py")
        if not p.is_file()
    ]
    if missing:
        log(f"cannot run: {', '.join(str(p.relative_to(REPO)) for p in missing)} missing")
        return 2

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = WORKLOADS[args.workload](work, args.seed)
        for note in plan.notes:
            log(f"{args.workload} seed {args.seed}: {note}")
        outcome = Outcome(plan)
        if args.trace:
            metrics = run_traced(plan, work, args.seconds, outcome)
        else:
            metrics = run_end_to_end(plan, work, args.seconds, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH / "work").rmdir()
        except OSError:
            pass

    for error in outcome.errors:
        log(error)
    print(
        f"{args.workload}: commands attempted {outcome.commands}, failed {outcome.commands_failed}; "
        f"texts attempted {outcome.texts}, failed {outcome.texts_failed}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.texts,
        "failed": outcome.texts_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
