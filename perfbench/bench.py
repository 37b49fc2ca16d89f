"""One benchmark run: the untraced run measures the end-to-end metrics, the
traced run the per-module ones. Both check the program's outputs and
count the operations they attempt and the ones that fail.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import protocol
import tracing
from workloads import Workload, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# the p95 latency needs this many samples beyond it
MIN_BEYOND = 10
P_TAIL = 95.0
# whole inference passes in the traced run, so its counts repeat exactly
TRACE_PASSES = 2

# the end-to-end metrics and their units; the quality numbers left out
# here are reported by the traced run (README.md says why)
UNITS = {"setup_s": "s", "train_align_s": "s", "fold_s": "s",
         "infer_per_s": "1/s", "infer_ms_p95": "ms", "peak_rss_mb": "MB",
         "test_f1_raw": "score"}


def nearest_rank(values: list[float], pct: float) -> float:
    """The value at 1-based rank ceil(pct * n / 100) of the sorted values."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100.0)) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples rank above the nearest-rank percentile."""
    return n - max(1, math.ceil(pct * n / 100.0))


def min_samples(pct: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples that leave ``beyond`` of them above the percentile."""
    n = 1
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


@dataclass
class FoldRun:
    setup: protocol.SetUp
    align_params: object
    align_training: object
    detect_params: object
    detect_training: object
    checkpoint_bytes: int
    quality: dict[str, float]
    stage_s: dict[str, float]


def run_fold(work: Workload, workdir: Path, checks: protocol.Checks, clock,
             phase=lambda name: nullcontext(), between=lambda: None) -> FoldRun:
    """Set-up, both training stages and the test evaluation, each timed and
    each inside its own phase span when traced. ``between`` runs after
    every stage, outside the timed stages."""
    stage_s: dict[str, float] = {}

    def timed(name: str, stage):
        start = clock()
        with phase(f"bench.{name}"):
            out = stage()
        stage_s[f"{name}_s"] = clock() - start
        between()
        return out

    s = timed("setup", lambda: protocol.set_up(work, workdir))
    align_params, align_training, align_bytes = timed(
        "train_align", lambda: protocol.train_align(work, s, workdir))
    detect_params, detect_training, detect_bytes = timed(
        "train_detect", lambda: protocol.train_detect(work, s, workdir))
    quality = timed("evaluate", lambda: protocol.evaluate(
        work, s, align_params, detect_params, checks))
    stage_s["fold_s"] = sum(stage_s.values())
    for leak in protocol.leak_audit(s.corpus.access_log, s.fold.test):
        checks.problem(f"leak: {leak}")
    return FoldRun(s, align_params, align_training, detect_params,
                   detect_training, align_bytes + detect_bytes, quality,
                   stage_s)


def check_quality_record(path: Path, quality: dict[str, float],
                         checks: protocol.Checks) -> None:
    """Quality must be bit-identical across runs of one seed: the first run
    writes the record, later runs compare against it."""
    current = {name: float(value).hex() for name, value in quality.items()}
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != current:
            checks.problem(f"quality differs from {path.name}: "
                           f"{recorded} vs {current}")
    else:
        path.write_text(json.dumps(current, sort_keys=True) + "\n")


def program_digest() -> str:
    """Hash of the library and benchmark sources: a quality record binds
    only runs of the same code."""
    digest = hashlib.sha256()
    sources = [*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]
    for path in sorted(p for p in sources if not p.name.startswith("test_")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_NUM_THREADS")},
        "loadavg_at_start": list(os.getloadavg()),
    }


def untraced(work: Workload, seconds: float, workdir: Path,
             checks: protocol.Checks, clock) -> tuple[dict, dict]:
    """Repeat the fold on the same inputs, each time after extra set-ups.
    From the second repetition on, a slice of the inference pass follows
    every stage, using the previous repetition's parameters, so that a
    slow spell of the machine lands in a few samples rather than in a
    whole metric. Stage times are medians over the repetitions; latencies
    pool every inference sample."""
    setups: list[float] = []
    stages: list[dict[str, float]] = []
    quality: dict[str, float] = {}
    inference = protocol.Inference(work, checks, clock)
    slice_s = seconds / (4 * (work.folds_per_run - 1) + 1)
    previous = None
    for rep in range(work.folds_per_run):
        for extra in range(work.setups_per_fold - 1):
            scratch = workdir / f"setup{rep}-{extra}"
            start = clock()
            protocol.set_up(work, scratch)
            setups.append(clock() - start)
            shutil.rmtree(scratch)
        fold = run_fold(
            work, workdir / f"fold{rep}", checks, clock,
            between=(lambda: None) if previous is None else functools.partial(
                inference.run, previous.setup, previous.align_params,
                previous.detect_params, seconds=slice_s))
        setups.append(fold.stage_s["setup_s"])
        stages.append(fold.stage_s)
        quality = quality or fold.quality
        if fold.quality != quality:
            checks.problem(f"repetition {rep} quality {fold.quality} differs "
                           f"from {quality}")
        previous = fold
    # the last slice ends on a whole pass with enough samples for the p95
    videos = len(previous.setup.corpus.videos)
    need = max(min_samples(P_TAIL), inference.done + 1)
    inference.run(previous.setup, previous.align_params,
                  previous.detect_params, seconds=slice_s,
                  until=math.ceil(need / videos) * videos)
    samples = inference.samples

    def stage(name: str) -> float:
        return statistics.median(s[name] for s in stages)

    values = {
        "setup_s": statistics.median(setups),
        "train_align_s": stage("train_align_s"),
        "fold_s": stage("fold_s"),
        "infer_per_s": len(samples) / (sum(samples) / 1e3),
        "infer_ms_p95": nearest_rank(samples, P_TAIL),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_f1_raw": quality["test_f1_raw"],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS.items()}
    detail = {"setup_s_all": setups,
              "stage_s_all": stages,
              "infer_ms_p50": nearest_rank(samples, 50.0),
              "infer_samples": len(samples),
              "infer_samples_beyond_p95": samples_beyond(len(samples), P_TAIL),
              "quality": quality}
    return metrics, detail


def layer_metrics(work: Workload, tracer: tracing.Tracer, summary: dict,
                  fold: FoldRun) -> dict[str, tuple[float, str]]:
    """Per-module counts and self times, summed over the traced run."""
    totals: dict[str, dict[str, float]] = {}
    for per_name in summary.values():
        for name, entry in per_name.items():
            total = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += entry["calls"]
            total["self_s"] += entry["self_s"]

    out: dict[str, tuple[float, str]] = {}

    def span(name: str, *keys: str) -> None:
        entry = totals[name]
        for key in keys:
            out[f"{name}.{key}"] = (entry[key], "s" if key == "self_s" else "count")

    dtw = "alignment.drop_dtw"
    span(dtw, "calls", "self_s")
    cells = tracer.counts[f"{dtw}.cells"]
    out[f"{dtw}.cells"] = (cells, "count")
    out[f"{dtw}.ns_per_cell"] = (totals[dtw]["self_s"] / cells * 1e9, "ns")
    out[f"{dtw}.cells_per_call"] = (cells / totals[dtw]["calls"], "count")
    span("alignment.percentile_drop_cost", "self_s")
    span("alignment.decode_segments", "self_s")
    for name in ("forward_slots", "select_slots", "batch_loss_and_grads",
                 "align_video"):
        span(f"model.{name}", "calls", "self_s")
    span("model.evaluate_alignment_f1", "self_s")
    span("model.train_alignment_fold", "self_s")
    out["model.best_epoch_frac"] = (
        (fold.align_training.best_epoch + 1) / work.align.epochs, "ratio")
    span("optim.Adam.step", "calls", "self_s")
    span("classifier.train_classifier_fold", "self_s")
    span("classifier.detect_on_segments", "calls", "self_s")
    span("classifier.detect_mistakes", "self_s")
    span("classifier.classify", "calls")
    train = set(fold.setup.fold.train)
    out["classifier.rows"] = (sum(len(v.segments) for v in fold.setup.corpus.videos
                                  if v.video_id in train), "count")
    out["classifier.useful_epoch_frac"] = (
        (fold.detect_training.best_epoch + 1) / work.detect.epochs, "ratio")
    for name in ("synth.synth_corpus", "corpus.Corpus.save",
                 "corpus.Corpus.from_dir", "data.load_corpus",
                 "features.read_features", "splits.make_group_kfold"):
        span(name, "self_s")
    out["features.bytes_read"] = (tracer.counts["features.read_features.bytes"],
                                  "B")
    out["features.bytes_written"] = (fold.setup.feature_bytes, "B")
    span("checkpoint.save_checkpoint", "self_s")
    span("checkpoint.load_checkpoint", "self_s")
    out["checkpoint.bytes"] = (fold.checkpoint_bytes, "B")
    span("metrics.map_at_tiou", "self_s")
    span("metrics.frame_metrics", "calls")

    for name in ("test_f1", "map_aligned", "map_oracle"):
        out[f"quality.{name}"] = (fold.quality[name], "score")
    return out


def claimed_split(work: Workload, summary: dict) -> dict:
    """Whether the module the workload exists for leads its phase in self
    time, and its share of that phase."""
    phase, claimed = work.claim
    self_s = {name: entry["self_s"] for name, entry in summary[phase].items()}
    phase_s = sum(self_s.values())
    in_phase = {name: value for name, value in self_s.items()
                if not name.startswith("bench.")}
    leader = max(in_phase, key=in_phase.get)
    return {"phase": phase, "module": claimed, "leader": leader,
            "holds": leader == claimed,
            "share": in_phase.get(claimed, 0.0) / phase_s}


def traced(work: Workload, workdir: Path, checks: protocol.Checks, clock,
           trace_path: Path) -> tuple[dict, dict]:
    reference = run_fold(work, workdir / "reference", checks, clock)
    tracer = tracing.Tracer(clock)
    with tracing.installed(tracer):
        fold = run_fold(work, workdir / "fold", checks, clock, tracer.span)
        with tracer.span("bench.infer"):
            protocol.Inference(work, checks, clock).run(
                fold.setup, fold.align_params, fold.detect_params,
                until=TRACE_PASSES * len(fold.setup.corpus.videos))
    uncrossed = tracing.uncrossed_sites(tracer)
    if uncrossed:
        raise tracing.MissingBoundary(f"never called: {uncrossed}")
    if fold.quality != reference.quality:
        checks.problem(f"traced quality {fold.quality} differs from "
                       f"untraced {reference.quality}")
    trace_path.write_text(json.dumps(
        {"spans": tracer.spans, "counts": dict(tracer.counts)}))
    summary = tracing.summarize(tracer.spans)
    split = claimed_split(work, summary)
    values = layer_metrics(work, tracer, summary, fold)
    values["trace.overhead"] = (
        fold.stage_s["fold_s"] / reference.stage_s["fold_s"] - 1.0, "ratio")
    values["split.claimed_share"] = (split["share"], "ratio")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in values.items()}
    detail = {"quality": fold.quality, "stage_s": fold.stage_s,
              "reference_stage_s": reference.stage_s, "split": split,
              "spans": len(tracer.spans), "trace_file": str(trace_path)}
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> tuple[dict, dict]:
    """One run; returns (run description, result line)."""
    work = make_workload(workload, seed)
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), **environment()}
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    checks = protocol.Checks()
    clock = time.perf_counter
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=out_dir))
    try:
        if trace:
            metrics, detail = traced(work, workdir, checks, clock,
                                     out_dir / f"trace-{tag}.json")
        else:
            metrics, detail = untraced(work, seconds, workdir, checks, clock)
    finally:
        shutil.rmtree(workdir)
    check_quality_record(out_dir / f"quality-{tag}-{program_digest()}.json",
                         detail["quality"], checks)
    info.update(detail=detail, problems=checks.problems, errors=checks.errors)
    result = {"correct": not checks.problems, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    (out_dir / f"result-{tag}-trace{int(trace)}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    return info, result
