"""Closed-loop timing of btpgeo CLI jobs, end to end and per layer.

One client in one process sends one job at a time to ``btpgeo.cli.main``
and waits for it.  A run makes passes over the workload's inputs, each pass
in a seeded order, until ``--seconds`` have passed; every job's output is
checked on every pass.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median over fresh interpreters of the time from process
  start until numpy and btpgeo are imported and the parser is built, at
  reference interpreter-start speed.
* ``job_ms_p50``: median over inputs of each input's latency, the median
  of its repeats in the run.
* ``job_ms_tail``: the highest percentile of those latencies with at least
  ten inputs beyond it.
* ``jobs_per_s``: jobs completed per second over every pass of the run,
  the throughput of one client.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The job figures are given at a reference host speed.  A small shared
host runs a fixed pure-Python loop anywhere from 1 to 1.9 times its best
time, in phases of a fraction of a second to longer than a run, and job
latencies follow it.  So the calibration loop runs right before every job,
and the job's latency is scaled by CALIB_REF_MS over the loop's time.  The
loop is stdlib ``Fraction`` arithmetic, which no change to btpgeo can speed
up.  Set-up time is scaled the same way by the start time of a bare
interpreter.  The raw figures and the loop's time are printed in the
summary.

Per-layer metrics (``--trace 1``) come from passes with ``tracing.Tracer``
installed, alternated with untraced passes whose throughput gives the
tracing overhead.  The first, cold pass is traced too: a layer whose call
counts differ between it and a later pass is being skipped by some
in-process cache, which a user running one job per process never gets, and
the run is marked not correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from btpgeo import cli

from . import tracing, workloads

SETUP_SPAWNS = 7
CALIB_ITERS = 800
CALIB_REF_MS = 2.4           # the loop's fast time on a 2-vCPU Xeon VM, Python 3.11
TAIL_BEYOND = 10
SCALAR_CAPTURE = 4000        # ExactComplex operand pairs kept for the isolated loop
SCALAR_CAPTURE_JOBS = 3      # lie_exact inputs they are captured from

SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "import numpy, btpgeo.cli; btpgeo.cli.build_parser(); "
                 "print(time.monotonic())")
BARE_SNIPPET = "import time; print(time.monotonic())"
BARE_REF_S = 0.05            # bare interpreter start on a 2-vCPU Xeon VM, Python 3.11

UNITS = {"calls": "count", "self_ms": "ms", "total_ms": "ms"}


# ---------------------------------------------------------------------------
# one job, one pass
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    ms: float
    error: Optional[str]
    out_bytes: int


def run_job(job: workloads.Job) -> Outcome:
    """Run one CLI job in process; time it, then check its output."""
    out, err = io.StringIO(), io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:     # a crash is a failed job, not a failed run
        ms = (time.perf_counter() - t) * 1e3
        return Outcome(ms, f"raised {type(exc).__name__}: {exc}", 0)
    ms = (time.perf_counter() - t) * 1e3
    text = out.getvalue()
    try:
        why = job.check(rc, text)
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        why = f"report has an unexpected shape: {type(exc).__name__}: {exc}"
    return Outcome(ms, why, len(text.encode()))


@dataclass
class PassResult:
    seconds: float                    # job time, calibration excluded
    latencies: List[float]            # indexed like the job list
    failures: List[Tuple[str, str]]
    report_bytes: int
    calib_ms: List[float]             # the calibration loop's time right before each job


def run_pass(jobs: List[workloads.Job], rng: random.Random) -> PassResult:
    """Run every job once, in a shuffled order, timing the calibration
    loop right before each job."""
    order = list(range(len(jobs)))
    rng.shuffle(order)
    lat = [0.0] * len(jobs)
    calib = [0.0] * len(jobs)
    failures = []
    nbytes = 0
    for i in order:
        calib[i] = calibrate()
        o = run_job(jobs[i])
        lat[i] = o.ms
        nbytes += o.out_bytes
        if o.error is not None:
            failures.append((jobs[i].name, o.error))
    return PassResult(sum(lat) / 1e3, lat, failures, nbytes, calib)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, CALIB_ITERS):
        acc += Fraction(k % 97 + 1, k)
    return (time.perf_counter() - t) * 1e3


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def _spawn_seconds(code: str, root: str) -> float:
    """Seconds from starting a fresh interpreter running ``code`` until it
    prints ``time.monotonic()``."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src")], cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def measure_setup(root: str, spawns: int = SETUP_SPAWNS) -> List[Tuple[float, float]]:
    """(set-up seconds, bare interpreter start seconds) for each of ``spawns``
    pairs of fresh interpreters, one right after the other."""
    return [(_spawn_seconds(SETUP_SNIPPET, root), _spawn_seconds(BARE_SNIPPET, root))
            for _ in range(spawns)]


def tail_rank(n: int) -> Tuple[int, int]:
    """(0-based rank, percentile) of the highest percentile of n sorted
    values with at least TAIL_BEYOND values beyond it."""
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} inputs, got {n}")
    return n - TAIL_BEYOND - 1, (100 * (n - TAIL_BEYOND)) // n


@dataclass
class Run:
    passes: List[PassResult] = field(default_factory=list)

    @property
    def calib_ms(self) -> List[float]:
        return [c for p in self.passes for c in p.calib_ms]

    @property
    def attempted(self) -> int:
        return sum(len(p.latencies) for p in self.passes)

    @property
    def failures(self) -> List[Tuple[str, str]]:
        return [f for p in self.passes for f in p.failures]


def timed_passes(jobs, seed: int, seconds: float, min_passes: int = 1,
                 before_pass=None, after_pass=None) -> Run:
    """Passes over ``jobs`` until ``seconds`` have elapsed.

    ``before_pass(k)`` and ``after_pass(k, result)`` run around pass k,
    outside its timed region.
    """
    rng = random.Random(f"order:{seed}")
    run = Run()
    deadline = time.perf_counter() + seconds
    while len(run.passes) < min_passes or time.perf_counter() < deadline:
        k = len(run.passes)
        if before_pass:
            before_pass(k)
        run.passes.append(run_pass(jobs, rng))
        if after_pass:
            after_pass(k, run.passes[-1])
    return run


def end_to_end_metrics(run: Run, setup: List[Tuple[float, float]]):
    """Metrics at reference host speed, plus the raw figures in ``info``.

    Each job's latency is scaled by CALIB_REF_MS over the calibration
    loop's time right before it, and an input's latency is the median of
    its scaled repeats.  Throughput counts every job of every pass.
    Each set-up time is scaled by BARE_REF_S over the start of a bare
    interpreter spawned right after it, which btpgeo cannot change.
    """
    raw_lat = np.array([p.latencies for p in run.passes])
    lat = raw_lat * CALIB_REF_MS / np.array([p.calib_ms for p in run.passes])
    per_input = np.median(lat, axis=0)
    rank, pct = tail_rank(len(per_input))
    raw_per_input = np.median(raw_lat, axis=0)
    raw = {
        "setup_s": statistics.median(s for s, _ in setup),
        "job_ms_p50": float(np.median(raw_per_input)),
        "job_ms_tail": float(np.sort(raw_per_input)[rank]),
        "jobs_per_s": run.attempted / (float(raw_lat.sum()) / 1e3),
    }
    metrics = {
        "setup_s": statistics.median(s / b for s, b in setup) * BARE_REF_S,
        "job_ms_p50": float(np.median(per_input)),
        "job_ms_tail": float(np.sort(per_input)[rank]),
        "jobs_per_s": run.attempted / (float(lat.sum()) / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"tail_percentile": pct, "tail_inputs_beyond": TAIL_BEYOND,
            "inputs": len(per_input), "passes": len(run.passes),
            "raw": raw, "calib_ms": statistics.median(run.calib_ms),
            "setup_s_samples": [round(s, 4) for s, _ in setup],
            "bare_start_s": statistics.median(b for _, b in setup)}
    return metrics, info


E2E_UNITS = {"setup_s": "s", "job_ms_p50": "ms", "job_ms_tail": "ms",
             "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def scalar_op_times(seed: int, workdir: str) -> Dict[str, float]:
    """Isolated ExactComplex multiply and add loop on lie_exact operands."""
    jobs = workloads.make_jobs("lie_exact", seed, workdir)[:SCALAR_CAPTURE_JOBS]
    tracer = tracing.Tracer(capture_operands=SCALAR_CAPTURE)
    tracer.install()
    tracer.enabled = True
    try:
        for job in jobs:
            run_job(job)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return tracing.time_scalar_ops(tracer.operands)


def count_mismatches(cold: dict, warm: List[dict]) -> List[str]:
    """Layers whose call counts on a warm pass differ from the cold pass."""
    return [f"{name}: {cold['calls'][name]} calls on the cold pass, "
            f"{snap['calls'][name]} on warm pass {k}"
            for k, snap in enumerate(warm, 1) for name in cold["calls"]
            if snap["calls"][name] != cold["calls"][name]]


def traced_metrics(jobs, seed: int, seconds: float, workdir: str):
    """Trace the cold first pass, then alternate traced and untraced passes.

    Layer figures are per pass: counts from the cold pass, which every warm
    traced pass must repeat exactly, and times as medians over the warm
    traced passes.
    """
    tracer = tracing.Tracer()
    snaps, traced_s, untraced_s, report_bytes = [], [], [], []

    def traced(k):
        return k == 0 or k % 2 == 1

    def before(k):
        if traced(k):
            tracer.reset()
            tracer.install()
            tracer.enabled = True

    def after(k, result):
        if traced(k):
            tracer.enabled = False
            tracer.uninstall()
            snaps.append(tracer.snapshot())
            traced_s.append(result.seconds)
            report_bytes.append(result.report_bytes)
        else:
            untraced_s.append(result.seconds)

    run = timed_passes(jobs, seed, seconds, 3, before, after)
    cold, warm = snaps[0], snaps[1:]
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, (fld, span) in tracing.LAYER_METRICS.items():
        if fld == "calls":
            metrics[metric] = (cold["calls"][span], "count")
        else:
            metrics[metric] = (statistics.median(s[fld][span] for s in warm), UNITS[fld])
    ops = scalar_op_times(seed, workdir)
    n = len(jobs)
    metrics.update({
        "forms.terms_out": (cold["terms_out"], "count"),
        "cli.report_bytes": (report_bytes[0], "bytes"),
        "scalars.mul_us": (ops["mul"], "us"),
        "scalars.add_us": (ops["add"], "us"),
        "trace.jobs_per_s_traced": (n / statistics.median(traced_s[1:]), "1/s"),
        "trace.jobs_per_s_untraced": (n / statistics.median(untraced_s), "1/s"),
        "host.calib_ms": (statistics.median(run.calib_ms), "ms"),
    })
    info = {"traced_passes": len(snaps), "untraced_passes": len(untraced_s),
            "count_mismatches": count_mismatches(cold, warm)}
    return run, metrics, info, tracer.records


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def environment(root: str) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(root), "nproc": os.cpu_count()}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = os.path.join(root, ".git", ref)
            if os.path.isfile(ref_file):
                with open(ref_file) as fh:
                    return fh.read().strip()
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def summarize(workload: str, seed: int, run: Run, metrics, info, env, out=sys.stderr):
    failures = run.failures
    print(f"workload {workload}  seed {seed}  inputs {info.get('inputs', '-')}  "
          f"passes {len(run.passes)}  attempted {run.attempted}  failed {len(failures)}  "
          f"error_ratio {len(failures) / run.attempted:.4f}", file=out)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = (f"  (raw {info['setup_s_samples']}, "
                    f"bare start {info['bare_start_s']:.4f} s)")
        if name == "job_ms_tail":
            note = (f"  (p{info['tail_percentile']} of {info['inputs']} inputs, "
                    f"{info['tail_inputs_beyond']} beyond)")
        print(f"  {name:<40} {value:>14.6g} {unit}{note}", file=out)
    if "raw" in info:
        print(f"  raw, at median calib_ms {info['calib_ms']:.4f}: " + ", ".join(
            f"{k} {v:.6g}" for k, v in info["raw"].items()), file=out)
    if info.get("count_mismatches"):
        print("  NOT CORRECT: layer call counts differ between the cold pass and a warm "
              "pass, so an in-process cache skips work:", file=out)
        for line in info["count_mismatches"]:
            print(f"    {line}", file=out)
    seen = {}
    for name, why in failures:
        seen.setdefault(name, [0, why])[0] += 1
    if seen:
        print(f"  inputs that failed their check ({len(seen)}):", file=out)
        for name, (count, why) in sorted(seen.items()):
            print(f"    {name} [{count}x]: {why}", file=out)
    calib = run.calib_ms
    print(f"  calib_ms median {statistics.median(calib):.2f} "
          f"(min {min(calib):.2f}, max {max(calib):.2f}, n {len(calib)})  "
          f"python {env['python']}  numpy {env['numpy']}  commit {env['commit']}  "
          f"nproc {env['nproc']}", file=out)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str):
    workdir = os.path.join(root, "bench", "_work", f"{workload}-{seed}")
    jobs = workloads.make_jobs(workload, seed, workdir)
    env = environment(root)
    if trace:
        run, metrics, info, records = traced_metrics(jobs, seed, seconds, workdir)
        info["inputs"] = len(jobs)
        with open(os.path.join(workdir, "spans.jsonl"), "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    else:
        setup = measure_setup(root)
        run = timed_passes(jobs, seed, seconds)
        values, info = end_to_end_metrics(run, setup)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    summarize(workload, seed, run, metrics, info, env)
    failed = len(run.failures)
    correct = failed == 0 and not info.get("count_mismatches")
    return {"correct": correct, "attempted": run.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv, root: str) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
        print(json.dumps(result))
        return 0
    # One process per workload, so that each reports its own peak memory.
    results = {}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, check=True)
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0
