#!/usr/bin/env python3
"""Benchmark of redsim: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload figures|validate|dense --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  One client submits the workload's
jobs one after another (a closed loop); each job is a redsim CLI command or a
library call in a fresh child process, and its output is checked against the
benchmark's own reference.  A run makes one round over the job list, and
more while another round would still end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: the sum over distinct jobs of each job's fastest wall time
  across all its runs (a job list may hold a job more than once).  A job's
  work is fixed by its inputs, so its runs differ only by what else the
  machine did meanwhile; the fastest run leaves out a slow spell unless the
  spell covers every run of the job.
- ``setup_s``: median wall time of fresh interpreters that import redsim and
  exit, three before the first round and three after each round.
- ``peak_rss_mib``: the largest resident set of any child process.
- ``mc_samples_per_s``: Monte Carlo samples asked for by the distinct ``mc``
  jobs, divided by the sum of their fastest wall times.

``--trace 1`` runs every job
with the redsim layers wrapped (see ``tracer.py``), reports the per-layer
metrics and writes the per-layer table, the threshold facts and the first
round's spans to ``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
JOB_TIMEOUT_S = 150
SETUP_STARTS = 3  # fresh interpreters timed before the first and after each round

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "mc_samples_per_s": "samples/s"}

QCORE = ("tensor", "apply_kraus", "partial_trace", "concurrence")
PER_LAYER = {
    "analysis.branch_optima.calls": "count",
    "analysis.branch_optima.misses": "count",
    "analysis.branch_optima.s": "s",
    "analysis.optimize_kappa.calls": "count",
    "analysis.optimize_kappa.evaluations": "count",
    "analysis.optimize_kappa.s": "s",
    "analysis.avg_entanglement.calls": "count",
    "analysis.avg_entanglement.s": "s",
    "analysis.fom_fixed_kappa.calls": "count",
    "analysis.fom_fixed_kappa.s": "s",
    "analysis.build_curve.s": "s",
    "analysis.threshold.s": "s",
    "locc.run_rounds.calls": "count",
    "locc.run_rounds.s": "s",
    "locc.build_transition_matrix.s": "s",
    "locc.r_step_distribution.s": "s",
    "lossy.s": "s",
    "oracle.mc_estimate.s": "s",
    "oracle.kernel_s": "s",
    "oracle.kernel_samples": "count",
    "oracle.kernel_samples_per_s": "samples/s",
    **{f"qcore.{name}.{what}": unit for name in QCORE for what, unit in (("calls", "count"), ("s", "s"))},
    "qcore.bytes_computed": "B",
    "resources.w_sigma.s": "s",
    "resources.w_state.s": "s",
    "cli.jobs": "count",
    "cli.import_s": "s",
    "trace.wall_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REDSIM_")}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def build() -> None:
    """Byte-compile the sources, so no job pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "redsim"), HERE],
        check=True, stdout=subprocess.DEVNULL, env=child_env({}),
    )


def cold_setup_s() -> float:
    """Wall time for a fresh interpreter to import redsim and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import redsim.cli"], check=True, env=child_env({}), cwd=ROOT)
    return time.perf_counter() - start


def command(job: workloads.Job, trace_path: str | None) -> list[str]:
    if job.kind == "cli" and trace_path is None:
        return [sys.executable, "-m", "redsim", *job.argv]
    cmd = [sys.executable, os.path.join(HERE, "job.py")]
    if trace_path is not None:
        cmd += ["--trace", trace_path]
    return cmd + [job.kind, *job.argv]


class Round:
    def __init__(self):
        self.walls: list[float] = []  # one per job, in job order
        self.failed = 0
        self.problems: list[str] = []
        self.facts: list[dict] = []
        self.layers: Counter = Counter()
        self.spans: list[dict] = []
        self.meta: dict = {}


def run_round(jobs: list[workloads.Job], trace_dir: str | None) -> Round:
    rnd = Round()
    for index, job in enumerate(jobs):
        trace_path = None if trace_dir is None else os.path.join(trace_dir, f"job{index}.json")
        cmd = command(job, trace_path)
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(job.env), cwd=ROOT, capture_output=True,
                                  text=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - start
        rnd.walls.append(wall)
        if proc is None or proc.returncode != 0:
            rnd.failed += 1
            reason = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr[-400:]}"
            log(f"FAILED {job.label}: {reason}")
            continue
        try:
            problems, facts = job.check(proc.stdout, proc.stderr)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems, facts = [f"{job.label}: unreadable output ({exc!r})"], {}
        rnd.problems += problems
        if facts:
            rnd.facts.append({"job": job.label, **facts})
        if trace_path is not None:
            with open(trace_path, encoding="utf-8") as handle:
                dump = json.load(handle)
            rnd.layers.update(tracer.summarize(dump["spans"], dump["counts"], dump["kernel_calls"]))
            rnd.layers["cli.import_s"] += dump["import_s"]
            rnd.layers["cli.jobs"] += 1
            rnd.meta = dump["meta"]
            rnd.spans.append({"job": job.label, "argv": job.argv, "wall_s": wall, "spans": dump["spans"]})
    if trace_dir is not None:
        rnd.layers["trace.wall_s"] = sum(rnd.walls)
        kernel_s = rnd.layers["oracle.kernel_s"]
        rnd.layers["oracle.kernel_samples_per_s"] = rnd.layers["oracle.kernel_samples"] / kernel_s if kernel_s else 0.0
        rnd.problems += cross_checks(rnd.layers, jobs)
    return rnd


def cross_checks(layers: Counter, jobs: list[workloads.Job]) -> list[str]:
    """Totals that two independent paths through the trace must agree on."""
    problems = []
    evaluations = layers["analysis.optimize_kappa.evaluations"]
    inside = layers["analysis.avg_entanglement.in_optimizer"]
    if evaluations != inside:
        problems.append(f"trace: optimize_kappa reports {evaluations} evaluations, "
                        f"but {inside} avg_entanglement calls ran inside it")
    requested = sum(job.samples for job in jobs)
    drawn = layers["oracle.mc_estimate.samples"]
    if drawn != requested:
        problems.append(f"trace: mc_estimate drew {drawn} kernel samples, the jobs asked for {requested}")
    return problems


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def git_sha() -> str:
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def write_trace(workload: str, seed: int, rounds: list[Round], metrics: dict) -> str:
    first = rounds[0]
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "meta": {**first.meta, "git_sha": git_sha()},
        "per_layer": {name: entry["value"] for name, entry in metrics.items()},
        "facts": first.facts,
        "jobs": first.spans,
        "span_fields": ["id", "parent", "name", "start", "end"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "redsim", "__init__.py")):
        log(f"no redsim sources under {SRC}; run from the root of a redsim checkout")
        return 2
    build()
    setup_times = [cold_setup_s() for _ in range(SETUP_STARTS)]
    jobs = workloads.build(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(OUT, f"spans-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)

    rounds: list[Round] = []
    begin = time.perf_counter()
    try:
        while True:
            rounds.append(run_round(jobs, trace_dir))
            setup_times += [cold_setup_s() for _ in range(SETUP_STARTS)]
            last = sum(rounds[-1].walls)
            log(f"round {len(rounds)}: {last:.3f} s over {len(jobs)} jobs")
            if time.perf_counter() - begin + last > args.seconds:
                break
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)

    problems = [p for rnd in rounds for p in rnd.problems]
    for problem in problems:
        log(f"WRONG {problem}")
    for fact in rounds[0].facts:
        if "parity" in fact:
            log(f"backend parity check: {fact['parity']}")

    if args.trace:
        metrics = {
            name: {"value": median([rnd.layers[name] for rnd in rounds]), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        log(f"trace written to {write_trace(args.workload, args.seed, rounds, metrics)}")
    else:
        times: dict[int, list[float]] = {}  # every run of each distinct job
        for rnd in rounds:
            for job, wall in zip(jobs, rnd.walls):
                times.setdefault(id(job), []).append(wall)
        distinct = list({id(job): job for job in jobs}.values())
        fastest = {id(job): min(times[id(job)]) for job in distinct}
        mc = [job for job in distinct if job.samples]
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_s": sum(fastest.values()),
            "setup_s": median(setup_times),
            "peak_rss_mib": peak_kib / 1024.0,
            "mc_samples_per_s": sum(job.samples for job in mc) / sum(fastest[id(job)] for job in mc),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs) * len(rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
