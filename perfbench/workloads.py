"""Job lists of the three workloads and the checks on each job's output.

A job is one redsim CLI command, or one library call made by ``job.py``,
run in a fresh child process.  Every input is drawn from a
``random.Random`` seeded with the workload name and the benchmark seed, so
the same seed gives the same jobs.  The seed moves grids, strengths, loss
probabilities and Monte Carlo seeds, never the network sizes and round
counts that set how much work a job does.

Each check returns a list of problems (empty when the output is right) and a
dict of facts worth reporting, such as a threshold's distance from its exact
crossing.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as R

# Curve values are printed with 12 significant digits and the program's
# optimizer stops at a strength bracket of 1e-6; both keep values within
# ~1e-12 of the reference, far inside this tolerance.
CURVE_TOL = 1e-9
# Strengths and values on stderr carry 6 significant digits.
PRINTED_REL = 5e-6
# The program bisects its chord down to a 1e-5 interval and returns the
# midpoint.
THRESHOLD_RESOLUTION = 1e-5
# Monte Carlo means must lie within this many standard errors.
MC_SIGMAS = 5.0
DENSE_TOL = 1e-10
PAIR_TOL = 1e-9
MARKOV_TOL = 1e-10
# redsim.analysis.derivative_at_zero uses this step.
SLOPE_STEP = 1e-4

WORKLOADS = ("figures", "validate", "dense")


@dataclass
class Job:
    label: str
    kind: str  # "cli" or "lib"
    argv: list[str]
    check: Callable[[str, str], tuple[list[str], dict]]
    samples: int = 0  # Monte Carlo samples the job asks for
    env: dict = field(default_factory=dict)


def _tsv(stdout: str) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split("\t") for line in stdout.splitlines() if line]
    data = np.array([[float(a), float(b)] for a, b in rows])
    return data[:, 0], data[:, 1]


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def _fmt_grid(start: float, stop: float, points: int) -> list[str]:
    return ["--eps-start", repr(start), "--eps-stop", repr(stop), "--points", str(points)]


def _shape_problems(label: str, eps, values, grid) -> list[str]:
    problems = []
    if len(eps) != len(grid) or not _close(eps, grid, 1e-11):
        problems.append(f"{label}: grid differs from the requested one")
    if np.any(values < 0.0) or np.any(values > 1.0):
        problems.append(f"{label}: values outside [0, 1]")
    if np.any(np.diff(values) > 1e-12):
        problems.append(f"{label}: curve increases with the loss probability")
    return problems


def curve_job(resource: str, n: int, rounds: int, grid: tuple, mode: str = "robust",
              kappa: float | None = None) -> Job:
    start, stop, points = grid
    argv = ["curve", "--resource", resource, "--n", str(n), "--rounds", str(rounds)]
    if resource == "twocentered":
        argv += ["--mode", mode]
    if kappa is not None:
        argv += ["--kappa", repr(kappa)]
    argv += _fmt_grid(start, stop, points)
    label = f"curve {resource} n={n} r={rounds}" + (f" kappa={kappa}" if kappa is not None else "")
    if resource == "twocentered":
        label += f" {mode}"
    expected_grid = np.linspace(start, stop, points)
    if resource == "w" and kappa is None:
        for lost in range(n - 1):
            R.optimum(n, lost, rounds)

    def check(stdout, stderr):
        eps, values = _tsv(stdout)
        problems = _shape_problems(label, eps, values, expected_grid)
        if problems:
            return problems, {}
        if kappa is not None:
            ref = R.w_fixed_curve(n, rounds, kappa, eps)
        else:
            ref = R.curve(resource, n, rounds, eps, mode)
        gap = float(np.max(np.abs(values - ref)))
        if gap > CURVE_TOL:
            problems.append(f"{label}: off the reference by {gap:.3g}")
        if resource == "w" and kappa is None:
            problems += _optimum_problems(label, n, rounds, stderr)
        return problems, {"max_gap": gap}

    return Job(label, "cli", argv, check)


_OPT_LINE = re.compile(r"lost=(\d+) kappa_star=(\S+) value=(\S+)")


def _optimum_problems(label: str, n: int, rounds: int, stderr: str) -> list[str]:
    """No strength on the reference scan may beat the reported optimum."""
    found = {int(m[1]): (float(m[2]), float(m[3])) for m in _OPT_LINE.finditer(stderr)}
    if sorted(found) != list(range(n - 1)):
        return [f"{label}: expected optima for lost = 0..{n - 2} on stderr"]
    problems = []
    for lost, (kappa, value) in found.items():
        at_reported = float(R.branch_values(n, lost, [kappa], rounds)[0])
        best_scanned = float(R.scan(n, lost, rounds)[1].max())
        if best_scanned > at_reported + CURVE_TOL:
            problems.append(f"{label}: lost={lost} kappa*={kappa} is beaten by the scan "
                            f"({best_scanned:.12g} > {at_reported:.12g})")
        if abs(value - at_reported) > PRINTED_REL * abs(at_reported) + 1e-12:
            problems.append(f"{label}: lost={lost} printed value {value} != {at_reported:.12g}")
    return problems


def _threshold_facts(a: str, b: str, n: int, rounds: int, mode: str, grid_xs: np.ndarray,
                     reported: float) -> tuple[list[str], dict]:
    """Compare a reported threshold with the exact crossing on its grid segment."""
    def diff(x):
        return R.curve(a, n, rounds, x, mode) - R.curve(b, n, rounds, x, mode)

    exact = R.crossing(diff, float(grid_xs[0]), float(grid_xs[-1]))
    tag = f"{a} vs {b} n={n} r={rounds}"
    if exact is None:
        return [f"threshold {tag}: the reference curves do not cross"], {}
    j = int(np.searchsorted(grid_xs, exact))
    g0, g1 = float(grid_xs[max(j - 1, 0)]), float(grid_xs[min(j, len(grid_xs) - 1)])
    bound = R.interpolation_bound(diff, g0, g1) + THRESHOLD_RESOLUTION
    facts = {"pair": tag, "reported": reported, "exact": exact,
             "distance": abs(reported - exact), "bound": bound}
    if abs(reported - exact) > bound:
        return [f"threshold {tag}: {reported:.8f} is {abs(reported - exact):.3g} from the exact "
                f"crossing {exact:.8f}, more than the interpolation bound {bound:.3g}"], facts
    return [], facts


def threshold_job(a: str, b: str, n: int, rounds: int, grid: tuple, mode: str = "robust") -> Job:
    start, stop, points = grid
    argv = ["threshold", "--a", a, "--b", b, "--n", str(n), "--rounds", str(rounds),
            "--mode", mode, *_fmt_grid(start, stop, points), "--json"]
    label = f"threshold {a} vs {b} n={n} r={rounds}"
    xs = np.linspace(start, stop, points)
    for lost in range(n - 1):
        R.optimum(n, lost, rounds)

    def check(stdout, stderr):
        report = json.loads(stdout)
        return _threshold_facts(a, b, n, rounds, mode, xs, float(report["epsilon0"]))

    return Job(label, "cli", argv, check)


def advantage_job(n_min: int, n_max: int, rounds: int, vs: str, mode: str = "robust") -> Job:
    argv = ["advantage", "--n-min", str(n_min), "--n-max", str(n_max), "--rounds", str(rounds),
            "--vs", vs, "--mode", mode, "--json"]
    label = f"advantage n={n_min}..{n_max} r={rounds} vs {vs}"
    xs = np.linspace(0.0, 1.0, 101)
    for n in range(n_min, n_max + 1):
        for lost in range(n - 1):
            R.optimum(n, lost, rounds)

    def check(stdout, stderr):
        report = json.loads(stdout)
        rows = report["rows"]
        problems = []
        facts = {"thresholds": []}
        if [row["n"] for row in rows] != list(range(n_min, n_max + 1)):
            return [f"{label}: rows do not cover n = {n_min}..{n_max}"], {}
        for row in rows:
            n = row["n"]
            # One-sided second-order stencil: error at most h^2/3 max|f'''|.
            stencil = SLOPE_STEP**2 / 3.0 * (n - 2) * (n - 3) * (n - 4) + 1e-9
            if abs(row["ghz_slope"] + (n - 2)) > stencil:
                problems.append(f"{label}: GHZ slope at n={n} is {row['ghz_slope']}, not {-(n - 2)}")
            ratio = R.optimum(n, 0, rounds)[1] - R.optimum(n, 1, rounds)[1]
            if abs(row["ratio"] - ratio) > 2 * CURVE_TOL:
                problems.append(f"{label}: slope ratio at n={n} is {row['ratio']}, not {ratio:.12g}")
            if row["threshold"] is None:
                problems.append(f"{label}: no threshold at n={n}")
                continue
            found, fact = _threshold_facts("w", vs, n, rounds, mode, xs, float(row["threshold"]))
            problems += found
            facts["thresholds"].append(fact)
        ratios = [row["ratio"] for row in rows]
        thresholds = [row["threshold"] or 0.0 for row in rows]
        if not (report["ratio_decreasing"] and all(x > y for x, y in zip(ratios, ratios[1:]))):
            problems.append(f"{label}: slope ratios do not decrease with n")
        if not (report["threshold_decreasing"] and all(x > y for x, y in zip(thresholds, thresholds[1:]))):
            problems.append(f"{label}: thresholds do not decrease with n")
        return problems, facts

    return Job(label, "cli", argv, check)


def markov_job(n: int, kappa: float, steps: int) -> Job:
    argv = ["markov", "--n", str(n), "--kappa", repr(kappa), "--steps", str(steps)]
    label = f"markov n={n} steps={steps}"

    def check(stdout, stderr):
        lines = stdout.splitlines()
        header, rows, tail = lines[0], lines[1:-1], lines[-1]
        labels = [f"W{m}" for m in range(n, 2, -1)] + ["Bell", "sep"]
        if header.split("\t")[1:] != labels or len(rows) != len(labels):
            return [f"{label}: unexpected chain states"], {}
        matrix = np.array([[float(v) for v in row.split("\t")[1:]] for row in rows])
        problems = []
        if not _close(matrix.sum(axis=1), 1.0, MARKOV_TOL):
            problems.append(f"{label}: rows do not sum to 1")
        if not _close(matrix, R.markov_matrix(n, kappa), MARKOV_TOL):
            problems.append(f"{label}: transition matrix differs from the class weights")
        name, *values = tail.split("\t")
        if name != f"W{n} after {steps} rounds":
            problems.append(f"{label}: missing the r-step row")
        elif not _close([float(v) for v in values], R.markov_row(n, kappa, steps), MARKOV_TOL):
            problems.append(f"{label}: r-step row differs from the matrix power")
        return problems, {}

    return Job(label, "cli", argv, check)


def mc_job(n: int, rounds: int, eps: float, samples: int, seed: int,
           kappa: float | None = None) -> Job:
    argv = ["mc", "--n", str(n), "--rounds", str(rounds), "--eps", repr(eps),
            "--samples", str(samples), "--seed", str(seed), "--json"]
    if kappa is not None:
        argv += ["--kappa", repr(kappa)]
    label = f"mc n={n} r={rounds}" + ("" if kappa is None else " fixed kappa")
    if kappa is None:
        exact = float(R.w_curve(n, rounds, eps)[0])
    else:
        exact = float(R.w_fixed_curve(n, rounds, kappa, eps)[0])

    def check(stdout, stderr):
        report = json.loads(stdout)
        problems = []
        if report["samples"] != samples or report["seed"] != seed:
            problems.append(f"{label}: ran {report['samples']} samples with seed {report['seed']}")
        if abs(report["reference"] - exact) > CURVE_TOL:
            problems.append(f"{label}: deterministic value {report['reference']} != {exact:.12g}")
        se = report["standard_error"]
        if not se > 0.0 or abs(report["mean"] - exact) > MC_SIGMAS * se + 1e-12:
            problems.append(f"{label}: mean {report['mean']} is more than {MC_SIGMAS} standard "
                            f"errors ({se}) from {exact:.12g}")
        return problems, {"z": (report["mean"] - exact) / se if se > 0 else None,
                          "backend": report["backend"]}

    return Job(label, "cli", argv, check, samples=samples)


def lib_job(name: str, params: dict, check) -> Job:
    label = " ".join([name] + [f"{k}={v}" for k, v in params.items() if not isinstance(v, list)])
    return Job(label, "lib", [name, json.dumps(params)], check)


def dense_kraus_job(n: int, kappas: list[float]) -> Job:
    def check(stdout, stderr):
        rows = json.loads(stdout)
        problems = []
        if len(rows) != (n - 1) * len(kappas):
            return [f"dense n={n}: expected {(n - 1) * len(kappas)} rows, got {len(rows)}"], {}
        for row in rows:
            tag = f"dense n={n} lost={row['lost']} kappa={row['kappa']:.6g}"
            ref = float(R.branch_values(n, row["lost"], [row["kappa"]], 1)[0])
            if abs(row["dense"] - row["branch"]) > DENSE_TOL:
                problems.append(f"{tag}: dense {row['dense']!r} != avg_entanglement {row['branch']!r}")
            if abs(row["branch"] - ref) > DENSE_TOL:
                problems.append(f"{tag}: avg_entanglement {row['branch']!r} != reference {ref!r}")
            if abs(row["weight_sum"] - 1.0) > DENSE_TOL:
                problems.append(f"{tag}: Kraus weights sum to {row['weight_sum']!r}")
        return problems, {}

    return lib_job("dense_kraus", {"n": n, "kappas": kappas}, check)


def w_pairs_job(n: int) -> Job:
    def check(stdout, stderr):
        pairs = json.loads(stdout)
        problems = []
        if sorted((a, b) for a, b, _ in pairs) != list(itertools.combinations(range(n), 2)):
            problems.append(f"w pairs n={n}: not every pair was reduced")
        worst = max(abs(c - 2.0 / n) for _, _, c in pairs)
        if worst > PAIR_TOL:
            problems.append(f"w pairs n={n}: concurrence is {worst:.3g} away from 2/n")
        return problems, {}

    return lib_job("w_pairs", {"n": n}, check)


def parity_job(cases: list[dict]) -> Job:
    def check(stdout, stderr):
        report = json.loads(stdout)
        if "skipped" in report:
            return [], {"parity": f"skipped: {report['skipped']}"}
        if not report["identical"]:
            return ["compiled and pure-Python kernels disagree"], {}
        return [], {"parity": "identical"}

    return lib_job("backend_parity", {"cases": cases}, check)


def _grid(rng: random.Random) -> tuple:
    """A 101-point grid from 0 to a seeded stop in [0.8, 1]."""
    return (0.0, round(rng.uniform(0.8, 1.0), 4), 101)


def _near(rng: random.Random, centre: float) -> float:
    """A loss probability or strength within 0.01 of ``centre``.

    Both set how long a Monte Carlo sample walks, so the seed only jitters
    them; it would otherwise change the amount of work in a round.
    """
    return round(centre + rng.uniform(-0.01, 0.01), 4)


def _interleave(jobs: list[Job], spot: list[Job], repeats: int = 1) -> list[Job]:
    """Spread ``repeats`` passes of Monte Carlo spot checks evenly through a job list.

    A short job times whatever the machine is doing at that moment; spread
    out, the spot checks sample the whole round.  A job that appears more
    than once is timed by the fastest of its runs (see ``run.py``), so a
    slow spell drops out unless it covers every pass.
    """
    passes = spot * repeats
    out = list(jobs)
    step = len(jobs) / len(passes)
    for k, job in reversed(list(enumerate(passes))):
        out.insert(round((k + 0.5) * step), job)
    return out


def figures(rng: random.Random) -> list[Job]:
    """The paper's figure data through the CLI."""
    jobs = [curve_job("w", n, rounds, _grid(rng)) for n in range(4, 13) for rounds in (1, 5, 20)]
    jobs += [curve_job("ghz", n, 1, _grid(rng)) for n in (4, 8, 12)]
    jobs += [curve_job("twocentered", n, 1, _grid(rng)) for n in (4, 8, 12)]
    jobs.append(curve_job("twocentered", 8, 1, _grid(rng), mode="strict"))
    jobs += [
        threshold_job("w", "ghz", rng.choice((6, 11)), 1, _grid(rng)),
        threshold_job("w", "twocentered", rng.choice((5, 10)), 1, _grid(rng)),
        threshold_job("w", "ghz", 9, 5, _grid(rng)),
        threshold_job("w", "twocentered", 9, 5, _grid(rng)),
        advantage_job(4, 12, 1, "ghz"),
        advantage_job(4, 12, 5, "twocentered"),
    ]
    jobs += [markov_job(rng.randint(3, 12), round(rng.uniform(0.05, 0.95), 4), rng.randint(1, 20))
             for _ in range(3)]
    spot = [mc_job(n, 1, _near(rng, 0.3), 50_000, rng.getrandbits(32)) for n in (6, 12)]
    # One round fills most of a run, so each spot check runs five times in it.
    return _interleave(jobs, spot, repeats=5)


def validate(rng: random.Random, threads: int) -> list[Job]:
    """Monte Carlo and fixed-strength checks next to the figures."""
    jobs = [mc_job(n, rounds, _near(rng, eps), 40_000, rng.getrandbits(32))
            for n, rounds, eps in ((4, 1, 0.3), (8, 3, 0.2), (12, 5, 0.1))]
    jobs += [mc_job(n, rounds, _near(rng, eps), 40_000, rng.getrandbits(32), kappa=_near(rng, kappa))
             for n, rounds, eps, kappa in ((6, 2, 0.4, 0.3), (10, 5, 0.3, 0.2), (12, 1, 0.2, 0.25))]
    # The fixed-strength n = 12, r = 20 curve recomputes the per-branch
    # averages at every grid point; kept exactly as the command that shows it.
    jobs.append(curve_job("w", 12, 20, (0.0, 1.0, 101), kappa=0.2))
    jobs += [curve_job("w", n, rounds, _grid(rng), kappa=_near(rng, kappa))
             for n, rounds, kappa in ((8, 5, 0.3), (5, 1, 0.25))]
    cases = [{"seed": rng.getrandbits(32), "n": n, "rounds": rounds, "eps": _near(rng, 0.3),
              "kappas": [_near(rng, 0.25) for _ in range(n - 1)]}
             for n, rounds in ((4, 1), (8, 3), (12, 5))]
    jobs.append(parity_job(cases))
    for job in jobs:
        job.env = {"REDSIM_THREADS": str(threads)}
    return jobs


def dense(rng: random.Random) -> list[Job]:
    """The dense qcore route against the branch engine."""
    jobs = [dense_kraus_job(n, sorted(round(rng.uniform(0.05, 0.95), 4) for _ in range(4)))
            for n in range(3, 8)]
    jobs += [w_pairs_job(n) for n in range(3, 13)]
    spot = [mc_job(n, 1, _near(rng, 0.3), 60_000, rng.getrandbits(32), kappa=_near(rng, 0.3))
            for n in (4, 5, 6, 7)]
    return _interleave(jobs, spot)


def build(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "figures":
        return figures(rng)
    if workload == "validate":
        return validate(rng, min(2, os.cpu_count() or 1))
    if workload == "dense":
        return dense(rng)
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
