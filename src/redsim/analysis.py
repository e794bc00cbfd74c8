"""Entanglement accounting and optimization on top of the branch engine.

The headline quantity is the loss-averaged, strength-optimized expected pair
concurrence of a W resource, evaluated pointwise over a loss-probability
grid and compared against the closed-form GHZ-like benchmarks.

Branches are scored on the lossless chain P(kappa) of ``locc._chain_stack``:
one stack of chains at K strengths goes through ``rounds`` batched products
with the score vector, which gives the score of every W_m state, and so of
every loss branch (branch ``lost`` reads row W_(n-lost)), at every strength.
``avg_entanglement``, the fixed-strength values and the optimizer all read
that one scorer.  The optimizer scans 101 strengths in one stacked
evaluation, then refines every branch by golden section in lockstep: each
branch keeps its own bracket, stopping rule and best value, and each step
scores the probes of all branches still refining in one stack.  Per-loss
optima and fixed-strength values do not depend on the loss probability, so
they are computed once and cached across a whole curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import locc, lossy
from .locc import BranchState, _check_kappa

__all__ = [
    "OptimizationResult",
    "Curve",
    "branch_concurrence",
    "avg_entanglement",
    "optimize_kappa",
    "branch_optima",
    "fom_lower_bound",
    "fom_fixed_kappa",
    "default_grid",
    "build_curve",
    "threshold",
    "derivative_at_zero",
    "advantage_ratio",
]

DEFAULT_TOL = 1e-6
DEFAULT_GRID_POINTS = 101
# Bounds a grid's memory and time: a 100 000-point n = 12 W curve takes
# about 0.5 s and 55 MiB from the CLI, ten times more about 4 s and 280 MiB.
MAX_GRID_POINTS = 100_000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

RESOURCES = ("w", "ghz", "twocentered")


def branch_concurrence(branch: BranchState) -> float:
    """Concurrence of the best surviving pair of a branch.

    Tracing a branch down to any live pair leaves the pair's W component
    (weight 2/m of the branch's W weight) mixed with a separable remainder,
    and the concurrence of that mixture is exactly the W-pair fraction.
    """
    if branch.m < 2:
        return 0.0
    total = branch.total
    if total <= 0.0:
        return 0.0
    return (2.0 / branch.m) * branch.w_weight / total


def _chain_scores(n_parties: int, rounds: int, kappas: Sequence[float] | np.ndarray) -> np.ndarray:
    """Rows of P(kappa)^rounds s for the n-party chain at every strength, shape (K, n).

    A terminal state scores 2/j per unit of W weight on W_j (1 on Bell, 0 on
    sep).  Each product sums its terms column by column, left to right: the
    terms sit in a (K, column, row) array whose row axis is innermost, so
    the reduction over columns adds whole rows in order.  The W_m row of a
    larger chain, whose leading entries are zero, then carries the same bits
    as the first row of the m-party chain.
    """
    terms = locc._chain_stack(n_parties, kappas).transpose(0, 2, 1).copy()
    score = np.append(2.0 / np.arange(n_parties, 1, -1), 0.0)[None, :]
    for _ in range(rounds):
        score = np.add.reduce(terms * score[:, :, None], axis=1)
    return score


def _branch_scorer(n_parties: int, rounds: int) -> Callable[[np.ndarray], np.ndarray]:
    """``values(kappas)``: every survivor branch of a W resource at every strength.

    Shape (K, n - 1), column ``lost``: the branch's W share times row
    W_(n-lost) of the chain scores (the pair branch reads the Bell row, 1).
    """
    branches = [lossy.w_branch(n_parties, lost) for lost in range(n_parties - 1)]
    share = np.array([b.w_weight / b.total for b in branches])

    def values(kappas):
        return share * _chain_scores(n_parties, rounds, kappas)[:, : n_parties - 1]

    return values


def avg_entanglement(start: BranchState, kappa: float, rounds: int) -> float:
    """Expected best-pair concurrence after measuring for ``rounds`` rounds.

    The W weight moves on the lossless chain P on its own, so the score is
    (w / total) * e_{W_m}^T P^rounds s.  Pairs do not measure.
    """
    if rounds < 1:
        raise ValueError(f"round count must be at least 1, got {rounds}")
    _check_kappa(kappa)
    if start.total <= 0.0:
        raise ValueError("initial branch has no weight")
    if start.m <= 2:
        return branch_concurrence(start)
    return start.w_weight / start.total * float(_chain_scores(start.m, rounds, [kappa])[0, 0])


@dataclass(frozen=True)
class OptimizationResult:
    kappa: float
    value: float
    evaluations: int


def _search(values: Callable[[np.ndarray], np.ndarray], branches: int, tol: float):
    """Best strength of each of ``branches`` objectives, searched in lockstep.

    ``values(kappas)`` returns the (K, branches) matrix of every objective at
    every strength.  A coarse scan in steps of 0.01 is one call; then each
    branch refines its best bracket by golden section until the bracket is
    narrower than ``tol``, and each step scores the new probe of every
    branch still refining in one call.  The reported value is the best
    objective sample seen, so it can never fall below the best grid point.
    """
    grid = np.arange(101) / 100.0
    scan = values(grid)
    idx = scan.argmax(axis=0)  # first maximum, as a strict > scan keeps it
    every = np.arange(branches)
    best_k = grid[idx]
    best_v = scan[idx, every]
    evaluations = np.full(branches, grid.size)

    lo = np.maximum(0.0, best_k - 0.01)
    hi = np.minimum(1.0, best_k + 0.01)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    probes = values(np.concatenate([x1, x2]))
    f1 = probes[every, every]
    f2 = probes[branches + every, every]
    evaluations += 2
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        left = f1[active] >= f2[active]  # keep [lo, x2], else [x1, hi]
        down, up = active[left], active[~left]
        hi[down], x2[down], f2[down] = x2[down], x1[down], f1[down]
        x1[down] = hi[down] - _INV_PHI * (hi[down] - lo[down])
        lo[up], x1[up], f1[up] = x1[up], x2[up], f2[up]
        x2[up] = lo[up] + _INV_PHI * (hi[up] - lo[up])
        probe = np.where(left, x1[active], x2[active])
        f = values(probe)[np.arange(active.size), active]
        f1[down] = f[left]
        f2[up] = f[~left]
        better = f > best_v[active]
        best_k[active[better]] = probe[better]
        best_v[active[better]] = f[better]
        evaluations[active] += 1
        active = active[hi[active] - lo[active] > tol]
    return tuple(
        OptimizationResult(float(k), float(v), int(e))
        for k, v, e in zip(best_k, best_v, evaluations)
    )


def optimize_kappa(
    start: BranchState, rounds: int, tol: float = DEFAULT_TOL
) -> OptimizationResult:
    """Best shared measurement strength for a branch.

    Coarse scan in steps of 0.01, then golden-section refinement of the best
    bracket until its width drops below ``tol`` (the one-branch case of the
    search behind ``branch_optima``).
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if rounds < 1:
        raise ValueError(f"round count must be at least 1, got {rounds}")
    if start.total <= 0.0:
        raise ValueError("initial branch has no weight")
    if start.m <= 2:
        def values(kappas):
            return np.full((len(kappas), 1), branch_concurrence(start))
    else:
        share = start.w_weight / start.total

        def values(kappas):
            return share * _chain_scores(start.m, rounds, kappas)[:, :1]

    return _search(values, 1, tol)[0]


@lru_cache(maxsize=None)
def branch_optima(
    n_parties: int, rounds: int, tol: float = DEFAULT_TOL
) -> tuple[OptimizationResult, ...]:
    """Optimized value and strength for every survivor branch of a W resource.

    Indexed by the loss count; these do not depend on the loss probability.
    All branches share each stacked evaluation of the search.
    """
    if not 3 <= n_parties <= 12:
        raise ValueError(f"party count must be in [3, 12], got {n_parties}")
    if rounds < 1:
        raise ValueError(f"round count must be at least 1, got {rounds}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return _search(_branch_scorer(n_parties, rounds), n_parties - 1, tol)


def _loss_average(
    n_parties: int, eps: float | np.ndarray, values: Sequence[float]
) -> float | np.ndarray:
    """Per-loss values weighted by the loss-count distribution at ``eps``.

    ``eps`` is one loss probability (the result is a float) or a 1-D array
    of them (the result is an array); the terms are added in loss order.
    """
    weights = lossy._loss_row(n_parties, eps)
    total = weights[..., 0] * values[0]
    for lost in range(1, n_parties - 1):
        total = total + weights[..., lost] * values[lost]
    return total if np.ndim(eps) else float(total)


def fom_lower_bound(n_parties: int, rounds: int, eps: float | np.ndarray) -> float | np.ndarray:
    """Loss-averaged, strength-optimized expected pair concurrence of a W resource.

    ``eps`` is one loss probability or a 1-D array of them.
    """
    optima = branch_optima(n_parties, rounds)
    return _loss_average(n_parties, eps, [res.value for res in optima])


@lru_cache(maxsize=256)
def _fixed_kappa_values(n_parties: int, rounds: int, kappa: float) -> tuple[float, ...]:
    """Per-loss values at one fixed strength (independent of the loss probability)."""
    _check_kappa(kappa)
    if rounds < 1:
        raise ValueError(f"round count must be at least 1, got {rounds}")
    return tuple(_branch_scorer(n_parties, rounds)([kappa])[0].tolist())


def fom_fixed_kappa(
    n_parties: int, rounds: int, eps: float | np.ndarray, kappa: float
) -> float | np.ndarray:
    """Same loss average with one fixed measurement strength (no optimization)."""
    if not 3 <= n_parties <= 12:
        raise ValueError(f"party count must be in [3, 12], got {n_parties}")
    return _loss_average(n_parties, eps, _fixed_kappa_values(n_parties, rounds, kappa))


@dataclass(frozen=True)
class Curve:
    """Sampled function of the loss probability on an ascending grid."""

    grid: np.ndarray
    values: np.ndarray
    resource: str
    n: int
    rounds: int | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two points")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have the same length")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise ValueError("grid must lie inside [0, 1]")
        if np.any(values < -1e-9) or np.any(values > 1.0 + 1e-9):
            raise ValueError("curve values must lie in [0, 1]")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", np.clip(values, 0.0, 1.0))

    def to_tsv(self) -> str:
        """Two tab-separated columns, one grid point per line."""
        return "".join(
            f"{format(e, '.12g')}\t{format(v, '.12g')}\n"
            for e, v in zip(self.grid, self.values)
        )


def default_grid(
    points: int = DEFAULT_GRID_POINTS, start: float = 0.0, stop: float = 1.0
) -> np.ndarray:
    if points < 2:
        raise ValueError(f"grid needs at least 2 points, got {points}")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid takes at most {MAX_GRID_POINTS} points, got {points}")
    if not 0.0 <= start < stop <= 1.0:
        raise ValueError(f"grid range must satisfy 0 <= start < stop <= 1, got [{start}, {stop}]")
    return np.linspace(start, stop, points)


def build_curve(
    resource: str,
    n_parties: int,
    rounds: int,
    grid: Sequence[float] | np.ndarray,
    mode: str = "robust",
) -> Curve:
    """Evaluate one resource's expected-entanglement curve on a grid."""
    kind = resource.lower()
    grid = np.asarray(grid, dtype=float)
    if kind == "w":
        return Curve(grid, fom_lower_bound(n_parties, rounds, grid), "w", n_parties, rounds)
    if kind == "ghz":
        values = [lossy.ghz_benchmark(n_parties, e) for e in grid]
        return Curve(grid, np.array(values), "ghz", n_parties, None)
    if kind == "twocentered":
        values = [lossy.two_centered_benchmark(n_parties, e, mode) for e in grid]
        return Curve(grid, np.array(values), f"twocentered-{mode}", n_parties, None)
    raise ValueError(f"resource must be one of {RESOURCES}, got {resource!r}")


def threshold(curve_a: Curve, curve_b: Curve) -> float | None:
    """Smallest loss probability where curve a overtakes curve b.

    Expects a to start below b; returns the root of the linear interpolant
    of a - b on the first sign-changing segment.  Returns None when the
    curves never cross in (0, 1).
    """
    if curve_a.grid.shape != curve_b.grid.shape or not np.allclose(
        curve_a.grid, curve_b.grid, rtol=0.0, atol=1e-12
    ):
        raise ValueError("threshold needs two curves on the same grid")
    diff = curve_a.values - curve_b.values
    positive = np.flatnonzero(diff > 0.0)
    if positive.size == 0:
        return None
    j = int(positive[0])
    if j == 0:
        # a already above b at the left edge: no advantage onset to report.
        return None
    glo, ghi = float(curve_a.grid[j - 1]), float(curve_a.grid[j])
    dlo, dhi = float(diff[j - 1]), float(diff[j])
    # dhi > 0 >= dlo, so the chord's root lies in [glo, ghi).
    return glo + dlo * (ghi - glo) / (dlo - dhi)


def derivative_at_zero(f: Callable[[float], float], h: float = 1e-4) -> float:
    """Slope at the left boundary via the second-order one-sided stencil."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    return (-3.0 * f(0.0) + 4.0 * f(h) - f(2.0 * h)) / (2.0 * h)


def advantage_ratio(n_parties: int, rounds: int = 1) -> float:
    """Initial-slope ratio of the W curve to the GHZ benchmark.

    Both slopes at zero loss reduce to first-order loss terms, so the ratio
    collapses to the value gap between the lossless branch and the
    one-loss branch.
    """
    if n_parties < 4:
        raise ValueError(f"party count must be at least 4, got {n_parties}")
    optima = branch_optima(n_parties, rounds)
    return optima[0].value - optima[1].value
