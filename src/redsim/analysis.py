"""Entanglement accounting and optimization on top of the branch engine.

The headline quantity is the loss-averaged, strength-optimized expected pair
concurrence of a W resource, evaluated pointwise over a loss-probability
grid and compared against the closed-form GHZ-like benchmarks.  Branches
are scored on the lossless chain of ``locc.build_transition_matrix``.
Per-loss optima and fixed-strength values do not depend on the loss
probability, so they are computed once and cached across a whole curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import lossy
from .locc import BranchState, _check_kappa, build_transition_matrix

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


def avg_entanglement(start: BranchState, kappa: float, rounds: int) -> float:
    """Expected best-pair concurrence after measuring for ``rounds`` rounds.

    A terminal branch scores 2/j per unit of W weight on W_j (1 on Bell, 0
    on sep), and the W weight moves on the lossless chain P on its own, so
    the score is (w / total) * e_{W_m}^T P^rounds s.  Pairs do not measure.
    """
    if rounds < 1:
        raise ValueError(f"round count must be at least 1, got {rounds}")
    _check_kappa(kappa)
    if start.total <= 0.0:
        raise ValueError("initial branch has no weight")
    if start.m <= 2:
        return branch_concurrence(start)
    chain = build_transition_matrix(start.m, kappa).matrix
    score = np.append(2.0 / np.arange(start.m, 1, -1), 0.0)
    for _ in range(rounds):
        score = chain @ score
    return start.w_weight / start.total * float(score[0])


@dataclass(frozen=True)
class OptimizationResult:
    kappa: float
    value: float
    evaluations: int


def optimize_kappa(
    start: BranchState, rounds: int, tol: float = DEFAULT_TOL
) -> OptimizationResult:
    """Best shared measurement strength for a branch.

    Coarse scan in steps of 0.01, then golden-section refinement of the best
    bracket until its width drops below ``tol``.  The reported value is the
    best objective sample seen anywhere, so it can never fall below the best
    grid point.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    evaluations = 0

    def objective(kappa: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return avg_entanglement(start, kappa, rounds)

    best_k = 0.0
    best_v = -1.0
    for i in range(101):
        k = i / 100.0
        v = objective(k)
        if v > best_v:
            best_k, best_v = k, v

    lo = max(0.0, best_k - 0.01)
    hi = min(1.0, best_k + 0.01)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = objective(x1)
    f2 = objective(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = objective(x1)
            if f1 > best_v:
                best_k, best_v = x1, f1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = objective(x2)
            if f2 > best_v:
                best_k, best_v = x2, f2
    return OptimizationResult(best_k, best_v, evaluations)


@lru_cache(maxsize=None)
def branch_optima(
    n_parties: int, rounds: int, tol: float = DEFAULT_TOL
) -> tuple[OptimizationResult, ...]:
    """Optimized value and strength for every survivor branch of a W resource.

    Indexed by the loss count; these do not depend on the loss probability.
    """
    if not 3 <= n_parties <= 12:
        raise ValueError(f"party count must be in [3, 12], got {n_parties}")
    if rounds < 1:
        raise ValueError(f"round count must be at least 1, got {rounds}")
    return tuple(
        optimize_kappa(lossy.w_branch(n_parties, lost), rounds, tol)
        for lost in range(n_parties - 1)
    )


def _loss_average(n_parties: int, eps: float, values: Sequence[float]) -> float:
    """Per-loss values weighted by the loss-count distribution at ``eps``."""
    weights = lossy._loss_row(n_parties, eps)
    return sum(weights[lost] * values[lost] for lost in range(n_parties - 1))


def fom_lower_bound(n_parties: int, rounds: int, eps: float) -> float:
    """Loss-averaged, strength-optimized expected pair concurrence of a W resource."""
    optima = branch_optima(n_parties, rounds)
    return _loss_average(n_parties, eps, [res.value for res in optima])


@lru_cache(maxsize=256)
def _fixed_kappa_values(n_parties: int, rounds: int, kappa: float) -> tuple[float, ...]:
    """Per-loss values at one fixed strength (independent of the loss probability)."""
    return tuple(
        avg_entanglement(lossy.w_branch(n_parties, lost), kappa, rounds)
        for lost in range(n_parties - 1)
    )


def fom_fixed_kappa(n_parties: int, rounds: int, eps: float, kappa: float) -> float:
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
        values = [fom_lower_bound(n_parties, rounds, e) for e in grid]
        return Curve(grid, np.array(values), "w", n_parties, rounds)
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
