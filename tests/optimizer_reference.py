"""Per-branch reference for the strength search, one branch and one strength at a time.

``redsim.analysis.branch_optima`` scores every loss branch at every strength
in stacked chain products and refines all branches in lockstep.  This is the
search it replaced, kept verbatim: a coarse scan in steps of 0.01, then
golden-section refinement of the best bracket, each sample one matrix-vector
chain product on the branch's own chain.  Its scores may differ from the
stacked ones in the last bits (a BLAS dot product adds in its own order), so
the tests compare values with a tolerance and strengths and evaluation
counts exactly.
"""

from __future__ import annotations

import math

import numpy as np

from redsim.analysis import OptimizationResult, branch_concurrence
from redsim.locc import BranchState, build_transition_matrix
from redsim.lossy import w_branch

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def avg_entanglement(start: BranchState, kappa: float, rounds: int) -> float:
    """(w / total) * e_{W_m}^T P^rounds s on the branch's own m-party chain."""
    if start.m <= 2:
        return branch_concurrence(start)
    chain = build_transition_matrix(start.m, kappa).matrix
    score = np.append(2.0 / np.arange(start.m, 1, -1), 0.0)
    for _ in range(rounds):
        score = chain @ score
    return start.w_weight / start.total * float(score[0])


def optimize_kappa(start: BranchState, rounds: int, tol: float = 1e-6) -> OptimizationResult:
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


def branch_optima(
    n_parties: int, rounds: int, tol: float = 1e-6
) -> tuple[OptimizationResult, ...]:
    return tuple(
        optimize_kappa(w_branch(n_parties, lost), rounds, tol) for lost in range(n_parties - 1)
    )
