"""Reference values for the benchmark's output checks.

Written from the paper's formulas, apart from the program: nothing here
imports redsim.  The W branch recursion runs on arrays of live-count weights,
vectorized over many measurement strengths at once, so the strength optimum
comes from a dense scan plus zoomed refinement rather than from the program's
grid-and-golden-section search.  GHZ curves are closed forms, two-centered
curves come from exhaustive enumeration of leaf-loss patterns, and threshold
crossings are roots of the exact curve difference.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SCAN_POINTS = 2001
REFINE_POINTS = 101
REFINE_PASSES = 3


def w_class_weights(m: int, kappas: np.ndarray) -> np.ndarray:
    """Keep-count distribution of an m-party W component, shape (K, m + 1).

    C(m, j) (j/m) k^(m-j) (1-k)^(j-1): the excitation must sit on one of the
    j kept parties.
    """
    k = np.asarray(kappas, dtype=float)[:, None]
    j = np.arange(m + 1)
    binom = np.array([math.comb(m, i) for i in j], dtype=float)
    return binom * (j / m) * k ** (m - j) * (1.0 - k) ** np.maximum(j - 1, 0)


def vac_class_weights(m: int, kappas: np.ndarray) -> np.ndarray:
    """Keep-count distribution of the separable component: plain binomial."""
    k = np.asarray(kappas, dtype=float)[:, None]
    j = np.arange(m + 1)
    binom = np.array([math.comb(m, i) for i in j], dtype=float)
    return binom * k ** (m - j) * (1.0 - k) ** j


def branch_values(n: int, lost: int, kappas, rounds: int) -> np.ndarray:
    """Expected best-pair concurrence of the survivor branch, one per strength.

    State: W weight w[m] and separable weight v[m] per live count m.  Counts
    m <= 2 are absorbing; a round sends w[m] to w[j] for j >= 2 (to v[1] when
    the excitation is stranded on one party) and v[m] to v[j].  The score of
    a terminal branch is its W-pair fraction, 2/m of its W weight.
    """
    kappas = np.atleast_1d(np.asarray(kappas, dtype=float))
    size = len(kappas)
    w = np.zeros((size, n + 1))
    v = np.zeros((size, n + 1))
    m0 = n - lost
    w[:, m0] = m0 / n
    v[:, m0] = lost / n
    tables = {m: (w_class_weights(m, kappas), vac_class_weights(m, kappas)) for m in range(3, m0 + 1)}
    for _ in range(rounds):
        nw = np.zeros_like(w)
        nv = np.zeros_like(v)
        nw[:, :3] = w[:, :3]
        nv[:, :3] = v[:, :3]
        for m in range(3, m0 + 1):
            wc, vc = tables[m]
            nw[:, 2 : m + 1] += w[:, m : m + 1] * wc[:, 2:]
            nv[:, 1] += w[:, m] * wc[:, 1]
            nv[:, : m + 1] += v[:, m : m + 1] * vc
        w, v = nw, nv
    scores = np.zeros(n + 1)
    scores[2:] = 2.0 / np.arange(2, n + 1)
    return w @ scores


@lru_cache(maxsize=None)
def scan(n: int, lost: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Branch value on an evenly spaced strength grid over [0, 1]."""
    grid = np.linspace(0.0, 1.0, SCAN_POINTS)
    return grid, branch_values(n, lost, grid, rounds)


@lru_cache(maxsize=None)
def optimum(n: int, lost: int, rounds: int) -> tuple[float, float]:
    """(kappa*, value) of one survivor branch: dense scan, then zoom in."""
    grid, values = scan(n, lost, rounds)
    i = int(np.argmax(values))
    best_k, best_v = float(grid[i]), float(values[i])
    half = grid[1] - grid[0]
    for _ in range(REFINE_PASSES):
        local = np.linspace(max(0.0, best_k - half), min(1.0, best_k + half), REFINE_POINTS)
        vals = branch_values(n, lost, local, rounds)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_k, best_v = float(local[i]), float(vals[i])
        half = local[1] - local[0]
    return best_k, best_v


def loss_weights(n: int, eps) -> np.ndarray:
    """Probability of each lost-helper count, shape (len(eps), n - 1)."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))[:, None]
    helpers = n - 2
    k = np.arange(helpers + 1)
    binom = np.array([math.comb(helpers, i) for i in k], dtype=float)
    return binom * eps**k * (1.0 - eps) ** (helpers - k)


def w_curve(n: int, rounds: int, eps) -> np.ndarray:
    """Loss-averaged, strength-optimized W curve."""
    values = np.array([optimum(n, lost, rounds)[1] for lost in range(n - 1)])
    return loss_weights(n, eps) @ values


def w_fixed_curve(n: int, rounds: int, kappa: float, eps) -> np.ndarray:
    """Loss-averaged W curve at one fixed measurement strength."""
    values = np.array([branch_values(n, lost, [kappa], rounds)[0] for lost in range(n - 1)])
    return loss_weights(n, eps) @ values


def ghz_curve(n: int, eps) -> np.ndarray:
    return (1.0 - np.atleast_1d(np.asarray(eps, dtype=float))) ** (n - 2)


@lru_cache(maxsize=None)
def _two_centered_counts(n: int, mode: str) -> tuple[int, ...]:
    """Recoverable leaf-loss patterns per lost-leaf count, by enumeration.

    The first ceil((n-2)/2) leaves hang off one root, the rest off the
    other; a pattern is recoverable in robust mode when every lost leaf hangs
    off the same root, and in strict mode only when nothing is lost.
    """
    leaves = n - 2
    side = (leaves + 1) // 2
    low = (1 << side) - 1
    counts = [0] * (leaves + 1)
    for mask in range(1 << leaves):
        if mode == "robust":
            ok = mask & low == 0 or mask >> side == 0
        else:
            ok = mask == 0
        if ok:
            counts[bin(mask).count("1")] += 1
    return tuple(counts)


def two_centered_curve(n: int, eps, mode: str = "robust") -> np.ndarray:
    eps = np.atleast_1d(np.asarray(eps, dtype=float))[:, None]
    leaves = n - 2
    k = np.arange(leaves + 1)
    counts = np.array(_two_centered_counts(n, mode), dtype=float)
    return (counts * eps**k * (1.0 - eps) ** (leaves - k)).sum(axis=1)


def curve(resource: str, n: int, rounds: int, eps, mode: str = "robust") -> np.ndarray:
    if resource == "w":
        return w_curve(n, rounds, eps)
    if resource == "ghz":
        return ghz_curve(n, eps)
    if resource == "twocentered":
        return two_centered_curve(n, eps, mode)
    raise ValueError(f"unknown resource {resource!r}")


def crossing(diff, lo: float, hi: float, points: int = 4001) -> float | None:
    """First root in (lo, hi) where ``diff`` turns from <= 0 to > 0."""
    xs = np.linspace(lo, hi, points)
    ds = diff(xs)
    above = np.flatnonzero(ds > 0.0)
    if above.size == 0 or above[0] == 0:
        return None
    a, b = float(xs[above[0] - 1]), float(xs[above[0]])
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if diff(np.array([mid]))[0] > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def interpolation_bound(diff, g0: float, g1: float) -> float:
    """Bound on the gap between the root of the chord of ``diff`` over
    [g0, g1] and the root of ``diff`` itself: (h^2 / 8) max|d''| / min|d'|.

    The derivatives are sampled by finite differences on the segment, with
    a 25% margin on the result.
    """
    xs = np.linspace(g0, g1, 65)
    step1, step2 = 1e-6, 1e-4
    d1 = (diff(xs + step1) - diff(xs - step1)) / (2 * step1)
    d2 = (diff(xs + step2) - 2 * diff(xs) + diff(xs - step2)) / step2**2
    h = g1 - g0
    return 1.25 * h * h / 8.0 * float(np.max(np.abs(d2))) / float(np.min(np.abs(d1)))


def markov_matrix(n: int, kappa: float) -> np.ndarray:
    """Lossless per-round chain over W_n .. W_3, Bell, sep."""
    size = n - 2 + 2
    bell, sep = n - 2, n - 1
    matrix = np.zeros((size, size))
    for row, m in enumerate(range(n, 2, -1)):
        weights = w_class_weights(m, [kappa])[0]
        for j in range(1, m + 1):
            col = n - j if j >= 3 else (bell if j == 2 else sep)
            matrix[row, col] += weights[j]
    matrix[bell, bell] = 1.0
    matrix[sep, sep] = 1.0
    return matrix


def markov_row(n: int, kappa: float, steps: int) -> np.ndarray:
    """Distribution of the W_n start after ``steps`` rounds."""
    matrix = markov_matrix(n, kappa)
    row = np.zeros(len(matrix))
    row[0] = 1.0
    for _ in range(steps):
        row = row @ matrix
    return row
