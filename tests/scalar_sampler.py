"""Scalar reference for the sampling kernel, one sample at a time.

The vectorized ``redsim._sampler_py`` must match it bit for bit: same
counter-based SplitMix64 generator, same class weights (entries of the one
binomial table ``redsim.locc._binomial_rows``, built once per call), same
walk over the classes and same accumulation order.
"""

from __future__ import annotations

from typing import Sequence

from redsim.locc import _binomial_row, _binomial_rows

BACKEND_NAME = "python"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / 9007199254740992.0


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _u01(seed: int, t: int) -> float:
    x = _mix((seed + (t + 1) * _GOLDEN) & _MASK)
    return (x >> 11) * _INV_2_53


def _sample_value(
    sub: int, n_parties: int, rounds: int, eps: float, tables: Sequence[list[list[float]]]
) -> float:
    t = 0
    lost = 0
    for _ in range(n_parties - 2):
        if _u01(sub, t) < eps:
            lost += 1
        t += 1
    m = n_parties - lost
    w_w = m / n_parties
    w_vac = lost / n_parties
    rows = tables[lost]
    for _ in range(rounds):
        if m <= 2:
            break
        u = _u01(sub, t)
        t += 1
        target = u * (w_w + w_vac)
        acc = 0.0
        sel = -1
        sel_w = 0.0
        sel_vac = 0.0
        for j in range(m, -1, -1):
            w_part = w_w * rows[m - 1][j - 1] if j >= 1 else 0.0
            vac_part = w_vac * rows[m][j]
            if j >= 2:
                child_w = w_part
                child_vac = vac_part
            else:
                child_w = 0.0
                child_vac = vac_part + w_part
            acc += child_w + child_vac
            if target < acc:
                sel = j
                sel_w = child_w
                sel_vac = child_vac
                break
        if sel < 0:
            # Rounding dust pushed the target past the total: all-drop class.
            sel = 0
            sel_w = 0.0
            sel_vac = w_vac * rows[m][0]
        m = sel
        total = sel_w + sel_vac
        if total <= 0.0:
            w_w = 0.0
            w_vac = 0.0
            break
        w_w = sel_w / total
        w_vac = sel_vac / total
    if m < 2:
        return 0.0
    total = w_w + w_vac
    if total <= 0.0:
        return 0.0
    return 2.0 / m * w_w / total


def mc_accumulate(
    seed: int,
    start: int,
    count: int,
    n_parties: int,
    rounds: int,
    eps: float,
    kappas: Sequence[float],
) -> tuple[float, float]:
    """Sum and sum of squares of the sample scores for one index block."""
    tables = [
        [row.tolist() for row in _binomial_rows(n_parties - lost, float(kappas[lost]))]
        for lost in range(n_parties - 1)
    ]
    acc = 0.0
    acc_sq = 0.0
    for k in range(count):
        sub = _mix((seed + (start + k + 1) * _GOLDEN) & _MASK)
        value = _sample_value(sub, n_parties, rounds, eps, tables)
        acc += value
        acc_sq += value * value
    return acc, acc_sq


def class_counts(seed: int, start: int, count: int, m: int, kappa: float) -> list[int]:
    """Single-round keep-count tallies for a pure W start, indexed 0..m."""
    counts = [0] * (m + 1)
    row = _binomial_row(m - 1, kappa).tolist()
    for k in range(count):
        sub = _mix((seed + (start + k + 1) * _GOLDEN) & _MASK)
        u = _u01(sub, 0)
        acc = 0.0
        sel = 1
        for j in range(m, 0, -1):
            acc += row[j - 1]
            if u < acc:
                sel = j
                break
        counts[sel] += 1
    return counts
