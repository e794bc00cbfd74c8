"""Sampling kernel of the Monte Carlo oracle, vectorized with numpy.

Every draw comes from a counter-based SplitMix64 stream and is a pure
function of ``(seed, sample, draw)``, so a lane of samples can run side by
side without changing any draw.  Class weights are rows of the binomial
table ``locc._binomial_rows``, laid out per ``(lost, m)``; each round walks
the outcome classes from ``j = m`` down through a sequential cumulative sum;
and a block adds its sample values in index order.  The kernel therefore
returns the same bits as the one-sample-at-a-time reference in
``tests/scalar_sampler.py``, which reads the same table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .locc import _binomial_row, _binomial_rows

BACKEND_NAME = "python"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / 9007199254740992.0

# Samples vectorized at once; bounds the kernel's scratch memory per block.
_LANES = 4096


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 lanes (arithmetic wraps modulo 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _u01(sub: np.ndarray, t: int) -> np.ndarray:
    """Draw ``t`` of each lane's substream as a double in [0, 1)."""
    x = _mix(sub + np.uint64((t + 1) * _GOLDEN & _MASK))
    return (x >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _substreams(seed: int, start: int, count: int) -> np.ndarray:
    """Substream seeds of samples ``start .. start + count - 1``."""
    first = np.uint64((seed + (start + 1) * _GOLDEN) & _MASK)
    return _mix(first + np.arange(count, dtype=np.uint64) * np.uint64(_GOLDEN))


def _chunks(start: int, count: int):
    for offset in range(0, count, _LANES):
        yield start + offset, min(_LANES, count - offset)


def _class_rows(n_parties: int, kappas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """W and vacuum class weights, one row per ``lost * (n + 1) + m``.

    Column ``c`` holds class ``j = n - c``, so a row runs from ``j = n`` down
    to ``j = 0``; classes above ``m`` stay zero and add nothing to a prefix sum.
    One Pascal pass over the strengths of every loss count yields row ``k``
    of each loss count's table: it is the W row of ``m = k + 1`` and the
    vacuum row of ``m = k``, read reversed, for every loss count that leaves
    ``m`` live parties or more.
    """
    size = n_parties + 1
    w_rows = np.zeros((n_parties - 1, size, size))
    vac_rows = np.zeros_like(w_rows)
    for k, row in enumerate(_binomial_rows(n_parties, np.asarray(kappas, dtype=float))):
        rev = row[:, ::-1]
        m = k + 1  # W row: classes j = m..1
        if 3 <= m <= n_parties:
            w_rows[: n_parties - m + 1, m, n_parties - m : n_parties] = rev[: n_parties - m + 1]
        m = k  # vacuum row: classes j = m..0
        if m >= 3:
            vac_rows[: n_parties - m + 1, m, n_parties - m :] = rev[: n_parties - m + 1]
    return w_rows.reshape(-1, size), vac_rows.reshape(-1, size)


def _sample_values(
    sub: np.ndarray,
    n_parties: int,
    rounds: int,
    eps: float,
    w_rows: np.ndarray,
    vac_rows: np.ndarray,
) -> np.ndarray:
    """Terminal best-pair concurrence of each lane's sample."""
    lost = np.zeros(sub.size, dtype=np.int64)
    for t in range(n_parties - 2):
        lost += _u01(sub, t) < eps
    m = n_parties - lost
    w_w = m / n_parties
    w_vac = lost / n_parties
    size = n_parties + 1
    pair_cols = np.arange(size) <= n_parties - 2  # classes j >= 2 keep a W part
    live = np.flatnonzero(m > 2)
    for t in range(n_parties - 2, n_parties - 2 + rounds):
        if live.size == 0:
            break
        ww = w_w[live]
        wv = w_vac[live]
        rows = lost[live] * size + m[live]
        w_part = ww[:, None] * w_rows[rows]
        vac_part = wv[:, None] * vac_rows[rows]
        child_w = np.where(pair_cols, w_part, 0.0)
        child_vac = np.where(pair_cols, vac_part, vac_part + w_part)
        target = _u01(sub[live], t) * (ww + wv)
        hit = target[:, None] < np.cumsum(child_w + child_vac, axis=1)
        # Rounding dust can push the target past the total: all-drop class.
        hit[:, -1] = True
        col = hit.argmax(axis=1)
        lane = np.arange(live.size)
        sel_w = child_w[lane, col]
        sel_vac = child_vac[lane, col]
        total = sel_w + sel_vac
        alive = total > 0.0
        m[live] = n_parties - col
        w_w[live] = np.divide(sel_w, total, out=np.zeros_like(total), where=alive)
        w_vac[live] = np.divide(sel_vac, total, out=np.zeros_like(total), where=alive)
        live = live[alive & (m[live] > 2)]
    total = w_w + w_vac
    scored = (m >= 2) & (total > 0.0)
    values = np.zeros(sub.size)
    values[scored] = 2.0 / m[scored] * w_w[scored] / total[scored]
    return values


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
    w_rows, vac_rows = _class_rows(n_parties, kappas)
    acc = 0.0
    acc_sq = 0.0
    for first, lanes in _chunks(start, count):
        values = _sample_values(
            _substreams(seed, first, lanes), n_parties, rounds, eps, w_rows, vac_rows
        )
        # In sample order: np.sum adds pairwise and would change the bits.
        for value in values.tolist():
            acc += value
            acc_sq += value * value
    return acc, acc_sq


def class_counts(seed: int, start: int, count: int, m: int, kappa: float) -> list[int]:
    """Single-round keep-count tallies for a pure W start, indexed 0..m."""
    # Running bounds of the W classes j = m..1 (np.cumsum adds in order).
    bounds = np.cumsum(_binomial_row(m - 1, kappa)[::-1])
    counts = np.zeros(m + 1, dtype=np.int64)
    for first, lanes in _chunks(start, count):
        u = _u01(_substreams(seed, first, lanes), 0)
        # First class whose running bound exceeds u; past the last, class 1.
        passed = np.searchsorted(bounds, u, side="right")
        counts += np.bincount(m - np.minimum(passed, m - 1), minlength=m + 1)
    return counts.tolist()
