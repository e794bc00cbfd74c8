"""Seeded Monte Carlo validation of the deterministic pipeline.

Each sample draws a loss count, walks the survivor branch through the
requested number of measurement rounds by sampling outcome classes from
their exact distribution, and scores the terminal best-pair concurrence.
The sample mean is an unbiased estimator of the deterministic loss average,
which makes this an independent statistical check of the analysis module.

Randomness comes from a counter-based SplitMix64 scheme: sample ``k`` of a
run with seed ``s`` uses the substream seed ``mix(s + (k+1) * G)`` and draw
``t`` inside a sample is ``mix(sub + (t+1) * G)``, with ``G`` the 64-bit
golden-gamma constant and ``mix`` the SplitMix64 finalizer.  Every draw is a
pure function of ``(seed, sample index, draw index)``, so results do not
depend on batching or thread count, and the kernels avoid transcendental
functions so that the compiled and pure-Python backends agree bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import analysis
from .locc import w_class_weight
from ._threads import thread_budget

PURE_ENV = "REDSIM_PURE_PYTHON"

if os.environ.get(PURE_ENV, "").strip() not in {"", "0"}:
    from . import _sampler_py as _backend
else:
    try:
        from . import _sampler_cy as _backend  # compiled hot path
    except ImportError:  # no extension built: fall back transparently
        from . import _sampler_py as _backend

BACKEND = _backend.BACKEND_NAME

# Samples are accumulated in fixed blocks and the per-block partial sums are
# combined in block order, so the result is independent of the thread count.
BLOCK_SAMPLES = 1 << 15

_MAX_SEED = (1 << 64) - 1

__all__ = [
    "BACKEND",
    "PURE_ENV",
    "McConfig",
    "McEstimate",
    "ClassHistogram",
    "mc_estimate",
    "deterministic_value",
    "mc_class_histogram",
]


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo run.

    ``kappa=None`` plays the per-loss optimal strengths (estimating the
    optimized loss average); a float plays that fixed strength everywhere.
    """

    n_parties: int
    rounds: int
    eps: float
    samples: int
    seed: int
    kappa: float | None = None

    def __post_init__(self):
        if not 3 <= self.n_parties <= 12:
            raise ValueError(f"party count must be in [3, 12], got {self.n_parties}")
        if self.rounds < 1:
            raise ValueError(f"round count must be at least 1, got {self.rounds}")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {self.eps}")
        if self.samples < 1:
            raise ValueError(f"sample count must be at least 1, got {self.samples}")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit value, got {self.seed}")
        if self.kappa is not None and not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"measurement strength must be in [0, 1], got {self.kappa}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    standard_error: float
    samples: int
    degenerate: bool = False


@dataclass(frozen=True)
class ClassHistogram:
    """Empirical single-round outcome classes against their exact weights."""

    m: int
    kappa: float
    samples: int
    seed: int
    counts: tuple[int, ...]
    chi_square: float

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.samples for c in self.counts)


def _kappa_table(cfg: McConfig) -> list[float]:
    if cfg.kappa is not None:
        return [float(cfg.kappa)] * (cfg.n_parties - 1)
    return [res.kappa for res in analysis.branch_optima(cfg.n_parties, cfg.rounds)]


def _blocks(samples: int) -> list[tuple[int, int]]:
    return [
        (start, min(BLOCK_SAMPLES, samples - start))
        for start in range(0, samples, BLOCK_SAMPLES)
    ]


def _map_blocks(worker, blocks):
    # Threads pay off only for the compiled kernel, which releases the GIL.
    budget = thread_budget()
    if BACKEND == "compiled" and budget > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=min(budget, len(blocks))) as pool:
            return list(pool.map(worker, blocks))
    return [worker(block) for block in blocks]


def mc_estimate(cfg: McConfig) -> McEstimate:
    """Sample mean and standard error of the terminal best-pair concurrence."""
    table = _kappa_table(cfg)

    def worker(block):
        start, count = block
        return _backend.mc_accumulate(
            cfg.seed, start, count, cfg.n_parties, cfg.rounds, cfg.eps, table
        )

    acc = 0.0
    acc_sq = 0.0
    for part, part_sq in _map_blocks(worker, _blocks(cfg.samples)):
        acc += part
        acc_sq += part_sq
    n = cfg.samples
    mean = acc / n
    if n == 1:
        return McEstimate(mean, 0.0, 1, degenerate=True)
    variance = (acc_sq - n * mean * mean) / (n - 1)
    if variance < 0.0:
        variance = 0.0
    return McEstimate(mean, math.sqrt(variance / n), n, degenerate=False)


def deterministic_value(cfg: McConfig) -> float:
    """The exact quantity the Monte Carlo run estimates."""
    if cfg.kappa is None:
        return analysis.fom_lower_bound(cfg.n_parties, cfg.rounds, cfg.eps)
    return analysis.fom_fixed_kappa(cfg.n_parties, cfg.rounds, cfg.eps, cfg.kappa)


def mc_class_histogram(m: int, kappa: float, samples: int, seed: int) -> ClassHistogram:
    """Single-round class frequencies from a pure W start, with a chi-square
    statistic against the exact class weights."""
    if not 1 <= m <= 12:
        raise ValueError(f"live count must be in [1, 12], got {m}")
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"measurement strength must be in [0, 1], got {kappa}")
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit value, got {seed}")

    def worker(block):
        start, count = block
        return _backend.class_counts(seed, start, count, m, kappa)

    counts = [0] * (m + 1)
    for part in _map_blocks(worker, _blocks(samples)):
        for j, c in enumerate(part):
            counts[j] += c
    chi_square = 0.0
    for j in range(1, m + 1):
        expected = samples * w_class_weight(m, j, kappa)
        if expected > 0.0:
            gap = counts[j] - expected
            chi_square += gap * gap / expected
    return ClassHistogram(m, kappa, samples, seed, tuple(counts), chi_square)
