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
depend on batching.  The one kernel, ``redsim._sampler_py``, runs lanes
of samples at once with numpy and matches the scalar reference in
``tests/scalar_sampler.py`` bit for bit.  Class weights, here and in the
kernel, are rows of the binomial table ``locc._binomial_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _sampler_py as _backend
from . import analysis
from .locc import _binomial_row

BACKEND = _backend.BACKEND_NAME

# Samples are accumulated in fixed blocks and the per-block partial sums are
# combined in block order; this partial-sum structure fixes the output bits.
BLOCK_SAMPLES = 1 << 15

_MAX_SEED = (1 << 64) - 1

__all__ = [
    "BACKEND",
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


def _blocks(samples: int):
    """Yield ``(start, count)`` of each block in index order."""
    for start in range(0, samples, BLOCK_SAMPLES):
        yield start, min(BLOCK_SAMPLES, samples - start)


def mc_estimate(cfg: McConfig) -> McEstimate:
    """Sample mean and standard error of the terminal best-pair concurrence."""
    table = _kappa_table(cfg)
    acc = 0.0
    acc_sq = 0.0
    for start, count in _blocks(cfg.samples):
        part, part_sq = _backend.mc_accumulate(
            cfg.seed, start, count, cfg.n_parties, cfg.rounds, cfg.eps, table
        )
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

    counts = [0] * (m + 1)
    for start, count in _blocks(samples):
        part = _backend.class_counts(seed, start, count, m, kappa)
        for j, c in enumerate(part):
            counts[j] += c
    weights = _binomial_row(m - 1, kappa).tolist()  # class j at index j - 1
    chi_square = 0.0
    for j in range(1, m + 1):
        expected = samples * weights[j - 1]
        if expected > 0.0:
            gap = counts[j] - expected
            chi_square += gap * gap / expected
    return ClassHistogram(m, kappa, samples, seed, tuple(counts), chi_square)
