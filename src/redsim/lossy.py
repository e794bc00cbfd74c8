"""Distribution phase over lossy links: loss weights, received ensembles,
and closed-form benchmarks for the GHZ-like resources.

Only the helper links are lossy; the two target parties always receive
their qubits.  Losses are independent with the same erasure probability on
every link, so the loss count is binomial: its weights are one row of the
table ``locc._binomial_rows`` at strength ``eps``, built by
``locc._binomial_row`` in O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .locc import BranchState, _binomial_row
from .qcore import DensityOperator, partial_trace
from .resources import Graph, TwoCenteredLayout, graph_state, w_sigma

__all__ = [
    "LossEntry",
    "LossEnsemble",
    "LossPattern",
    "loss_weight",
    "w_loss_ensemble",
    "w_branch",
    "ghz_benchmark",
    "two_centered_leaf_split",
    "two_centered_benchmark",
    "enumerate_loss_patterns",
    "post_loss_state",
]

BENCHMARK_MODES = ("robust", "strict")


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"loss probability must be in [0, 1], got {eps}")


def _loss_row(n_parties: int, eps: float | np.ndarray) -> np.ndarray:
    """Loss-count weights along the last axis, indexed by ``lost``, for one
    loss probability or a 1-D array of them: with h = n - 2 helpers, entry
    ``lost`` is row h of the binomial table at i = h - lost, that is
    C(h, lost) eps^lost (1-eps)^(h-lost)."""
    eps = np.asarray(eps, dtype=float)
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError(f"loss probability must be in [0, 1], got {eps}")
    return _binomial_row(n_parties - 2, eps)[..., ::-1]


def loss_weight(n_parties: int, lost: int, eps: float) -> float:
    """Probability that exactly ``lost`` of the helper qubits are erased."""
    if n_parties < 2:
        raise ValueError(f"party count must be at least 2, got {n_parties}")
    if not 0 <= lost <= n_parties - 2:
        raise ValueError(f"lost count must be in [0, {n_parties - 2}], got {lost}")
    return float(_loss_row(n_parties, eps)[lost])


@dataclass(frozen=True)
class LossEntry:
    lost: int
    weight: float
    state: Union[DensityOperator, BranchState]


@dataclass(frozen=True)
class LossEnsemble:
    """Received-state ensemble: one entry per possible loss count."""

    entries: tuple[LossEntry, ...]

    def weights(self) -> list[float]:
        return [e.weight for e in self.entries]


def w_loss_ensemble(n_parties: int, eps: float) -> LossEnsemble:
    """Ensemble of survivor states of a distributed W state."""
    if not 3 <= n_parties <= 12:
        raise ValueError(f"party count must be in [3, 12], got {n_parties}")
    _check_eps(eps)
    entries = tuple(
        LossEntry(i, loss_weight(n_parties, i, eps), w_sigma(n_parties, i))
        for i in range(n_parties - 1)
    )
    return LossEnsemble(entries)


def w_branch(n_parties: int, lost: int) -> BranchState:
    """Compact branch form of the survivor state of a W resource."""
    if not 0 <= lost <= n_parties - 2:
        raise ValueError(f"lost count must be in [0, {n_parties - 2}], got {lost}")
    m = n_parties - lost
    return BranchState(m, m / n_parties, lost / n_parties)


def ghz_benchmark(n_parties: int, eps: float) -> float:
    """Expected pair entanglement from a GHZ resource: any loss destroys it,
    otherwise one round converts it to a unit-concurrence pair."""
    if n_parties < 3:
        raise ValueError(f"party count must be at least 3, got {n_parties}")
    _check_eps(eps)
    return (1.0 - eps) ** (n_parties - 2)


def two_centered_leaf_split(n_parties: int) -> tuple[int, int]:
    """Leaf-set sizes of the two roots (larger side first)."""
    if n_parties < 4:
        raise ValueError(f"two-centered layout needs at least 4 parties, got {n_parties}")
    leaves = n_parties - 2
    return (leaves + 1) // 2, leaves // 2


def two_centered_benchmark(n_parties: int, eps: float, mode: str = "robust") -> float:
    """Expected pair entanglement from a two-centered graph resource.

    robust: the survivors still carry a deterministically convertible state
    whenever every lost leaf hangs off the same root, so the value is the
    probability of that event.  strict: any loss counts as total failure,
    which collapses to the GHZ formula.  The roots sit with the target
    parties and are never lost.
    """
    if mode not in BENCHMARK_MODES:
        raise ValueError(f"mode must be one of {BENCHMARK_MODES}, got {mode!r}")
    if n_parties < 4:
        raise ValueError(f"two-centered layout needs at least 4 parties, got {n_parties}")
    _check_eps(eps)
    leaves = n_parties - 2
    if mode == "strict":
        return (1.0 - eps) ** leaves
    side_a, side_b = two_centered_leaf_split(n_parties)
    keep = 1.0 - eps
    return keep**side_a + keep**side_b - keep**leaves


@dataclass(frozen=True)
class LossPattern:
    lost: tuple[int, ...]
    probability: float
    recoverable: bool


def enumerate_loss_patterns(layout: TwoCenteredLayout, eps: float) -> list[LossPattern]:
    """All leaf-loss subsets with their i.i.d. probabilities.

    A pattern is recoverable exactly when the lost set is contained in one
    root's leaf set; the recoverable probabilities add up to the robust
    benchmark.
    """
    _check_eps(eps)
    leaves = layout.leaves_a + layout.leaves_b
    set_a, set_b = set(layout.leaves_a), set(layout.leaves_b)
    n_leaves = len(leaves)
    out = []
    for mask in range(1 << n_leaves):
        lost = tuple(leaves[k] for k in range(n_leaves) if mask >> k & 1)
        k = len(lost)
        probability = eps**k * (1.0 - eps) ** (n_leaves - k)
        lost_set = set(lost)
        recoverable = lost_set <= set_a or lost_set <= set_b
        out.append(LossPattern(lost, probability, recoverable))
    return out


def post_loss_state(g: Graph, lost: set[int]) -> DensityOperator:
    """Exact survivor state of a graph resource after losing some vertices.

    Exploration helper: the benchmark curves come from the closed forms
    above, not from this density-operator route.
    """
    keep = [v for v in range(g.n) if v not in set(lost)]
    if not keep:
        raise ValueError("cannot lose every vertex")
    return partial_trace(graph_state(g).density(), keep)
