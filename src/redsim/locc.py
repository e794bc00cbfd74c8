"""Single-parameter measurement engine.

One round of the protocol has every live party apply the same two-outcome
weak measurement.  Outcome 0 keeps a party in the game, outcome 1 drops it
(its qubit collapses to |0>).  Because the shared states are permutation
symmetric, a whole round is summarized by the count ``j`` of keep-outcomes,
and a measurement branch by three numbers: the live-party count plus the
unnormalized weights of its entangled (W) and separable components.  All
class weights come from one binomial table built by Pascal's rule,
``_binomial_rows``, which yields its rows one at a time and takes either one
strength or a 1-D array of strengths (one Pascal pass for all of them, each
row bit-identical to the row of that strength alone).  Callers that need one
row take ``_binomial_row`` and keep O(k) memory; the loss weights of
``lossy``, the sampling kernel and the Monte Carlo class histogram read the
same table.

The W weight evolves on its own, as the finite Markov chain of
``build_transition_matrix``; branch scores are read off powers of it.
``_chain_stack`` builds that chain for many strengths at once, as one
``(K, n, n)`` array, and ``build_transition_matrix`` is its one-strength
case.  ``evolve_branch`` and ``run_rounds`` are the per-branch view of both
weights that the tests check the chain against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "KrausOperator",
    "CompletenessResult",
    "BranchState",
    "OutcomeClass",
    "TerminalBranch",
    "TransitionMatrix",
    "sp_kraus",
    "kraus_completeness_check",
    "w_class_weight",
    "vac_class_weight",
    "evolve_branch",
    "run_rounds",
    "build_transition_matrix",
    "r_step_distribution",
]


@dataclass(frozen=True)
class KrausOperator:
    """2x2 measurement operator in upper-triangular form [[sqrt(a), b], [0, sqrt(c)]]."""

    a: float
    b: complex
    c: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"diagonal weight a must be in [0, 1], got {self.a}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"diagonal weight c must be in [0, 1], got {self.c}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[math.sqrt(self.a), self.b], [0.0, math.sqrt(self.c)]],
            dtype=np.complex128,
        )


def sp_kraus(kappa: float) -> tuple[KrausOperator, KrausOperator]:
    """Keep/drop operator pair at measurement strength ``kappa``.

    Keep: diag(sqrt(1-kappa), 1); drop: diag(sqrt(kappa), 0).  kappa = 0 is a
    no-op, kappa = 1 a projective Z measurement.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"measurement strength must be in [0, 1], got {kappa}")
    return KrausOperator(1.0 - kappa, 0.0, 1.0), KrausOperator(kappa, 0.0, 0.0)


@dataclass(frozen=True)
class CompletenessResult:
    passed: bool
    residual: float


def kraus_completeness_check(
    operators: Sequence[KrausOperator], tol: float = 1e-10
) -> CompletenessResult:
    """Check sum(M+ M) = I; the residual is the Frobenius norm of the defect."""
    ops = list(operators)
    if not ops:
        raise ValueError("completeness check needs at least one operator")
    acc = np.zeros((2, 2), dtype=np.complex128)
    for op in ops:
        mat = op.matrix
        acc += mat.conj().T @ mat
    residual = float(np.linalg.norm(acc - np.eye(2)))
    return CompletenessResult(residual <= tol, residual)


def _check_kappa(kappa: float) -> None:
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"measurement strength must be in [0, 1], got {kappa}")


def _binomial_rows(k_max: int, kappa: float | np.ndarray) -> Iterator[np.ndarray]:
    """Yield rows k = 0..k_max with row[..., i] = C(k, i) (1-kappa)^i kappa^(k-i).

    ``kappa`` is one strength or a 1-D array of K strengths; row k then has
    shape (k + 1,) or (K, k + 1).  Pascal's rule never forms a huge
    coefficient or a tiny power on its own, and it is elementwise, so every
    strength of an array gets the bits it gets alone.  Only the current row
    is held.
    """
    kappa = np.asarray(kappa, dtype=float)[..., None]
    keep = 1.0 - kappa
    row = np.ones(kappa.shape)
    yield row
    for k in range(1, k_max + 1):
        nxt = np.empty(kappa.shape[:-1] + (k + 1,))
        np.multiply(kappa, row, out=nxt[..., :-1])
        nxt[..., -1] = 0.0
        nxt[..., 1:] += keep * row
        row = nxt
        yield row


def _binomial_row(k: int, kappa: float | np.ndarray) -> np.ndarray:
    """Row ``k`` of the binomial table, in O(k) memory."""
    for row in _binomial_rows(k, kappa):
        pass
    return row


def w_class_weight(m: int, j: int, kappa: float) -> float:
    """Weight of the keep-count-``j`` outcome class for a pure W component.

    C(m, j) (j/m) kappa^(m-j) (1-kappa)^(j-1) = C(m-1, j-1) kappa^(m-j)
    (1-kappa)^(j-1); the excitation must sit on a kept qubit, which is where
    the j/m factor comes from.  Summing over j = 1..m gives 1.
    """
    if m < 1:
        raise ValueError(f"live count must be at least 1, got {m}")
    if not 1 <= j <= m:
        raise ValueError(f"keep count must be in [1, {m}], got {j}")
    _check_kappa(kappa)
    return float(_binomial_row(m - 1, kappa)[j - 1])


def vac_class_weight(m: int, j: int, kappa: float) -> float:
    """Weight of the keep-count-``j`` class for the separable component.

    Plain binomial: C(m, j) * kappa^(m-j) * (1-kappa)^j.  Needed so that
    branches holding a separable admixture stay exactly normalized.
    """
    if m < 1:
        raise ValueError(f"live count must be at least 1, got {m}")
    if not 0 <= j <= m:
        raise ValueError(f"keep count must be in [0, {m}], got {j}")
    _check_kappa(kappa)
    return float(_binomial_row(m, kappa)[j])


@dataclass(frozen=True)
class BranchState:
    """Compact description of one measurement branch.

    ``m`` live parties share a state that mixes an m-party W component of
    unnormalized weight ``w_weight`` with a separable component of weight
    ``vac_weight``.  A W component needs at least two parties.
    """

    m: int
    w_weight: float
    vac_weight: float

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"live count must be nonnegative, got {self.m}")
        if self.w_weight < 0.0 or self.vac_weight < 0.0:
            raise ValueError("branch weights must be nonnegative")
        if self.m < 2 and self.w_weight != 0.0:
            raise ValueError(f"a W component needs two live parties, got m={self.m}")

    @property
    def total(self) -> float:
        return self.w_weight + self.vac_weight

    def normalized(self) -> "BranchState":
        if self.total <= 0.0:
            raise ValueError("cannot normalize a zero-weight branch")
        return BranchState(self.m, self.w_weight / self.total, self.vac_weight / self.total)


@dataclass(frozen=True)
class OutcomeClass:
    """One outcome class of a round: keep count, its probability mass, child branch.

    ``prob`` equals the child's total weight; the child carries unnormalized
    weights so that the masses of all classes add up to the parent's total.
    """

    j: int
    prob: float
    branch: BranchState


def evolve_branch(branch: BranchState, kappa: float) -> list[OutcomeClass]:
    """One measurement round on a branch, grouped by keep count.

    Classes are ordered by descending keep count; classes with zero mass are
    dropped.  A keep count of one strands the excitation on a single party,
    so that W mass is pooled into the separable weight of the child.
    """
    if branch.m < 1:
        raise ValueError("cannot measure a branch with no live parties")
    _check_kappa(kappa)
    m = branch.m
    *_, w_row, vac_row = _binomial_rows(m, kappa)
    w_row, vac_row = w_row.tolist(), vac_row.tolist()
    out: list[OutcomeClass] = []
    for j in range(m, -1, -1):
        w_part = branch.w_weight * w_row[j - 1] if j >= 1 else 0.0
        vac_part = branch.vac_weight * vac_row[j]
        if j >= 2:
            child = BranchState(j, w_part, vac_part)
        else:
            child = BranchState(j, 0.0, vac_part + w_part)
        if child.total > 0.0:
            out.append(OutcomeClass(j, child.total, child))
    return out


@dataclass(frozen=True)
class TerminalBranch:
    """Terminal ensemble entry: probability and branch."""

    prob: float
    branch: BranchState


def run_rounds(initial: BranchState, kappa: float, rounds: int) -> list[TerminalBranch]:
    """Evolve a branch for up to ``rounds`` rounds, absorbing at two live parties.

    Branches with m <= 2 stop measuring (a pair either is the final resource
    or is separable; measuring further can only lose entanglement).  The
    returned probabilities are normalized to the initial branch weight and
    sum to 1.  Branches that share a live count are merged - the evolution is
    linear in the two weights, so this is exact and keeps the state space at
    most one entry per live count.
    """
    if rounds < 1:
        raise ValueError(f"round count must be at least 1, got {rounds}")
    _check_kappa(kappa)
    scale = initial.total
    if scale <= 0.0:
        raise ValueError("initial branch has no weight")

    absorbed: dict[int, list[float]] = {}
    live: dict[int, list[float]] = {}
    bucket = absorbed if initial.m <= 2 else live
    bucket[initial.m] = [initial.w_weight, initial.vac_weight]
    for _ in range(rounds):
        if not live:
            break
        nxt: dict[int, list[float]] = {}
        for m, (w_w, w_vac) in live.items():
            for cls in evolve_branch(BranchState(m, w_w, w_vac), kappa):
                target = absorbed if cls.j <= 2 else nxt
                acc = target.setdefault(cls.j, [0.0, 0.0])
                acc[0] += cls.branch.w_weight
                acc[1] += cls.branch.vac_weight
        live = nxt
    merged = dict(absorbed)
    merged.update(live)
    return [
        TerminalBranch((w_w + w_vac) / scale, BranchState(m, w_w, w_vac))
        for m, (w_w, w_vac) in sorted(merged.items(), reverse=True)
    ]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over labeled chain states."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown chain state {label!r}") from None

    def to_tsv(self) -> str:
        lines = ["state\t" + "\t".join(self.labels)]
        for label, row in zip(self.labels, self.matrix):
            lines.append(label + "\t" + "\t".join(format(v, ".12g") for v in row))
        return "\n".join(lines) + "\n"


def _chain_stack(n_parties: int, kappas: Sequence[float] | np.ndarray) -> np.ndarray:
    """Lossless chains at every strength of ``kappas``, shape (K, n, n).

    Keep count j lands in column n_parties - j: W_j, then Bell and sep.
    Row k of the binomial table is the W_(k+1) row, so the rows are written
    as the table yields them.
    """
    kappas = np.asarray(kappas, dtype=float)
    chains = np.zeros((kappas.size, n_parties, n_parties))
    for k, row in enumerate(_binomial_rows(n_parties - 1, kappas)):
        if k >= 2:
            chains[:, n_parties - 1 - k, n_parties - 1 - k:] = row[:, ::-1]
    chains[:, -2, -2] = 1.0
    chains[:, -1, -1] = 1.0
    return chains


def build_transition_matrix(n_parties: int, kappa: float) -> TransitionMatrix:
    """Per-round chain of the lossless protocol.

    States: W_m for m = n_parties..3, then the two absorbing outcomes - an
    entangled pair ("Bell") and a separable leftover ("sep").  The W_m row is
    the keep-count class distribution with j >= 3 mapped to W_j, j = 2 to
    Bell and j <= 1 to sep.
    """
    if n_parties < 3:
        raise ValueError(f"the chain needs at least 3 parties, got {n_parties}")
    _check_kappa(kappa)
    labels = tuple(f"W{m}" for m in range(n_parties, 2, -1)) + ("Bell", "sep")
    return TransitionMatrix(labels, _chain_stack(n_parties, [kappa])[0])


def r_step_distribution(tm: TransitionMatrix, start: str, r: int) -> np.ndarray:
    """Distribution after ``r`` rounds from ``start``: the start row of P^r."""
    if r < 0:
        raise ValueError(f"step count must be nonnegative, got {r}")
    idx = tm.index(start)
    return np.linalg.matrix_power(tm.matrix, r)[idx].copy()
