"""Dense state-vector and density-operator algebra for small qubit registers.

Everything here operates on explicit complex matrices, which keeps the code
transparent and easy to audit at the cost of capping the register size at
``MAX_QUBITS`` (dense 4096 x 4096 operators are the practical desk-scale
limit).  Qubit 0 is the leftmost tensor factor, so the basis index of a
computational state is read in the same order as the bit string.

The partial trace makes no full-size temporary: it sums strided diagonal
views in one ``einsum``, reading 2^(n-k) * 4^k entries to keep k of n qubits.

All functions are pure: they never mutate their inputs and never retain a
reference to caller-owned arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 12

# Floating-point policy: one pair of knobs shared by every validity check.
EPS_HERM = 1e-10
EPS_EIG = 1e-9

__all__ = [
    "MAX_QUBITS",
    "EPS_HERM",
    "EPS_EIG",
    "Ket",
    "DensityOperator",
    "LinearOp",
    "tensor",
    "partial_trace",
    "apply_kraus",
    "apply_op",
    "concurrence",
    "fidelity",
]


def _qubit_count(dim: int, what: str) -> int:
    """Number of qubits for a dimension, rejecting non-powers of two."""
    if dim < 2:
        raise ValueError(f"{what} dimension must be at least 2, got {dim}")
    n = (dim - 1).bit_length()
    if (1 << n) != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise ValueError(
            f"{what} spans {n} qubits; the dense backend is capped at {MAX_QUBITS}"
        )
    return n


class Ket:
    """Pure state on one or more qubits, stored as a dense amplitude vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, normalize: bool = False):
        vec = np.array(amplitudes, dtype=np.complex128)
        if vec.ndim != 1:
            raise ValueError("amplitudes must form a flat vector")
        _qubit_count(vec.size, "ket")
        if normalize:
            norm = np.linalg.norm(vec)
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / norm
        self.amplitudes = vec

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def num_qubits(self) -> int:
        return (self.dim - 1).bit_length()

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def density(self) -> "DensityOperator":
        """Projector |psi><psi| as a density operator."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ket(dim={self.dim})"


class DensityOperator:
    """Dense Hermitian operator on an n-qubit space."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = self._checked(np.array(matrix, dtype=np.complex128))

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap a fresh complex matrix that nothing else refers to, without a copy.

        Internal producers only: the public constructor copies, so that no
        caller-owned array is ever shared.
        """
        op = cls.__new__(cls)
        op.matrix = cls._checked(np.asarray(matrix, dtype=np.complex128))
        return op

    @staticmethod
    def _checked(mat: np.ndarray) -> np.ndarray:
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density operator must be a square matrix")
        _qubit_count(mat.shape[0], "density operator")
        return mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return (self.dim - 1).bit_length()

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def check_valid(
        self,
        herm_tol: float = EPS_HERM,
        trace_tol: float = EPS_HERM,
        eig_tol: float = EPS_EIG,
    ) -> None:
        """Raise ``ValueError`` unless this is a physical, unit-trace state."""
        herm = self.hermiticity_error()
        if herm > herm_tol:
            raise ValueError(f"operator is not Hermitian (error {herm:.3e})")
        tr_err = abs(self.trace() - 1.0)
        if tr_err > trace_tol:
            raise ValueError(f"trace differs from 1 by {tr_err:.3e}")
        lo = self.min_eigenvalue()
        if lo < -eig_tol:
            raise ValueError(f"negative eigenvalue {lo:.3e}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityOperator(dim={self.dim})"


class LinearOp:
    """General linear map between qubit registers (matrix form)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=np.complex128)
        if mat.ndim != 2:
            raise ValueError("operator must be a matrix")
        _qubit_count(mat.shape[0], "operator output")
        _qubit_count(mat.shape[1], "operator input")
        self.matrix = mat

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_square(self) -> bool:
        return self.dim_in == self.dim_out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearOp({self.dim_out}x{self.dim_in})"


def tensor(factors: Sequence[Ket] | Sequence[LinearOp]):
    """Kronecker product of kets or of operators, in the given order.

    Mixing kets and operators in one call is rejected; lift kets to
    projectors or operators to a common kind first.
    """
    items = list(factors)
    if not items:
        raise ValueError("tensor product of an empty list")
    if all(isinstance(f, Ket) for f in items):
        vec = items[0].amplitudes
        for f in items[1:]:
            vec = np.kron(vec, f.amplitudes)
        return Ket(vec)
    if all(isinstance(f, LinearOp) for f in items):
        mat = items[0].matrix
        for f in items[1:]:
            mat = np.kron(mat, f.matrix)
        return LinearOp(mat)
    raise TypeError("cannot mix kets and operators in one tensor product")


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced operator on the kept qubits (indices in big-endian order).

    One ``einsum`` over the operator's ``(2,) * 2n`` tensor form: a traced
    qubit carries the same label on its row and column axis, so numpy sums a
    strided diagonal view.  It reads 2^(n-k) * 4^k entries for k kept qubits
    and allocates nothing beyond the 4^k-entry result.
    """
    n = rho.num_qubits
    kept = sorted({int(q) for q in keep})
    if not kept:
        raise ValueError("keep set must not be empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"qubit index out of range for {n} qubits: {kept}")
    columns = [n + q if q in kept else q for q in range(n)]
    reduced = np.einsum(
        rho.matrix.reshape((2,) * (2 * n)),
        list(range(n)) + columns,
        kept + [n + q for q in kept],
    )
    dim = 1 << len(kept)
    return DensityOperator(reduced.reshape(dim, dim))


def apply_kraus(m: LinearOp, rho: DensityOperator):
    """Apply one Kraus operator: weight Tr(M rho M+) and the normalized state.

    Returns ``(0.0, None)`` when the branch has no weight.
    """
    if not m.is_square:
        raise ValueError("Kraus operator must be square")
    if m.dim_in != rho.dim:
        raise ValueError(f"dimension mismatch: operator {m.dim_in}, state {rho.dim}")
    out = m.matrix @ rho.matrix @ m.matrix.conj().T
    weight = float(np.trace(out).real)
    if weight <= 0.0:
        return 0.0, None
    return weight, DensityOperator(out / weight)


def apply_op(m: LinearOp, psi: Ket) -> Ket:
    """Apply an operator to a ket (no renormalization)."""
    if m.dim_in != psi.dim:
        raise ValueError(f"dimension mismatch: operator {m.dim_in}, ket {psi.dim}")
    return Ket(m.matrix @ psi.amplitudes)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Principal square root of a (numerically) positive semidefinite matrix."""
    evals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T


def _clip_dust(evals: np.ndarray, rel: float = 1e-13) -> np.ndarray:
    """Zero out negative and relatively tiny eigenvalues.

    The square roots taken afterwards would amplify O(machine-eps)
    eigenvalue dust to O(1e-8), so exact analytic zeros must stay zeros.
    """
    evals = np.clip(evals, 0.0, None)
    top = float(evals.max(initial=0.0))
    if top > 0.0:
        evals[evals < top * rel] = 0.0
    return evals


# Spin-flip kernel sigma_y (x) sigma_y, written out (it is real).
_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=np.complex128,
)


def concurrence(rho: DensityOperator) -> float:
    """Wootters concurrence of a two-qubit state.

    Evaluated through the Hermitian form sqrt(rho) rho~ sqrt(rho), whose
    eigenvalues are the squares of the usual lambda_i; tiny negative
    eigenvalues from rounding are clamped to zero before the square roots.
    """
    if rho.dim != 4:
        raise ValueError("concurrence is defined for exactly two qubits (dim 4)")
    if rho.hermiticity_error() > EPS_HERM:
        raise ValueError("concurrence needs a Hermitian input")
    mat = (rho.matrix + rho.matrix.conj().T) / 2.0
    flipped = _FLIP @ mat.conj() @ _FLIP
    root = _psd_sqrt(mat)
    core = root @ flipped @ root
    evals = _clip_dust(np.linalg.eigvalsh((core + core.conj().T) / 2.0))
    lam = np.sqrt(evals)[::-1]
    value = lam[0] - lam[1] - lam[2] - lam[3]
    return float(min(1.0, max(0.0, value)))


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    root = _psd_sqrt((rho.matrix + rho.matrix.conj().T) / 2.0)
    core = root @ sigma.matrix @ root
    evals = _clip_dust(np.linalg.eigvalsh((core + core.conj().T) / 2.0))
    value = float(np.sum(np.sqrt(evals)) ** 2)
    return min(1.0, max(0.0, value))
