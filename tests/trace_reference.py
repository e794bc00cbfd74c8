"""Reference constructions for the dense partial trace and the W survivor state.

``partial_trace`` traces one qubit at a time with ``np.trace``, allocating a
new tensor per traced qubit; ``w_sigma`` scales the outer product of the whole
amplitude vector.  ``redsim.qcore.partial_trace`` must match the first to
rounding (exactly on W states), ``redsim.resources.w_sigma`` must match the
second exactly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from redsim.qcore import DensityOperator
from redsim.resources import w_state


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced operator on the kept qubits (indices in big-endian order)."""
    n = rho.num_qubits
    kept = sorted({int(q) for q in keep})
    if not kept:
        raise ValueError("keep set must not be empty")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"qubit index out of range for {n} qubits: {kept}")
    if len(kept) == n:
        return DensityOperator(rho.matrix)
    tensor_form = rho.matrix.reshape((2,) * (2 * n))
    live = n
    for q in sorted(set(range(n)) - set(kept), reverse=True):
        tensor_form = np.trace(tensor_form, axis1=q, axis2=q + live)
        live -= 1
    dim = 1 << len(kept)
    return DensityOperator(tensor_form.reshape(dim, dim))


def w_sigma(n_parties: int, lost: int) -> DensityOperator:
    """State left on the ``n_parties - lost`` survivors of a shared W state."""
    m = n_parties - lost
    w = w_state(m)
    mat = (m / n_parties) * np.outer(w.amplitudes, w.amplitudes.conj())
    mat[0, 0] += lost / n_parties
    return DensityOperator(mat)
