"""Constructors for the resource states and graphs used across the toolkit.

Role convention for the star network: the helper nodes occupy qubits
``0 .. n-3`` and the two target parties hold the last two qubits.  Loss acts
only on helper qubits, so tracing out a prefix of the register models the
lossy distribution of a symmetric state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .qcore import MAX_QUBITS, DensityOperator, Ket

__all__ = [
    "Graph",
    "TwoCenteredLayout",
    "w_state",
    "ghz_state",
    "graph_state",
    "two_centered_graph",
    "w_sigma",
    "edge_list_text",
    "graph_from_edge_list",
]


def w_state(n: int) -> Ket:
    """Uniform single-excitation superposition on ``n`` qubits."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [2, {MAX_QUBITS}], got {n}")
    vec = np.zeros(1 << n, dtype=np.complex128)
    amp = 1.0 / math.sqrt(n)
    for q in range(n):
        vec[1 << (n - 1 - q)] = amp
    return Ket(vec)


def ghz_state(n: int) -> Ket:
    """(|0...0> + |1...1>) / sqrt(2) on ``n`` qubits."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [2, {MAX_QUBITS}], got {n}")
    vec = np.zeros(1 << n, dtype=np.complex128)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return Ket(vec)


class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    Edges are normalized to sorted pairs; self-loops and out-of-range
    vertices are rejected, duplicates collapse.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"vertex count must be in [1, {MAX_QUBITS}], got {n}")
        normalized = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
            normalized.add((min(a, b), max(a, b)))
        self.n = n
        self.edges = frozenset(normalized)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class TwoCenteredLayout:
    """Roles in a two-centered graph: adjacent roots, leaves split between them."""

    root_a: int
    root_b: int
    leaves_a: tuple[int, ...]
    leaves_b: tuple[int, ...]


def graph_state(g: Graph) -> Ket:
    """Apply a controlled-Z for every edge to the all-plus product state.

    The CZ gates commute, so the edge order is irrelevant.
    """
    n = g.n
    dim = 1 << n
    vec = np.full(dim, 2.0 ** (-n / 2.0), dtype=np.complex128)
    idx = np.arange(dim)
    for a, b in sorted(g.edges):
        bits_a = (idx >> (n - 1 - a)) & 1
        bits_b = (idx >> (n - 1 - b)) & 1
        vec = vec * (1 - 2 * (bits_a & bits_b))
    return Ket(vec)


def two_centered_graph(n: int) -> tuple[Graph, TwoCenteredLayout]:
    """Two adjacent roots (vertices 0 and 1), leaves split as evenly as possible.

    The first ceil((n-2)/2) leaves attach to root 0, the rest to root 1; each
    leaf touches exactly one root.
    """
    if not 4 <= n <= MAX_QUBITS:
        raise ValueError(f"two-centered graph needs 4..{MAX_QUBITS} vertices, got {n}")
    n_leaves = n - 2
    first = (n_leaves + 1) // 2
    leaves_a = tuple(range(2, 2 + first))
    leaves_b = tuple(range(2 + first, n))
    edges = {(0, 1)}
    edges.update((0, leaf) for leaf in leaves_a)
    edges.update((1, leaf) for leaf in leaves_b)
    return Graph(n, edges), TwoCenteredLayout(0, 1, leaves_a, leaves_b)


def w_sigma(n_parties: int, lost: int) -> DensityOperator:
    """State left on the ``n_parties - lost`` survivors of a shared W state.

    Closed form: the vacuum projector with weight lost/n plus a smaller W
    state with weight (n - lost)/n.  Equals the partial trace of the full
    W projector over the lost qubits.  Only the (m+1) x (m+1) block on the
    vacuum and the m single-excitation states is written into a zeroed
    matrix, which the operator adopts without a copy, so the rest of it is
    never touched.
    """
    if not 2 <= n_parties <= MAX_QUBITS:
        raise ValueError(f"party count must be in [2, {MAX_QUBITS}], got {n_parties}")
    if not 0 <= lost <= n_parties - 2:
        raise ValueError(f"lost count must be in [0, {n_parties - 2}], got {lost}")
    m = n_parties - lost
    support = [0] + [1 << q for q in range(m)]
    amp = w_state(m).amplitudes[support]
    mat = np.zeros((1 << m, 1 << m), dtype=np.complex128)
    mat[np.ix_(support, support)] = (m / n_parties) * np.outer(amp, amp.conj())
    mat[0, 0] += lost / n_parties
    return DensityOperator._adopt(mat)


def edge_list_text(g: Graph) -> str:
    """Serialize a graph as one ``a b`` pair per line, sorted."""
    return "".join(f"{a} {b}\n" for a, b in sorted(g.edges))


def graph_from_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse the ``a b`` per-line format; blank lines and ``#`` comments skipped.

    Without an explicit vertex count, the graph spans 0..max vertex seen.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from exc
        edges.append((a, b))
    if n is None:
        if not edges:
            raise ValueError("empty edge list needs an explicit vertex count")
        n = max(max(a, b) for a, b in edges) + 1
    return Graph(n, edges)
