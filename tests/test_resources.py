import math
import random
import tracemalloc

import numpy as np
import pytest

from redsim.qcore import LinearOp, apply_op, concurrence, fidelity, partial_trace, tensor
from redsim.resources import (
    Graph,
    edge_list_text,
    ghz_state,
    graph_from_edge_list,
    graph_state,
    two_centered_graph,
    w_sigma,
    w_state,
)

HADAMARD = LinearOp(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
EYE = LinearOp(np.eye(2))


class TestWState:
    def test_w2_is_symmetric_bell_pair(self):
        expected = np.array([0, 1, 1, 0]) / math.sqrt(2)
        assert np.allclose(w_state(2).amplitudes, expected)

    def test_w3_amplitudes(self):
        amps = w_state(3).amplitudes
        hot = {0b001, 0b010, 0b100}
        for idx in range(8):
            target = 1 / math.sqrt(3) if idx in hot else 0.0
            assert abs(amps[idx] - target) < 1e-15

    @pytest.mark.parametrize("n", range(3, 11))
    def test_reduced_pair_concurrence_is_two_over_n(self, n):
        rho = w_state(n).density()
        rng = random.Random(n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for pair in rng.sample(pairs, min(6, len(pairs))):
            value = concurrence(partial_trace(rho, pair))
            assert abs(value - 2 / n) < 1e-9

    def test_range_check(self):
        with pytest.raises(ValueError):
            w_state(1)
        with pytest.raises(ValueError):
            w_state(13)


class TestGhzState:
    def test_ghz2_is_phi_plus(self):
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(ghz_state(2).amplitudes, expected)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_partial_trace_is_diagonal_mixture(self, n):
        reduced = partial_trace(ghz_state(n).density(), set(range(1, n)))
        dim = 1 << (n - 1)
        expected = np.zeros((dim, dim), dtype=complex)
        expected[0, 0] = expected[-1, -1] = 0.5
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_any_loss_kills_pair_entanglement(self):
        reduced = partial_trace(ghz_state(4).density(), {1, 2, 3})
        for pair in [(0, 1), (0, 2), (1, 2)]:
            assert concurrence(partial_trace(reduced, pair)) < 1e-12


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_normalizes_duplicates_and_order(self):
        g = Graph(3, [(2, 0), (0, 2)])
        assert g.edges == frozenset({(0, 2)})


class TestGraphState:
    def test_no_edges_gives_plus_product(self):
        state = graph_state(Graph(2, []))
        assert np.allclose(state.amplitudes, np.full(4, 0.5))

    def test_single_edge_is_maximally_entangled(self):
        state = graph_state(Graph(2, [(0, 1)]))
        expected = np.array([0.5, 0.5, 0.5, -0.5])
        assert np.allclose(state.amplitudes, expected)
        assert abs(concurrence(state.density()) - 1.0) < 1e-12

    def test_edge_application_order_is_irrelevant(self):
        # Apply the controlled-Z factors one by one in shuffled order and
        # compare against the constructor output.
        rng = random.Random(12)
        edges = [(0, 1), (1, 2), (0, 3), (2, 3), (1, 3)]
        reference = graph_state(Graph(4, edges))
        for _ in range(3):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            vec = np.full(16, 0.25, dtype=complex)
            for a, b in shuffled:
                vec = _cz_matrix(4, a, b) @ vec
            assert np.allclose(vec, reference.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_star_plus_hadamards_equals_ghz(self, n):
        star = graph_state(Graph(n, [(0, v) for v in range(1, n)]))
        op = tensor([EYE] + [HADAMARD] * (n - 1))
        rotated = apply_op(op, star)
        assert abs(fidelity(rotated.density(), ghz_state(n).density()) - 1.0) < 1e-12

    def test_connected_graphs_have_maximally_mixed_qubits(self):
        graphs = [
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            two_centered_graph(5)[0],
            Graph(3, [(0, 1), (0, 2)]),
        ]
        for g in graphs:
            rho = graph_state(g).density()
            for q in range(g.n):
                reduced = partial_trace(rho, {q})
                assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_unit_norm(self):
        g, _ = two_centered_graph(7)
        assert abs(graph_state(g).norm() - 1.0) < 1e-12


def _cz_matrix(n, a, b):
    dim = 1 << n
    idx = np.arange(dim)
    bits_a = (idx >> (n - 1 - a)) & 1
    bits_b = (idx >> (n - 1 - b)) & 1
    return np.diag(1.0 - 2.0 * (bits_a & bits_b))


class TestTwoCenteredGraph:
    def test_four_vertices(self):
        g, layout = two_centered_graph(4)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 3)})
        assert layout.leaves_a == (2,)
        assert layout.leaves_b == (3,)

    def test_six_vertices(self):
        g, layout = two_centered_graph(6)
        assert g.edges == frozenset({(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)})
        assert layout.leaves_a == (2, 3)
        assert layout.leaves_b == (4, 5)

    def test_odd_split(self):
        _, layout = two_centered_graph(7)
        assert (len(layout.leaves_a), len(layout.leaves_b)) == (3, 2)

    def test_range_check(self):
        with pytest.raises(ValueError):
            two_centered_graph(3)


class TestWSigma:
    def test_no_loss_is_pure_w(self):
        for n in (3, 5):
            assert np.allclose(
                w_sigma(n, 0).matrix, w_state(n).density().matrix, atol=0
            )

    def test_hand_expansion_n3(self):
        psi_plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1 / 3
        expected += (2 / 3) * np.outer(psi_plus, psi_plus)
        assert np.allclose(w_sigma(3, 1).matrix, expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_matches_partial_trace_of_full_w(self, n):
        full = w_state(n).density()
        for lost in range(n - 1):
            direct = w_sigma(n, lost)
            traced = partial_trace(full, set(range(lost, n)))
            assert np.max(np.abs(direct.matrix - traced.matrix)) < 1e-12

    def test_two_survivor_concurrence(self):
        for n in range(3, 9):
            value = concurrence(w_sigma(n, n - 2))
            assert abs(value - 2 / n) < 1e-12

    def test_matrix_is_not_copied(self):
        # The 11-qubit matrix takes 64 MiB; a copy of it would double that.
        tracemalloc.start()
        try:
            sigma = w_sigma(11, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sigma.matrix.nbytes == 64 << 20
        assert peak < 96 << 20

    def test_range_check(self):
        with pytest.raises(ValueError):
            w_sigma(4, 3)


class TestEdgeListFormat:
    def test_round_trip(self):
        g, _ = two_centered_graph(6)
        text = edge_list_text(g)
        parsed = graph_from_edge_list(text)
        assert parsed == g

    def test_explicit_vertex_count(self):
        g = graph_from_edge_list("0 1\n", n=4)
        assert g.n == 4

    def test_comments_and_blanks_ignored(self):
        g = graph_from_edge_list("# roots\n0 1\n\n1 2\n")
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edge_list("0 1 2\n")
