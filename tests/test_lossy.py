import math
import tracemalloc

import numpy as np
import pytest

from redsim.lossy import (
    _loss_row,
    enumerate_loss_patterns,
    ghz_benchmark,
    loss_weight,
    post_loss_state,
    two_centered_benchmark,
    two_centered_leaf_split,
    w_branch,
    w_loss_ensemble,
)
from redsim.resources import two_centered_graph, w_sigma


class TestLossWeight:
    def test_lossless(self):
        assert loss_weight(5, 0, 0.0) == 1.0

    def test_half_loss_example(self):
        assert abs(loss_weight(4, 1, 0.5) - 0.5) < 1e-15

    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("eps", [0.0, 0.17, 0.5, 0.83, 1.0])
    def test_weights_sum_to_one(self, n, eps):
        total = sum(loss_weight(n, i, eps) for i in range(n - 1))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.83])
    def test_matches_closed_form(self, eps):
        for helpers in range(61):
            for lost in range(helpers + 1):
                closed = math.comb(helpers, lost) * eps**lost * (1 - eps) ** (helpers - lost)
                weight = loss_weight(helpers + 2, lost, eps)
                assert weight == pytest.approx(closed, rel=1e-12, abs=0)

    def test_large_network_is_finite(self):
        # C(1098, 550) overflows a float; the table never forms it.
        weight = loss_weight(1100, 550, 0.5)
        assert math.isfinite(weight) and 0.0 < weight < 1.0
        assert math.fsum(_loss_row(1100, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_one_row_in_linear_memory(self):
        # The table up to row 3998 would hold 8 M floats (64 MiB); one row
        # holds 4 k (31 KiB).
        tracemalloc.start()
        try:
            weight = loss_weight(4000, 2000, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(weight) and 0.0 < weight < 1.0
        assert peak < 1 << 20

    def test_range_checks(self):
        with pytest.raises(ValueError):
            loss_weight(4, 3, 0.5)
        with pytest.raises(ValueError):
            loss_weight(4, 0, 1.5)


class TestWLossEnsemble:
    def test_lossless_collapses_to_single_entry(self):
        ensemble = w_loss_ensemble(4, 0.0)
        weights = ensemble.weights()
        assert weights[0] == 1.0
        assert all(w == 0.0 for w in weights[1:])

    def test_half_loss_weights(self):
        weights = w_loss_ensemble(4, 0.5).weights()
        assert np.allclose(weights, [0.25, 0.5, 0.25])

    def test_states_match_survivor_forms_and_are_physical(self):
        ensemble = w_loss_ensemble(5, 0.3)
        assert abs(sum(ensemble.weights()) - 1.0) < 1e-12
        for entry in ensemble.entries:
            expected = w_sigma(5, entry.lost)
            assert np.allclose(entry.state.matrix, expected.matrix, atol=0)
            entry.state.check_valid()

    def test_range_check(self):
        with pytest.raises(ValueError):
            w_loss_ensemble(2, 0.1)


class TestWBranch:
    def test_matches_survivor_weights(self):
        branch = w_branch(5, 2)
        assert branch.m == 3
        assert abs(branch.w_weight - 3 / 5) < 1e-15
        assert abs(branch.vac_weight - 2 / 5) < 1e-15

    def test_lossless_is_pure(self):
        branch = w_branch(4, 0)
        assert branch.vac_weight == 0.0
        assert abs(branch.total - 1.0) < 1e-15


class TestGhzBenchmark:
    def test_lossless(self):
        for n in range(3, 9):
            assert ghz_benchmark(n, 0.0) == 1.0

    def test_examples(self):
        assert abs(ghz_benchmark(4, 0.5) - 0.25) < 1e-15
        assert abs(ghz_benchmark(6, 0.5) - 0.0625) < 1e-15

    def test_monotone_in_loss(self):
        grid = np.linspace(0, 1, 101)
        values = [ghz_benchmark(5, e) for e in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestTwoCenteredBenchmark:
    def test_leaf_split(self):
        assert two_centered_leaf_split(4) == (1, 1)
        assert two_centered_leaf_split(7) == (3, 2)

    def test_robust_examples(self):
        assert abs(two_centered_benchmark(4, 0.5, "robust") - 0.75) < 1e-15
        assert abs(two_centered_benchmark(6, 0.5, "robust") - 0.4375) < 1e-15

    def test_strict_equals_ghz(self):
        for n in range(4, 9):
            for eps in (0.0, 0.2, 0.7, 1.0):
                assert two_centered_benchmark(n, eps, "strict") == ghz_benchmark(n, eps)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            two_centered_benchmark(4, 0.5, "lenient")

    @pytest.mark.parametrize("n", range(4, 9))
    def test_robust_dominates_ghz(self, n):
        grid = np.linspace(0, 1, 101)
        for eps in grid:
            robust = two_centered_benchmark(n, eps, "robust")
            plain = ghz_benchmark(n, eps)
            assert robust >= plain - 1e-15
            if 0.0 < eps < 1.0:
                assert robust > plain

    def test_monotone_in_loss(self):
        grid = np.linspace(0, 1, 101)
        values = [two_centered_benchmark(6, e, "robust") for e in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestLossPatterns:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_totals_match_closed_forms(self, n):
        _, layout = two_centered_graph(n)
        eps = 0.37
        patterns = enumerate_loss_patterns(layout, eps)
        assert len(patterns) == 1 << (n - 2)
        total = sum(p.probability for p in patterns)
        recoverable = sum(p.probability for p in patterns if p.recoverable)
        assert abs(total - 1.0) < 1e-12
        assert abs(recoverable - two_centered_benchmark(n, eps, "robust")) < 1e-12

    def test_empty_pattern_recoverable(self):
        _, layout = two_centered_graph(5)
        eps = 0.25
        empty = next(p for p in enumerate_loss_patterns(layout, eps) if not p.lost)
        assert empty.recoverable
        assert abs(empty.probability - (1 - eps) ** 3) < 1e-15

    def test_single_leaf_recoverable(self):
        _, layout = two_centered_graph(4)
        eps = 0.25
        patterns = enumerate_loss_patterns(layout, eps)
        single = next(p for p in patterns if p.lost == (layout.leaves_a[0],))
        assert single.recoverable
        assert abs(single.probability - eps * (1 - eps)) < 1e-15

    def test_cross_root_pattern_not_recoverable(self):
        _, layout = two_centered_graph(6)
        for p in enumerate_loss_patterns(layout, 0.5):
            touches_a = any(v in layout.leaves_a for v in p.lost)
            touches_b = any(v in layout.leaves_b for v in p.lost)
            assert p.recoverable == (not (touches_a and touches_b))


class TestPostLossState:
    def test_reduced_state_is_physical(self):
        g, layout = two_centered_graph(5)
        reduced = post_loss_state(g, {layout.leaves_a[0]})
        reduced.check_valid()
        assert reduced.num_qubits == 4

    def test_cannot_lose_everything(self):
        g, _ = two_centered_graph(4)
        with pytest.raises(ValueError):
            post_loss_state(g, {0, 1, 2, 3})
