import math

import numpy as np
import pytest

from redsim import analysis, locc
from redsim.analysis import (
    Curve,
    advantage_ratio,
    avg_entanglement,
    branch_concurrence,
    branch_optima,
    build_curve,
    default_grid,
    derivative_at_zero,
    fom_fixed_kappa,
    fom_lower_bound,
    optimize_kappa,
    threshold,
)
from redsim.locc import BranchState
from redsim.lossy import ghz_benchmark, loss_weight, w_branch
from redsim.resources import w_sigma

import optimizer_reference
from dense_engine import dense_average

# Stationary point of the four-party single-round objective
# 0.5 (1-k)^3 + 2 k (1-k)^2 + 3 k^2 (1-k), the positive root of
# 4.5 k^2 - k - 0.5 = 0.
KAPPA4 = (1.0 + math.sqrt(10.0)) / 9.0
VALUE4 = 0.5 * (1 - KAPPA4) ** 3 + 2 * KAPPA4 * (1 - KAPPA4) ** 2 + 3 * KAPPA4**2 * (
    1 - KAPPA4
)


class TestBranchConcurrence:
    def test_pure_pair(self):
        assert branch_concurrence(BranchState(2, 1.0, 0.0)) == 1.0

    def test_pure_w5(self):
        assert abs(branch_concurrence(BranchState(5, 1.0, 0.0)) - 0.4) < 1e-15

    def test_mixed_pair(self):
        assert abs(branch_concurrence(BranchState(2, 0.6, 0.4)) - 0.6) < 1e-15

    def test_dead_branches_score_zero(self):
        assert branch_concurrence(BranchState(1, 0.0, 1.0)) == 0.0
        assert branch_concurrence(BranchState(3, 0.0, 0.0)) == 0.0


class TestAvgEntanglement:
    def test_w3_quarter_strength(self):
        value = avg_entanglement(BranchState(3, 1.0, 0.0), 0.25, 1)
        assert abs(value - 0.75) < 1e-12

    def test_zero_strength_returns_branch_score(self):
        start = BranchState(5, 0.3, 0.7)
        for rounds in (1, 3):
            value = avg_entanglement(start, 0.0, rounds)
            assert abs(value - branch_concurrence(start)) < 1e-12

    def test_w4_at_stationary_point(self):
        value = avg_entanglement(BranchState(4, 1.0, 0.0), KAPPA4, 1)
        assert abs(value - VALUE4) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_matches_dense_engine(self, n, rounds):
        for lost in (0, 1):
            for kappa in (0.25, 0.6):
                fast = avg_entanglement(w_branch(n, lost), kappa, rounds)
                dense = dense_average(w_sigma(n, lost), kappa, rounds)
                assert abs(fast - dense) < 1e-9


class TestOptimizeKappa:
    def test_w3_closed_form(self):
        result = optimize_kappa(BranchState(3, 1.0, 0.0), 1)
        assert abs(result.kappa - 0.25) < 1e-6
        assert abs(result.value - 0.75) < 1e-6

    def test_w4_closed_form(self):
        result = optimize_kappa(BranchState(4, 1.0, 0.0), 1)
        assert abs(result.kappa - KAPPA4) < 1e-6
        assert abs(result.value - VALUE4) < 1e-6

    def test_pair_branch_never_measures(self):
        start = BranchState(2, 0.8, 0.2)
        for rounds in (1, 4):
            result = optimize_kappa(start, rounds)
            assert result.kappa == 0.0
            assert abs(result.value - branch_concurrence(start)) < 1e-12

    def test_value_at_least_zero_strength_sample(self):
        for lost in range(3):
            start = w_branch(5, lost)
            for rounds in (1, 2):
                result = optimize_kappa(start, rounds)
                assert result.value >= avg_entanglement(start, 0.0, rounds) - 1e-15

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            optimize_kappa(BranchState(3, 1.0, 0.0), 1, tol=0.0)


class TestFomLowerBound:
    def test_lossless_four_parties(self):
        assert abs(fom_lower_bound(4, 1, 0.0) - VALUE4) < 1e-6

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_total_loss_leaves_two_survivors(self, n):
        assert abs(fom_lower_bound(n, 1, 1.0) - 2 / n) < 1e-12
        assert abs(fom_lower_bound(n, 3, 1.0) - 2 / n) < 1e-12

    def test_optimized_dominates_fixed_strength(self):
        for kappa in (0.1, 0.3, 0.6):
            fixed = fom_fixed_kappa(5, 1, 0.4, kappa)
            assert fom_lower_bound(5, 1, 0.4) >= fixed - 1e-12

    def test_monotone_in_loss(self):
        values = [fom_lower_bound(5, 1, e) for e in np.linspace(0, 1, 51)]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_fixed_strength_curve_scores_each_loss_branch_once(self, monkeypatch):
        n, rounds, kappa = 7, 3, 0.2718
        expected = [
            sum(
                loss_weight(n, lost, e)
                * avg_entanglement(w_branch(n, lost), kappa, rounds)
                for lost in range(n - 1)
            )
            for e in default_grid()
        ]
        calls = []
        original = locc._chain_stack

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(locc, "_chain_stack", counting)
        values = [fom_fixed_kappa(n, rounds, e, kappa) for e in default_grid()]
        assert len(calls) == 1  # one stacked chain scores every loss branch
        assert values == expected
        assert fom_fixed_kappa(n, rounds, default_grid(), kappa).tolist() == expected

    def test_grid_average_matches_pointwise(self):
        grid = default_grid(41)
        assert fom_lower_bound(6, 2, grid).tolist() == [fom_lower_bound(6, 2, e) for e in grid]

    def test_cached_optima_match_direct_optimization(self):
        optima = branch_optima(5, 2)
        direct = optimize_kappa(w_branch(5, 1), 2)
        assert optima[1].kappa == direct.kappa
        assert optima[1].value == direct.value


class TestBatchedSearch:
    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("rounds", [1, 5, 20])
    def test_matches_per_branch_reference(self, n, rounds):
        batched = branch_optima(n, rounds)
        reference = optimizer_reference.branch_optima(n, rounds)
        assert [r.kappa for r in batched] == [r.kappa for r in reference]
        assert [r.evaluations for r in batched] == [r.evaluations for r in reference]
        assert max(abs(a.value - b.value) for a, b in zip(batched, reference)) <= 1e-15

    def test_one_chain_stack_per_search_step(self, monkeypatch):
        # One scan, one call for both starting probes, then one per
        # golden-section step of the slowest branch; none per branch.
        calls = []
        original = locc._chain_stack

        def counting(n_parties, kappas):
            calls.append(len(kappas))
            return original(n_parties, kappas)

        monkeypatch.setattr(locc, "_chain_stack", counting)
        optima = analysis.branch_optima.__wrapped__(12, 20)
        steps = max(res.evaluations for res in optima) - 101 - 2
        assert len(calls) == 2 + steps
        assert len(calls) <= 24
        assert calls[:2] == [101, 2 * 11]

    def test_scores_do_not_depend_on_chain_size_or_batch(self):
        kappas = np.linspace(0.0, 1.0, 7)
        for rounds in (1, 5, 20):
            for n in range(3, 13):
                scores = analysis._chain_scores(n, rounds, kappas)
                for m in range(3, n + 1):
                    alone = analysis._chain_scores(m, rounds, kappas)
                    assert scores[:, n - m :].tolist() == alone.tolist()
                for k, kappa in enumerate(kappas):
                    alone = analysis._chain_scores(n, rounds, [kappa])
                    assert scores[k].tolist() == alone[0].tolist()


class TestCurve:
    def test_ghz_values(self):
        curve = build_curve("ghz", 4, 1, [0.0, 0.5, 1.0])
        assert np.allclose(curve.values, [1.0, 0.25, 0.0])
        assert curve.rounds is None

    def test_two_centered_value(self):
        curve = build_curve("twocentered", 4, 1, [0.0, 0.5, 1.0])
        assert abs(curve.values[1] - 0.75) < 1e-15
        assert curve.resource == "twocentered-robust"

    def test_w_curve_left_edge(self):
        curve = build_curve("w", 4, 1, default_grid(11))
        assert abs(curve.values[0] - VALUE4) < 1e-6

    def test_unknown_resource(self):
        with pytest.raises(ValueError):
            build_curve("cluster", 4, 1, [0.0, 1.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Curve(np.array([0.0, 0.0, 1.0]), np.zeros(3), "ghz", 4)
        with pytest.raises(ValueError):
            Curve(np.array([0.0, 1.0]), np.array([0.5, 1.5]), "ghz", 4)
        assert default_grid(analysis.MAX_GRID_POINTS).size == analysis.MAX_GRID_POINTS
        with pytest.raises(ValueError):
            default_grid(analysis.MAX_GRID_POINTS + 1)

    def test_every_resource_curve_is_monotone(self):
        grid = default_grid(41)
        for resource in ("w", "ghz", "twocentered"):
            curve = build_curve(resource, 5, 1, grid)
            steps = np.diff(curve.values)
            assert np.all(steps <= 1e-9)

    def test_tsv_format(self):
        curve = build_curve("ghz", 4, 1, [0.0, 0.5, 1.0])
        text = curve.to_tsv()
        assert text == "0\t1\n0.5\t0.25\n1\t0\n"


class TestThreshold:
    def test_synthetic_linear_crossing(self):
        grid = np.linspace(0, 1, 101)
        rising = Curve(grid, grid * 0.8, "w", 4)
        flat = Curve(grid, np.full(grid.size, 0.4), "ghz", 4)
        eps0 = threshold(rising, flat)
        assert abs(eps0 - 0.5) < 1e-4

    def test_root_of_the_crossing_segment_is_exact(self):
        grid = np.linspace(0, 1, 101)
        rising = Curve(grid, 0.2 + 0.5 * grid, "w", 4)
        flat = Curve(grid, np.full(grid.size, 0.4515), "ghz", 4)
        assert abs(threshold(rising, flat) - 0.503) < 1e-12

    def test_identical_curves_have_no_threshold(self):
        curve = build_curve("ghz", 5, 1, default_grid(21))
        assert threshold(curve, curve) is None

    def test_grid_mismatch_rejected(self):
        a = build_curve("ghz", 5, 1, default_grid(21))
        b = build_curve("ghz", 5, 1, default_grid(31))
        with pytest.raises(ValueError):
            threshold(a, b)

    def test_w_overtakes_ghz_near_expected_loss(self):
        grid = default_grid()
        eps0 = threshold(build_curve("w", 4, 1, grid), build_curve("ghz", 4, 1, grid))
        assert eps0 is not None
        assert abs(eps0 - 0.199) < 0.01

    def test_two_centered_threshold_exists_and_shrinks_with_size(self):
        grid = default_grid()
        crossings = []
        for n in (4, 6, 8):
            eps0 = threshold(
                build_curve("w", n, 1, grid), build_curve("twocentered", n, 1, grid)
            )
            assert eps0 is not None and 0.0 < eps0 < 1.0
            crossings.append(eps0)
        assert crossings[0] > crossings[1] > crossings[2]


class TestDerivatives:
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_ghz_initial_slope(self, n):
        slope = derivative_at_zero(lambda e: ghz_benchmark(n, e))
        assert abs(slope - (-(n - 2))) < 1e-3 * (n - 2)

    def test_w_slope_matches_branch_value_gap(self):
        n, rounds = 4, 1
        slope = derivative_at_zero(lambda e: fom_lower_bound(n, rounds, e))
        optima = branch_optima(n, rounds)
        analytic = -(n - 2) * (optima[0].value - optima[1].value)
        assert abs(slope - analytic) < 1e-3 * abs(analytic)

    def test_ratio_consistency_with_finite_differences(self):
        for n in (4, 6):
            ratio = advantage_ratio(n, 1)
            fd = derivative_at_zero(lambda e: fom_lower_bound(n, 1, e)) / (
                derivative_at_zero(lambda e: ghz_benchmark(n, e))
            )
            assert abs(ratio - fd) < 1e-3 * abs(ratio)

    def test_ratio_positive_and_shrinking(self):
        ratios = [advantage_ratio(n, 1) for n in (4, 6, 8)]
        assert all(r > 0 for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_step_validation(self):
        with pytest.raises(ValueError):
            derivative_at_zero(lambda e: e, h=0.0)


class TestMultiRound:
    def test_second_round_dominates_first(self):
        grid = default_grid(26)
        single = build_curve("w", 4, 1, grid)
        double = build_curve("w", 4, 2, grid)
        assert np.all(double.values - single.values >= -1e-9)
