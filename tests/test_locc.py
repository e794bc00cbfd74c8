import math
import random

import numpy as np
import pytest

from redsim.analysis import branch_concurrence
from redsim.locc import (
    BranchState,
    KrausOperator,
    build_transition_matrix,
    evolve_branch,
    kraus_completeness_check,
    r_step_distribution,
    run_rounds,
    sp_kraus,
    vac_class_weight,
    w_class_weight,
)
from redsim.lossy import w_branch

from dense_engine import single_round_classes


class TestSpKraus:
    def test_noop_limit(self):
        keep, drop = sp_kraus(0.0)
        assert np.allclose(keep.matrix, np.eye(2))
        assert np.allclose(drop.matrix, np.zeros((2, 2)))

    def test_projective_limit(self):
        keep, drop = sp_kraus(1.0)
        assert np.allclose(keep.matrix, np.diag([0.0, 1.0]))
        assert np.allclose(drop.matrix, np.diag([1.0, 0.0]))

    def test_quarter_strength(self):
        keep, _ = sp_kraus(0.25)
        assert np.allclose(keep.matrix, np.diag([math.sqrt(0.75), 1.0]))

    @pytest.mark.parametrize("kappa", [k / 10 for k in range(11)])
    def test_completeness_on_grid(self, kappa):
        result = kraus_completeness_check(sp_kraus(kappa))
        assert result.passed
        assert result.residual < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            sp_kraus(1.5)

    def test_operator_weight_validation(self):
        with pytest.raises(ValueError):
            KrausOperator(1.2, 0.0, 0.0)


class TestCompleteness:
    def test_single_operator_fails_with_known_residual(self):
        keep, _ = sp_kraus(0.3)
        result = kraus_completeness_check([keep])
        assert not result.passed
        # the missing piece is diag(kappa, 0), Frobenius norm kappa
        assert abs(result.residual - 0.3) < 1e-12

    def test_perturbed_pair_fails(self):
        pair = [KrausOperator(0.5, 0.0, 0.5), KrausOperator(0.5, 0.0, 0.4)]
        result = kraus_completeness_check(pair)
        assert not result.passed
        assert abs(result.residual - 0.1) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            kraus_completeness_check([])


class TestClassWeights:
    @pytest.mark.parametrize("kappa", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_all_keep_class(self, kappa):
        assert abs(w_class_weight(3, 3, kappa) - (1 - kappa) ** 2) < 1e-15

    def test_hand_value(self):
        # one party drops out of three: 2 * kappa * (1 - kappa)
        assert abs(w_class_weight(3, 2, 0.25) - 0.375) < 1e-15

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("kappa", [k / 10 for k in range(11)])
    def test_w_weights_sum_to_one(self, m, kappa):
        total = sum(w_class_weight(m, j, kappa) for j in range(1, m + 1))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("m", range(1, 9))
    def test_vac_weights_sum_to_one(self, m):
        for kappa in (0.0, 0.3, 0.7, 1.0):
            total = sum(vac_class_weight(m, j, kappa) for j in range(m + 1))
            assert abs(total - 1.0) < 1e-12

    def test_vac_examples(self):
        assert abs(vac_class_weight(2, 2, 0.25) - 0.5625) < 1e-15
        assert vac_class_weight(4, 4, 0.0) == 1.0
        assert vac_class_weight(4, 2, 0.0) == 0.0

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.83])
    def test_table_matches_closed_forms(self, kappa):
        # The one binomial table against C(m-1, j-1) k^(m-j) (1-k)^(j-1) and
        # C(m, j) k^(m-j) (1-k)^j.
        for m in range(1, 61):
            for j in range(m + 1):
                vac = math.comb(m, j) * kappa ** (m - j) * (1 - kappa) ** j
                assert vac_class_weight(m, j, kappa) == pytest.approx(vac, rel=1e-12, abs=0)
                if j >= 1:
                    w = math.comb(m - 1, j - 1) * kappa ** (m - j) * (1 - kappa) ** (j - 1)
                    assert w_class_weight(m, j, kappa) == pytest.approx(w, rel=1e-12, abs=0)

    def test_large_live_count_is_finite(self):
        weight = w_class_weight(1100, 550, 0.5)
        assert math.isfinite(weight) and 0.0 < weight < 1.0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            w_class_weight(3, 0, 0.5)
        with pytest.raises(ValueError):
            w_class_weight(3, 4, 0.5)
        with pytest.raises(ValueError):
            vac_class_weight(3, -1, 0.5)


class TestBranchState:
    def test_w_component_needs_two_parties(self):
        with pytest.raises(ValueError):
            BranchState(1, 0.5, 0.5)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            BranchState(3, -0.1, 0.5)

    def test_normalized(self):
        branch = BranchState(3, 0.5, 1.5).normalized()
        assert abs(branch.total - 1.0) < 1e-15
        assert abs(branch.w_weight - 0.25) < 1e-15


class TestEvolveBranch:
    def test_pure_w3_quarter_strength(self):
        classes = evolve_branch(BranchState(3, 1.0, 0.0), 0.25)
        assert [c.j for c in classes] == [3, 2, 1]
        probs = {c.j: c.prob for c in classes}
        assert abs(probs[3] - 0.5625) < 1e-12
        assert abs(probs[2] - 0.375) < 1e-12
        assert abs(probs[1] - 0.0625) < 1e-12
        by_j = {c.j: c.branch for c in classes}
        assert by_j[3].w_weight > 0 and by_j[3].vac_weight == 0.0
        assert by_j[2].w_weight > 0
        assert by_j[1].w_weight == 0.0

    def test_separable_branch_stays_separable(self):
        for cls in evolve_branch(BranchState(4, 0.0, 1.0), 0.3):
            assert cls.branch.w_weight == 0.0

    def test_zero_strength_is_identity(self):
        start = BranchState(5, 0.7, 0.3)
        classes = evolve_branch(start, 0.0)
        assert len(classes) == 1
        only = classes[0]
        assert only.j == 5
        assert abs(only.prob - start.total) < 1e-15
        assert abs(only.branch.w_weight - start.w_weight) < 1e-15

    def test_no_all_drop_class_from_pure_w(self):
        classes = evolve_branch(BranchState(4, 1.0, 0.0), 0.6)
        assert all(c.j >= 1 for c in classes)

    @pytest.mark.parametrize("seed", range(5))
    def test_mass_conservation(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 8)
        start = BranchState(m, rng.random(), rng.random())
        kappa = rng.random()
        total = sum(c.prob for c in evolve_branch(start, kappa))
        assert abs(total - start.total) < 1e-12

    def test_dead_branch_rejected(self):
        with pytest.raises(ValueError):
            evolve_branch(BranchState(0, 0.0, 1.0), 0.5)


class TestRunRounds:
    def test_w3_single_round_half_strength(self):
        terminal = run_rounds(BranchState(3, 1.0, 0.0), 0.5, 1)
        by_m = {t.branch.m: t.prob for t in terminal}
        assert abs(by_m[3] - 0.25) < 1e-12
        assert abs(by_m[2] - 0.5) < 1e-12
        assert abs(by_m[1] - 0.25) < 1e-12

    def test_w3_two_rounds_pair_mass(self):
        terminal = run_rounds(BranchState(3, 1.0, 0.0), 0.5, 2)
        pair_mass = sum(t.prob for t in terminal if t.branch.m == 2)
        assert abs(pair_mass - 0.625) < 1e-12

    def test_zero_strength_keeps_branch(self):
        start = BranchState(6, 0.4, 0.6)
        terminal = run_rounds(start, 0.0, 4)
        assert len(terminal) == 1
        assert terminal[0].branch.m == 6
        assert abs(terminal[0].prob - 1.0) < 1e-12

    def test_absorbing_pair_is_untouched(self):
        start = BranchState(2, 0.6, 0.4)
        terminal = run_rounds(start, 0.9, 5)
        assert len(terminal) == 1
        assert terminal[0].prob == 1.0
        assert terminal[0].branch.m == 2

    @pytest.mark.parametrize("rounds", [1, 2, 4, 7])
    def test_total_mass_is_one(self, rounds):
        for lost in (0, 1, 2):
            terminal = run_rounds(w_branch(6, lost), 0.35, rounds)
            assert abs(sum(t.prob for t in terminal) - 1.0) < 1e-10

    def test_round_count_validated(self):
        with pytest.raises(ValueError):
            run_rounds(BranchState(3, 1.0, 0.0), 0.5, 0)


class TestEngineEquivalence:
    @pytest.mark.parametrize("n", [3, 4])
    def test_single_round_matches_dense_engine(self, n):
        for lost in range(n - 1):
            for kappa in (0.0, 0.3, 0.8, 1.0):
                dense = single_round_classes(n, lost, kappa)
                classes = evolve_branch(w_branch(n, lost), kappa)
                got = {
                    c.j: (c.prob, branch_concurrence(c.branch)) for c in classes
                }
                for j in set(dense) | set(got):
                    dense_p, dense_c = dense.get(j, (0.0, None))
                    got_p, got_c = got.get(j, (0.0, 0.0))
                    assert abs(dense_p - got_p) < 1e-10
                    if dense_p > 1e-12 and dense_c is not None:
                        assert abs(dense_c - got_c) < 1e-10


class TestTransitionMatrix:
    def test_three_party_row(self):
        tm = build_transition_matrix(3, 0.5)
        assert tm.labels == ("W3", "Bell", "sep")
        assert np.allclose(tm.matrix[0], [0.25, 0.5, 0.25])

    def test_rows_are_stochastic(self):
        for n in (3, 5, 8):
            for kappa in (0.1, 0.5, 0.9):
                tm = build_transition_matrix(n, kappa)
                assert np.allclose(tm.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_large_chain_rows_are_stochastic(self):
        tm = build_transition_matrix(1100, 0.3)
        assert np.max(np.abs(tm.matrix.sum(axis=1) - 1.0)) < 1e-12

    def test_absorbing_rows_are_unit_vectors(self):
        tm = build_transition_matrix(5, 0.4)
        for label in ("Bell", "sep"):
            row = tm.matrix[tm.index(label)]
            expected = np.zeros(len(tm.labels))
            expected[tm.index(label)] = 1.0
            assert np.array_equal(row, expected)

    def test_too_small_chain_rejected(self):
        with pytest.raises(ValueError):
            build_transition_matrix(2, 0.5)

    def test_zero_steps_is_unit_vector(self):
        tm = build_transition_matrix(4, 0.3)
        dist = r_step_distribution(tm, "W4", 0)
        expected = np.zeros(len(tm.labels))
        expected[0] = 1.0
        assert np.array_equal(dist, expected)

    def test_two_step_distribution_by_hand(self):
        tm = build_transition_matrix(3, 0.5)
        dist = r_step_distribution(tm, "W3", 2)
        assert np.allclose(dist, [0.0625, 0.625, 0.3125], atol=1e-12)

    def test_semigroup_property(self):
        rng = random.Random(21)
        tm = build_transition_matrix(6, 0.37)
        for _ in range(5):
            a, b = rng.randint(0, 6), rng.randint(0, 6)
            lhs = np.linalg.matrix_power(tm.matrix, a) @ np.linalg.matrix_power(
                tm.matrix, b
            )
            rhs = np.linalg.matrix_power(tm.matrix, a + b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unknown_state_rejected(self):
        tm = build_transition_matrix(3, 0.5)
        with pytest.raises(ValueError):
            r_step_distribution(tm, "W9", 1)

    def test_tsv_round_numbers(self):
        text = build_transition_matrix(3, 0.5).to_tsv()
        lines = text.strip().split("\n")
        assert lines[0] == "state\tW3\tBell\tsep"
        assert lines[1] == "W3\t0.25\t0.5\t0.25"

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("rounds", [1, 3, 5])
    def test_chain_matches_run_rounds_marginals(self, n, rounds):
        kappa = 0.45
        tm = build_transition_matrix(n, kappa)
        dist = r_step_distribution(tm, f"W{n}", rounds)
        terminal = run_rounds(BranchState(n, 1.0, 0.0), kappa, rounds)
        by_m = {t.branch.m: t.prob for t in terminal}
        for idx, label in enumerate(tm.labels):
            if label == "Bell":
                got = by_m.get(2, 0.0)
            elif label == "sep":
                got = by_m.get(1, 0.0) + by_m.get(0, 0.0)
            else:
                got = by_m.get(int(label[1:]), 0.0)
            assert abs(dist[idx] - got) < 1e-10
