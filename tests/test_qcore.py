import itertools
import math
import tracemalloc

import numpy as np
import pytest

from redsim.qcore import (
    DensityOperator,
    Ket,
    LinearOp,
    apply_kraus,
    apply_op,
    concurrence,
    fidelity,
    partial_trace,
    tensor,
)
from redsim.locc import sp_kraus
from redsim.resources import ghz_state, w_sigma, w_state

PSI_PLUS = Ket(np.array([0, 1, 1, 0]) / math.sqrt(2))
PHI_PLUS = Ket(np.array([1, 0, 0, 1]) / math.sqrt(2))


def random_density(rng, n_qubits):
    dim = 1 << n_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityOperator(mat / np.trace(mat))


def random_unitary(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_physical(rho):
    assert rho.hermiticity_error() < 1e-10
    assert abs(rho.trace() - 1.0) < 1e-10
    assert rho.min_eigenvalue() > -1e-9


class TestConstructors:
    def test_ket_requires_power_of_two(self):
        with pytest.raises(ValueError):
            Ket([1.0, 0.0, 0.0])

    def test_ket_normalize(self):
        ket = Ket([3.0, 4.0], normalize=True)
        assert abs(ket.norm() - 1.0) < 1e-12

    def test_ket_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            Ket([0.0, 0.0], normalize=True)

    def test_density_must_be_square(self):
        with pytest.raises(ValueError):
            DensityOperator(np.zeros((2, 4)))

    def test_density_copies_caller_data(self):
        mat = np.eye(4, dtype=np.complex128) / 4
        rho = DensityOperator(mat)
        mat[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.25

    def test_adopt_checks_shape_without_copying(self):
        mat = np.eye(4, dtype=np.complex128) / 4
        assert DensityOperator._adopt(mat).matrix is mat
        with pytest.raises(ValueError):
            DensityOperator._adopt(np.zeros((2, 4), dtype=np.complex128))
        with pytest.raises(ValueError):
            DensityOperator._adopt(np.zeros((3, 3), dtype=np.complex128))

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            Ket(np.zeros(1 << 13))

    def test_inputs_are_copied(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        ket = Ket(amps)
        amps[0] = 5.0
        assert ket.amplitudes[0] == 1.0


class TestTensor:
    def test_identity_pair(self):
        eye = LinearOp(np.eye(2))
        out = tensor([eye, eye])
        assert np.allclose(out.matrix, np.eye(4))

    def test_basis_kets(self):
        out = tensor([Ket([1, 0]), Ket([0, 1])])
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_kraus_pair_expansion(self):
        keep, drop = sp_kraus(0.25)
        out = tensor([LinearOp(keep.matrix), LinearOp(drop.matrix)])
        expected = np.diag(
            [math.sqrt(0.75) * math.sqrt(0.25), 0.0, math.sqrt(0.25), 0.0]
        )
        assert np.allclose(out.matrix, expected, atol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            tensor([])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor([Ket([1, 0]), LinearOp(np.eye(2))])


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        reduced = partial_trace(PHI_PLUS.density(), {0})
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_w3_reduction(self):
        # Tracing the first qubit of a three-party W state by hand gives a
        # 1/3 vacuum plus 2/3 symmetric-pair mixture.
        reduced = partial_trace(w_state(3).density(), {1, 2})
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1 / 3
        expected += (2 / 3) * np.outer(PSI_PLUS.amplitudes, PSI_PLUS.amplitudes.conj())
        assert np.allclose(reduced.matrix, expected, atol=1e-12)

    def test_keep_everything_is_identity(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        out = partial_trace(rho, {0, 1, 2})
        assert np.allclose(out.matrix, rho.matrix, atol=0)

    def test_composition(self):
        # Tracing out qubit 0 and then (relabeled) qubit 2 must equal the
        # one-shot trace keeping qubits 1 and 3.
        rng = np.random.default_rng(4)
        rho = random_density(rng, 4)
        once = partial_trace(rho, {1, 3})
        staged = partial_trace(partial_trace(rho, {1, 2, 3}), {0, 2})
        assert np.allclose(once.matrix, staged.matrix, atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(PHI_PLUS.density(), set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(PHI_PLUS.density(), {2})

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4)
        reduced = partial_trace(rho, {0, 2})
        assert_physical(reduced)

    def test_pair_reduction_allocates_no_full_size_temporary(self):
        # numpy reports its buffers to tracemalloc; tracing one qubit at a
        # time peaked at 20 MiB here, the diagonal-view einsum at a few KiB.
        rho = w_sigma(11, 0)
        tracemalloc.start()
        try:
            partial_trace(rho, (3, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestApplyKraus:
    def test_identity(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 2)
        weight, state = apply_kraus(LinearOp(np.eye(4)), rho)
        assert abs(weight - 1.0) < 1e-12
        assert np.allclose(state.matrix, rho.matrix, atol=1e-12)

    def test_annihilated_branch_returns_marker(self):
        _, drop = sp_kraus(0.5)
        op = tensor([LinearOp(drop.matrix)] * 3)
        weight, state = apply_kraus(op, w_state(3).density())
        assert weight == 0.0
        assert state is None

    def test_uniform_keep_on_w3(self):
        keep, _ = sp_kraus(0.25)
        op = tensor([LinearOp(keep.matrix)] * 3)
        weight, state = apply_kraus(op, w_state(3).density())
        assert abs(weight - 0.5625) < 1e-12
        assert np.allclose(state.matrix, w_state(3).density().matrix, atol=1e-12)

    def test_complete_set_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        keep, drop = sp_kraus(0.3)
        mats = {0: LinearOp(keep.matrix), 1: LinearOp(drop.matrix)}
        total = 0.0
        for bits in itertools.product((0, 1), repeat=3):
            weight, state = apply_kraus(tensor([mats[b] for b in bits]), rho)
            total += weight
            if state is not None:
                assert_physical(state)
        assert abs(total - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_kraus(LinearOp(np.eye(2)), PHI_PLUS.density())


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(PSI_PLUS.density()) - 1.0) < 1e-12

    def test_two_thirds_mixture(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1 / 3
        mat += (2 / 3) * np.outer(PSI_PLUS.amplitudes, PSI_PLUS.amplitudes.conj())
        assert abs(concurrence(DensityOperator(mat)) - 2 / 3) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence(DensityOperator(np.eye(4) / 4)) == 0.0

    def test_product_states_have_zero_concurrence(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = random_density(rng, 1)
            b = random_density(rng, 1)
            rho = DensityOperator(np.kron(a.matrix, b.matrix))
            assert concurrence(rho) < 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density(rng, 2)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
            assert abs(concurrence(rho) - concurrence(rotated)) < 1e-9

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            concurrence(DensityOperator(np.eye(8) / 8))

    def test_non_hermitian_rejected(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.5
        with pytest.raises(ValueError):
            concurrence(DensityOperator(mat))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 2)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_states(self):
        zero = Ket([1, 0]).density()
        one = Ket([0, 1]).density()
        assert fidelity(zero, one) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10

    def test_pure_vs_mixed_matches_overlap(self):
        # For a pure state the fidelity is the expectation <psi|rho|psi>,
        # which for these two survivor states is (n-1)/n.
        for n in range(4, 9):
            value = fidelity(w_sigma(n - 1, 0), w_sigma(n, 1))
            assert abs(value - (n - 1) / n) < 1e-10

    def test_survivor_overlap_increases_toward_one(self):
        values = [fidelity(w_sigma(n - 1, 0), w_sigma(n, 1)) for n in range(4, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.89

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(Ket([1, 0]).density(), PHI_PLUS.density())


class TestApplyOp:
    def test_hadamard_on_plus(self):
        h = LinearOp(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        plus = Ket([1, 1], normalize=True)
        out = apply_op(h, plus)
        assert np.allclose(out.amplitudes, [1, 0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_op(LinearOp(np.eye(4)), Ket([1, 0]))


def test_ghz_like_states_are_valid():
    for n in range(2, 7):
        assert_physical(w_state(n).density())
        assert_physical(ghz_state(n).density())
