"""Randomized invariants: the chain score against the per-branch reference,
binomial rows over an array of strengths against one strength at a time,
stochastic chain rows, normalized class weights, the sampling kernel against
its scalar reference, the dense partial trace and W survivor states against
their reference constructions, and the shape of every curve."""

import itertools
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_sampler
import trace_reference
from redsim import _sampler_py
from redsim.analysis import avg_entanglement, branch_concurrence, build_curve
from redsim.locc import (
    BranchState,
    _binomial_row,
    _binomial_rows,
    build_transition_matrix,
    evolve_branch,
    run_rounds,
    vac_class_weight,
    w_class_weight,
)
from redsim.lossy import BENCHMARK_MODES, w_branch
from redsim.qcore import DensityOperator, partial_trace
from redsim.resources import w_sigma, w_state

kappas = st.floats(0.0, 1.0)
unit_ends = st.sampled_from((0.0, 1.0)) | kappas
seeds = st.sampled_from((0, (1 << 64) - 1)) | st.integers(0, (1 << 64) - 1)
# A few samples, or just past one lane chunk of the vectorized kernel.
sample_counts = st.integers(1, 64) | st.integers(
    _sampler_py._LANES - 2, _sampler_py._LANES + 64
)


@st.composite
def survivor_branches(draw):
    n = draw(st.integers(3, 12))
    return w_branch(n, draw(st.integers(0, n - 2)))


@settings(max_examples=300, deadline=None)
@given(survivor_branches(), kappas, st.integers(1, 20))
def test_chain_score_matches_branch_reference(start, kappa, rounds):
    reference = sum(
        t.prob * branch_concurrence(t.branch) for t in run_rounds(start, kappa, rounds)
    )
    assert abs(avg_entanglement(start, kappa, rounds) - reference) < 1e-12


@settings(deadline=None)
@given(st.integers(0, 40), st.lists(unit_ends, min_size=1, max_size=8))
def test_binomial_rows_over_strengths_match_one_at_a_time(k_max, strengths):
    stacked = list(_binomial_rows(k_max, np.array(strengths)))
    assert len(stacked) == k_max + 1
    for i, kappa in enumerate(strengths):
        alone = list(_binomial_rows(k_max, kappa))
        assert [row[i].tolist() for row in stacked] == [row.tolist() for row in alone]
        assert _binomial_row(k_max, kappa).tolist() == alone[-1].tolist()


@settings(deadline=None)
@given(st.integers(3, 200), kappas)
def test_chain_rows_are_stochastic(n, kappa):
    matrix = build_transition_matrix(n, kappa).matrix
    assert np.all(matrix >= 0.0)
    assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) < 1e-12


@settings(deadline=None)
@given(st.integers(1, 40), kappas)
def test_class_weights_sum_to_one(m, kappa):
    w_total = math.fsum(w_class_weight(m, j, kappa) for j in range(1, m + 1))
    vac_total = math.fsum(vac_class_weight(m, j, kappa) for j in range(m + 1))
    assert abs(w_total - 1.0) < 1e-12
    assert abs(vac_total - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(2, 1100), kappas)
def test_class_weights_of_large_rounds_sum_to_one(data, m, kappa):
    # evolve_branch reads the same table as the class-weight functions, so
    # one round of a pure component sums a whole family of class weights.
    w_classes = evolve_branch(BranchState(m, 1.0, 0.0), kappa)
    vac_classes = evolve_branch(BranchState(m, 0.0, 1.0), kappa)
    assert abs(math.fsum(c.prob for c in w_classes) - 1.0) < 1e-12
    assert abs(math.fsum(c.prob for c in vac_classes) - 1.0) < 1e-12
    j = data.draw(st.integers(1, m))
    w_mass = {c.j: c.prob for c in w_classes}.get(j, 0.0)
    assert w_mass == w_class_weight(m, j, kappa)


@st.composite
def kernel_runs(draw):
    n = draw(st.integers(3, 12))
    return (
        draw(seeds),
        draw(st.integers(0, 1 << 40)),
        draw(sample_counts),
        n,
        draw(st.integers(1, 20)),
        draw(unit_ends),
        draw(st.lists(unit_ends, min_size=n - 1, max_size=n - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(kernel_runs())
def test_sampling_kernel_matches_scalar_reference(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast = _sampler_py.mc_accumulate(*args)
    assert fast == scalar_sampler.mc_accumulate(*args)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(0, 1 << 40), sample_counts, st.integers(1, 12), unit_ends)
def test_class_counts_match_scalar_reference(seed, start, count, m, kappa):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast = _sampler_py.class_counts(seed, start, count, m, kappa)
    assert fast == scalar_sampler.class_counts(seed, start, count, m, kappa)


@st.composite
def traced_states(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, (1 << 32) - 1)))
    dim = 1 << n
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    keep = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return DensityOperator(mat / np.trace(mat)), keep


@settings(deadline=None)
@given(traced_states())
def test_partial_trace_matches_sequential_reference(case):
    rho, keep = case
    fast = partial_trace(rho, keep).matrix
    reference = trace_reference.partial_trace(rho, keep).matrix
    assert fast.shape == reference.shape
    assert np.max(np.abs(fast - reference)) <= 1e-14


@settings(deadline=None)
@given(st.integers(2, 10))
def test_w_pair_reductions_match_reference_exactly(n):
    rho = w_state(n).density()
    for pair in itertools.combinations(range(n), 2):
        fast = partial_trace(rho, pair).matrix
        assert np.array_equal(fast, trace_reference.partial_trace(rho, pair).matrix)


@settings(deadline=None)
@given(st.integers(2, 10))
def test_w_sigma_matches_outer_product_exactly(n):
    for lost in range(n - 1):
        fast = w_sigma(n, lost).matrix
        assert fast.tobytes() == trace_reference.w_sigma(n, lost).matrix.tobytes()


@st.composite
def curve_specs(draw):
    resource = draw(st.sampled_from(("w", "ghz", "twocentered")))
    mode = draw(st.sampled_from(BENCHMARK_MODES))
    low = 4 if resource == "twocentered" else 3
    n = draw(st.integers(low, 12))
    rounds = draw(st.integers(1, 20))
    points = draw(st.lists(unit_ends, min_size=2, max_size=12, unique=True))
    return resource, n, rounds, sorted(points), mode


@settings(max_examples=60, deadline=None)
@given(curve_specs())
def test_curves_stay_in_unit_interval_and_never_rise(spec):
    values = build_curve(*spec).values
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert np.all(np.diff(values) <= 1e-12)
