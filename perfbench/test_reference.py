"""Tests of the benchmark's reference and of its output checks.

    python3 -m pytest perfbench -q

The reference is checked against optima derived by hand; the checks are
shown to accept outputs built from the reference and to reject outputs moved
by a small amount.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import reference as R
import tracer
import workloads


def test_three_party_single_round_optimum():
    # f(k) = (2/3)(1-k)^2 + 2k(1-k) peaks at k = 1/4 with value 3/4.
    kappa, value = R.optimum(3, 0, 1)
    assert kappa == pytest.approx(0.25, abs=1e-7)
    assert value == pytest.approx(0.75, abs=1e-12)


def test_four_party_single_round_optimum():
    # f(k) = (1-k)^3 / 2 + 2k(1-k)^2 + 3k^2(1-k), stationary at (1 + sqrt 10) / 9.
    star = (1.0 + math.sqrt(10.0)) / 9.0
    kappa, value = R.optimum(4, 0, 1)
    hand = 0.5 * (1 - star) ** 3 + 2 * star * (1 - star) ** 2 + 3 * star**2 * (1 - star)
    assert kappa == pytest.approx(star, abs=1e-6)
    assert value == pytest.approx(hand, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_class_weights_are_distributions(m):
    kappas = np.linspace(0.0, 1.0, 11)
    assert np.allclose(R.w_class_weights(m, kappas).sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(R.vac_class_weights(m, kappas).sum(axis=1), 1.0, atol=1e-14)


def test_absorbed_pair_keeps_its_concurrence():
    # Losing every helper but the two targets leaves 2/n, whatever the strength.
    assert np.allclose(R.branch_values(7, 5, [0.0, 0.4, 1.0], 3), 2.0 / 7.0, atol=1e-15)


def test_markov_chain_is_stochastic():
    matrix = R.markov_matrix(9, 0.37)
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(R.markov_row(9, 0.37, 4), np.linalg.matrix_power(matrix, 4)[0], atol=1e-14)


@pytest.mark.parametrize("n", [4, 7, 12])
def test_two_centered_enumeration_counts(n):
    side_a, side_b = (n - 1) // 2, (n - 2) // 2
    closed = [math.comb(side_a, k) + math.comb(side_b, k) - (k == 0) for k in range(n - 1)]
    assert list(R._two_centered_counts(n, "robust")) == closed
    assert list(R._two_centered_counts(n, "strict")) == [1] + [0] * (n - 2)


def test_exact_w_ghz_crossing():
    crossing = R.crossing(lambda x: R.w_curve(11, 1, x) - R.ghz_curve(11, x), 0.0, 1.0)
    assert crossing == pytest.approx(0.056157, abs=5e-7)


def _curve_output(n, rounds, grid):
    eps = np.linspace(*grid)
    values = R.w_curve(n, rounds, eps)
    stdout = "".join(f"{e:.12g}\t{v:.12g}\n" for e, v in zip(eps, values))
    stderr = "".join(
        f"lost={lost} kappa_star={R.optimum(n, lost, rounds)[0]:.6g} "
        f"value={R.optimum(n, lost, rounds)[1]:.6g}\n"
        for lost in range(n - 1)
    )
    return stdout, stderr


def test_curve_check_rejects_a_small_perturbation():
    job = workloads.curve_job("w", 6, 2, (0.0, 1.0, 21))
    stdout, stderr = _curve_output(6, 2, (0.0, 1.0, 21))
    assert job.check(stdout, stderr)[0] == []
    lines = stdout.splitlines()
    eps, value = lines[7].split("\t")
    lines[7] = f"{eps}\t{float(value) + 1e-6:.12g}"
    assert job.check("\n".join(lines) + "\n", stderr)[0]


def test_curve_check_rejects_a_suboptimal_strength():
    job = workloads.curve_job("w", 6, 2, (0.0, 1.0, 21))
    stdout, stderr = _curve_output(6, 2, (0.0, 1.0, 21))
    kappa = R.optimum(6, 0, 2)[0]
    worse = stderr.replace(f"kappa_star={kappa:.6g}", f"kappa_star={kappa + 0.05:.6g}", 1)
    assert job.check(stdout, worse)[0]


def test_curve_check_rejects_a_rising_curve():
    job = workloads.curve_job("ghz", 5, 1, (0.0, 1.0, 11))
    eps = np.linspace(0.0, 1.0, 11)
    values = R.ghz_curve(5, eps)
    values[4] = values[3] + 1e-6
    stdout = "".join(f"{e:.12g}\t{v:.12g}\n" for e, v in zip(eps, values))
    assert job.check(stdout, "")[0]


def _mc_output(job_args, shift_in_se):
    n, rounds, eps, samples, seed = job_args
    exact = float(R.w_curve(n, rounds, eps)[0])
    se = 1e-3
    return json.dumps({"mean": exact + shift_in_se * se, "standard_error": se, "samples": samples,
                       "seed": seed, "reference": exact, "within_3se": True, "backend": "python"})


def test_mc_check_rejects_a_mean_several_standard_errors_away():
    args = (8, 3, 0.2, 1000, 7)
    job = workloads.mc_job(*args)
    assert job.check(_mc_output(args, 1.0), "")[0] == []
    assert job.check(_mc_output(args, -4.9), "")[0] == []
    assert job.check(_mc_output(args, 6.0), "")[0]
    assert job.check(_mc_output(args, -6.0), "")[0]


def test_threshold_check_uses_the_interpolation_bound():
    job = workloads.threshold_job("w", "ghz", 11, 1, (0.0, 1.0, 101))
    problems, facts = job.check(json.dumps({"epsilon0": 0.056265}), "")
    assert problems == [] and facts["distance"] < facts["bound"]
    far = facts["exact"] + 2.0 * facts["bound"]
    assert job.check(json.dumps({"epsilon0": far}), "")[0]


def test_markov_check_rejects_a_wrong_entry():
    n, kappa, steps = 5, 0.3, 4
    job = workloads.markov_job(n, kappa, steps)
    labels = [f"W{m}" for m in range(n, 2, -1)] + ["Bell", "sep"]
    matrix = R.markov_matrix(n, kappa)
    row = R.markov_row(n, kappa, steps)

    def render(mat):
        lines = ["state\t" + "\t".join(labels)]
        lines += [lab + "\t" + "\t".join(f"{v:.12g}" for v in r) for lab, r in zip(labels, mat)]
        lines.append(f"W{n} after {steps} rounds\t" + "\t".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"

    assert job.check(render(matrix), "")[0] == []
    bad = matrix.copy()
    bad[0, 0] += 1e-8
    bad[0, 1] -= 1e-8
    assert job.check(render(bad), "")[0]


def test_dense_check_rejects_a_mismatch():
    job = workloads.dense_kraus_job(4, [0.3])
    rows = [{"lost": lost, "kappa": 0.3, "dense": v, "branch": v, "weight_sum": 1.0}
            for lost in range(3) for v in [float(R.branch_values(4, lost, [0.3], 1)[0])]]
    assert job.check(json.dumps(rows), "")[0] == []
    rows[1]["dense"] += 1e-8
    assert job.check(json.dumps(rows), "")[0]


def test_self_time_subtracts_covered_child_time():
    spans = [
        (1, 0, "oracle.mc_estimate", 0.0, 10.0),
        (2, 1, "oracle.kernel", 1.0, 5.0),
        (3, 1, "oracle.kernel", 2.0, 6.0),  # overlaps the first block
        (4, 0, "analysis.optimize_kappa", 20.0, 30.0),
        (5, 4, "analysis.avg_entanglement", 21.0, 22.0),
    ]
    out = tracer.summarize(spans, {}, [(1, 100), (1, 50)])
    assert out["oracle.mc_estimate.s"] == pytest.approx(5.0)
    assert out["oracle.kernel_s"] == pytest.approx(5.0)
    assert out["oracle.kernel.s"] == pytest.approx(8.0)
    assert out["analysis.optimize_kappa.s"] == pytest.approx(9.0)
    assert out["analysis.avg_entanglement.in_optimizer"] == 1
    assert out["oracle.mc_estimate.samples"] == 150
