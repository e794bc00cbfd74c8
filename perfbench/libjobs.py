"""Library-call jobs of the benchmark, each printing one JSON document.

These drive the dense ``qcore`` route and the sampling kernels directly;
the workload checks compare what they print against the branch engine and
the benchmark's reference.
"""

from __future__ import annotations

import itertools
import json

from redsim import analysis, locc, lossy, qcore, resources


def _best_pair(rho) -> float:
    """Largest concurrence over all qubit pairs of a state."""
    m = rho.num_qubits
    if m == 2:
        return qcore.concurrence(rho)
    return max(
        qcore.concurrence(qcore.partial_trace(rho, pair))
        for pair in itertools.combinations(range(m), 2)
    )


def dense_single_round(n: int, lost: int, kappa: float) -> tuple[float, float]:
    """Expected best-pair concurrence after one measurement round, by dense
    Kraus expansion of the survivor state, and the sum of the Kraus weights.

    Every keep/drop string is one tensor-product Kraus operator; dropped
    qubits are traced out before scoring.  Survivor states with at most two
    parties are not measured, as in the branch engine.
    """
    sigma = resources.w_sigma(n, lost)
    m = n - lost
    if m <= 2:
        return qcore.concurrence(sigma), 1.0
    keep, drop = locc.sp_kraus(kappa)
    ops = {0: qcore.LinearOp(keep.matrix), 1: qcore.LinearOp(drop.matrix)}
    expectation = 0.0
    weight_sum = 0.0
    for bits in itertools.product((0, 1), repeat=m):
        weight, post = qcore.apply_kraus(qcore.tensor([ops[b] for b in bits]), sigma)
        weight_sum += weight
        live = [q for q, b in enumerate(bits) if b == 0]
        if post is None or len(live) < 2:
            continue
        expectation += weight * _best_pair(qcore.partial_trace(post, live))
    return expectation, weight_sum


def dense_kraus(n: int, kappas: list[float]) -> list[dict]:
    rows = []
    for lost in range(n - 1):
        for kappa in kappas:
            value, weight_sum = dense_single_round(n, lost, kappa)
            branch = analysis.avg_entanglement(lossy.w_branch(n, lost), kappa, 1)
            rows.append({"lost": lost, "kappa": kappa, "dense": value,
                         "branch": branch, "weight_sum": weight_sum})
    return rows


def w_pairs(n: int) -> list[list]:
    """Concurrence of every qubit pair of an n-qubit W state."""
    rho = resources.w_sigma(n, 0)
    return [
        [a, b, qcore.concurrence(qcore.partial_trace(rho, (a, b)))]
        for a, b in itertools.combinations(range(n), 2)
    ]


def backend_parity(cases: list[dict]) -> dict:
    """Bit-for-bit agreement of the compiled and pure-Python kernels."""
    from redsim import _sampler_py

    try:
        from redsim import _sampler_cy
    except ImportError as exc:
        return {"skipped": f"compiled kernel not importable ({type(exc).__name__})"}
    identical = True
    for case in cases:
        args = (case["seed"], 0, 40_000, case["n"], case["rounds"], case["eps"], case["kappas"])
        identical &= _sampler_py.mc_accumulate(*args) == _sampler_cy.mc_accumulate(*args)
    return {"identical": identical}


JOBS = {"dense_kraus": dense_kraus, "w_pairs": w_pairs, "backend_parity": backend_parity}


def run(name: str, params: dict) -> int:
    print(json.dumps(JOBS[name](**params)))
    return 0
