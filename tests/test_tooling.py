"""The names the benchmark's tracer and job runner look up in redsim.

``perfbench/tracer.py`` wraps functions by module and name, and
``perfbench/job.py`` reads the thread budget, so removing or renaming any of
them would break traced benchmark runs (``run.py --trace 1``).  A traced CLI
run must also pass the cross-check that ``run.py`` makes on its spans.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from redsim import _threads, analysis, cli, oracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve():
    tracer = load_tracer()
    missing = [
        f"redsim.{layer}.{name}"
        for layer, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"redsim.{layer}"), name, None))
    ]
    assert missing == []


def test_kernel_entry_points_resolve():
    tracer = load_tracer()
    for name in tracer.KERNEL:
        assert callable(getattr(oracle._backend, name, None)), name


def test_branch_optima_reports_cache_misses():
    # Tracer.dump reads the miss count off the cached function.
    assert analysis.branch_optima.cache_info().misses >= 0


def test_thread_budget_resolves(monkeypatch):
    monkeypatch.delenv(_threads.ENV_VAR, raising=False)
    assert _threads.thread_budget() == 1


def test_traced_cli_run_passes_the_optimizer_cross_check(capsys):
    # run.py --trace 1 requires every optimize_kappa evaluation to be an
    # avg_entanglement call made inside it.
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    saved = [
        (module, dict(vars(module)))
        for name, module in list(sys.modules.items())
        if name == "redsim" or name.startswith("redsim.")
    ]
    analysis.branch_optima.cache_clear()
    try:
        tracer.install()
        assert cli.main(["curve", "--resource", "w", "--n", "6", "--rounds", "2", "--points", "5"]) == 0
        assert cli.main(["mc", "--n", "5", "--eps", "0.3", "--samples", "2000", "--seed", "7"]) == 0
    finally:
        for module, attrs in saved:  # undo the tracer's rebinding
            for attr, value in attrs.items():
                if vars(module).get(attr) is not value:
                    setattr(module, attr, value)
    capsys.readouterr()
    layers = tracer_module.summarize(tracer.spans, tracer.counts, tracer.kernel_calls)
    assert layers["analysis.branch_optima.calls"] >= 2
    assert layers["oracle.mc_estimate.samples"] == 2000
    assert layers.get("analysis.optimize_kappa.evaluations", 0) == layers.get(
        "analysis.avg_entanglement.in_optimizer", 0
    )
