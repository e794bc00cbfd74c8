"""The names the benchmark's tracer and job runner look up in redsim.

``perfbench/tracer.py`` wraps functions by module and name, and
``perfbench/job.py`` reads the thread budget, so removing or renaming any of
them would break traced benchmark runs (``run.py --trace 1``).
"""

import importlib
import importlib.util
from pathlib import Path

from redsim import _threads, analysis, oracle

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
