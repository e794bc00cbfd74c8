"""Spans and counters recorded around redsim's public functions.

``Tracer.install`` replaces module attributes of the redsim layers with
wrappers, and rebinds every other redsim name that refers to the same
function object (``analysis.run_rounds`` imported from ``locc``, the package
re-exports, ...), so calls between modules are traced as well.  Nothing in
``src/`` changes.  Spans (id, parent id, name, start, end) and counts stay in
memory until ``dump`` writes them out.

Hot inner helpers (``locc.evolve_branch``, the class weights,
``analysis.branch_concurrence``) are left unwrapped: they run millions of
times per job, and their time shows up as self time of ``locc.run_rounds``
and ``analysis.avg_entanglement``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter

LAYERS = {
    "cli": ("main",),
    "analysis": (
        "branch_optima",
        "optimize_kappa",
        "avg_entanglement",
        "fom_lower_bound",
        "fom_fixed_kappa",
        "build_curve",
        "threshold",
        "derivative_at_zero",
        "advantage_ratio",
    ),
    "locc": ("run_rounds", "build_transition_matrix", "r_step_distribution", "sp_kraus"),
    "lossy": (
        "loss_weight",
        "w_loss_ensemble",
        "w_branch",
        "ghz_benchmark",
        "two_centered_leaf_split",
        "two_centered_benchmark",
        "enumerate_loss_patterns",
        "post_loss_state",
    ),
    "oracle": ("mc_estimate", "deterministic_value", "mc_class_histogram"),
    "qcore": ("tensor", "partial_trace", "apply_kraus", "apply_op", "concurrence", "fidelity"),
    "resources": (
        "w_state",
        "ghz_state",
        "graph_state",
        "two_centered_graph",
        "w_sigma",
        "edge_list_text",
        "graph_from_edge_list",
    ),
}

# Sampling-kernel entry points, looked up on ``oracle._backend`` at call time.
KERNEL = ("mc_accumulate", "class_counts")
KERNEL_SPAN = "oracle.kernel"


def _nbytes(obj) -> int:
    """Bytes held by the dense operands of a qcore call (kets, operators)."""
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    for attr in ("amplitudes", "matrix"):
        data = getattr(obj, attr, None)
        if data is not None and hasattr(data, "nbytes"):
            return int(data.nbytes)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.originals: dict[str, object] = {}
        self.kernel_calls: list[tuple[int, int]] = []  # (parent span, samples)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_return=None):
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # Kernel blocks run in worker threads: their parent is the span
            # the main thread is in (oracle.mc_estimate).
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if on_return is not None:
                on_return(args, result, parent)
            return result

        return traced

    def _hook(self, name: str):
        counts = self.counts
        if name == "analysis.optimize_kappa":
            def hook(args, result, parent):
                counts["analysis.optimize_kappa.evaluations"] += result.evaluations
            return hook
        if name.startswith("qcore."):
            def hook(args, result, parent):
                counts["qcore.bytes_computed"] += _nbytes(args) + _nbytes(result)
            return hook
        return None

    def install(self) -> None:
        """Wrap the layer functions of an imported redsim package."""
        import redsim.cli  # noqa: F401  (imports every layer)

        modules = [m for key, m in list(sys.modules.items()) if key == "redsim" or key.startswith("redsim.")]
        replace: dict[int, object] = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"redsim.{layer}"]
            for attr in names:
                original = getattr(module, attr)
                name = f"{layer}.{attr}"
                self.originals[name] = original
                replace[id(original)] = self.wrap(name, original, self._hook(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None and callable(value):
                    setattr(module, attr, wrapped)

        backend = sys.modules["redsim.oracle"]._backend
        kernel_calls = self.kernel_calls

        def kernel_hook(args, result, parent):
            kernel_calls.append((parent, args[2]))

        for attr in KERNEL:
            setattr(backend, attr, self.wrap(KERNEL_SPAN, getattr(backend, attr), kernel_hook))

    def dump(self, path: str, **extra) -> None:
        optima = self.originals.get("analysis.branch_optima")
        if optima is not None:
            self.counts["analysis.branch_optima.misses"] = optima.cache_info().misses
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "kernel_calls": self.kernel_calls, **extra}, handle)


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(spans, counts, kernel_calls) -> dict:
    """Per-name call counts and self times of one job's spans, plus counts.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Kernel time is the union of the kernel spans, i.e. the time
    at least one kernel block was running.  Two totals are derived from the
    span tree for cross-checks: the ``avg_entanglement`` calls made inside
    ``optimize_kappa`` and the kernel samples drawn inside ``mc_estimate``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    for sid, parent, name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
        parent_of[sid] = parent
        name_of[sid] = name
    out: Counter = Counter(counts)
    kernel = []
    for sid, parent, name, start, end in spans:
        covered = _union(
            (max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ()) if hi > start and lo < end
        )
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += (end - start) - covered
        out[f"{name.split('.')[0]}.s"] += (end - start) - covered
        if name == KERNEL_SPAN:
            kernel.append((start, end))
        if name == "analysis.avg_entanglement":
            up = parent
            while up:
                if name_of.get(up) == "analysis.optimize_kappa":
                    out["analysis.avg_entanglement.in_optimizer"] += 1
                    break
                up = parent_of.get(up, 0)
    out["oracle.kernel_s"] += _union(kernel)
    for parent, samples in kernel_calls:
        out["oracle.kernel_samples"] += samples
        if name_of.get(parent) == "oracle.mc_estimate":
            out["oracle.mc_estimate.samples"] += samples
    return dict(out)
