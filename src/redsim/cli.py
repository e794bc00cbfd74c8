"""Command-line front end emitting plot-ready TSV data files and reports.

Exit codes: 0 success, 1 argument error, 2 i/o error, 3 analytic no-result
(for example, curves that never cross).  Output files are written to a
temporary name and renamed on success, so failed runs never leave partial
files behind; they get the mode the process umask gives a new file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import analysis, locc, lossy, oracle, resources
from ._threads import thread_budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NO_RESULT = 3


class UsageError(Exception):
    pass


class NoResultError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fmt(value) -> str:
    return format(float(value), ".12g")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".redsim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _grid(args) -> np.ndarray:
    return analysis.default_grid(args.points, args.eps_start, args.eps_stop)


def _curve_for(args, resource: str) -> analysis.Curve:
    return analysis.build_curve(resource, args.n, args.rounds, _grid(args), args.mode)


def _add_grid_flags(parser) -> None:
    parser.add_argument("--eps-start", type=float, default=0.0, help="first grid point")
    parser.add_argument("--eps-stop", type=float, default=1.0, help="last grid point")
    parser.add_argument("--points", type=int, default=analysis.DEFAULT_GRID_POINTS,
                        help=f"number of grid points (default {analysis.DEFAULT_GRID_POINTS}, "
                        f"at most {analysis.MAX_GRID_POINTS})")


def build_parser() -> _Parser:
    parser = _Parser(prog="redsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="expected-entanglement curve as two-column TSV")
    curve.add_argument("--resource", required=True, choices=analysis.RESOURCES)
    curve.add_argument("--n", type=int, required=True, help="network size")
    curve.add_argument("--rounds", type=int, default=1, help="measurement rounds (W resource)")
    curve.add_argument("--mode", choices=lossy.BENCHMARK_MODES, default=None,
                       help="two-centered benchmark mode (default robust)")
    curve.add_argument("--kappa", type=float, default=None,
                       help="fixed measurement strength instead of per-loss optimization")
    _add_grid_flags(curve)
    curve.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    thresh = sub.add_parser("threshold", help="loss probability where one curve overtakes another")
    thresh.add_argument("--a", default="w", choices=analysis.RESOURCES, help="rising resource")
    thresh.add_argument("--b", default="twocentered", choices=analysis.RESOURCES,
                        help="reference resource")
    thresh.add_argument("--n", type=int, required=True)
    thresh.add_argument("--rounds", type=int, default=1)
    thresh.add_argument("--mode", choices=lossy.BENCHMARK_MODES, default="robust")
    _add_grid_flags(thresh)
    thresh.add_argument("--json", action="store_true", help="machine-readable report")

    markov = sub.add_parser("markov", help="per-round transition matrix of the lossless chain")
    markov.add_argument("--n", type=int, required=True)
    markov.add_argument("--kappa", type=float, required=True)
    markov.add_argument("--steps", type=int, default=None,
                        help="also print the start-state distribution after this many rounds")
    markov.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    mc = sub.add_parser("mc", help="seeded Monte Carlo check of the deterministic pipeline")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--rounds", type=int, default=1)
    mc.add_argument("--eps", type=float, required=True)
    mc.add_argument("--kappa", type=float, default=None,
                    help="fixed strength (default: per-loss optima)")
    mc.add_argument("--samples", type=int, default=100_000)
    mc.add_argument("--seed", type=int, default=42)
    mc.add_argument("--json", action="store_true")

    adv = sub.add_parser("advantage", help="size sweep: initial slopes, slope ratios, thresholds")
    adv.add_argument("--n-min", type=int, default=4)
    adv.add_argument("--n-max", type=int, default=10)
    adv.add_argument("--rounds", type=int, default=1)
    adv.add_argument("--vs", default="twocentered", choices=("ghz", "twocentered"),
                     help="benchmark for the threshold column")
    adv.add_argument("--mode", choices=lossy.BENCHMARK_MODES, default="robust")
    adv.add_argument("--json", action="store_true")

    graph = sub.add_parser("graph", help="build or inspect resource graphs (edge-list format)")
    graph.add_argument("--n", type=int, default=None)
    graph.add_argument("--kind", choices=("twocentered", "star"), default="twocentered")
    graph.add_argument("--eps", type=float, default=None,
                       help="also summarize leaf-loss patterns at this loss probability")
    graph.add_argument("--from-file", default=None, help="inspect an existing edge-list file")
    graph.add_argument("-o", "--output", default=None, help="edge-list output path")

    return parser


def cmd_curve(args) -> int:
    if args.kappa is not None and args.resource != "w":
        raise UsageError("--kappa applies only to --resource w")
    if args.mode is not None and args.resource != "twocentered":
        raise UsageError("--mode applies only to --resource twocentered")
    if args.mode is None:
        args.mode = "robust"
    if args.resource == "w":
        if args.kappa is not None:
            if not 0.0 <= args.kappa <= 1.0:
                raise UsageError(f"--kappa must be in [0, 1], got {args.kappa}")
            grid = _grid(args)
            values = analysis.fom_fixed_kappa(args.n, args.rounds, grid, args.kappa)
            curve = analysis.Curve(grid, values, "w", args.n, args.rounds)
        else:
            curve = _curve_for(args, "w")
            for lost, res in enumerate(analysis.branch_optima(args.n, args.rounds)):
                print(
                    f"lost={lost} kappa_star={res.kappa:.6g} value={res.value:.6g}",
                    file=sys.stderr,
                )
    else:
        curve = _curve_for(args, args.resource)
    _write_text(args.output, curve.to_tsv())
    return EXIT_OK


def cmd_threshold(args) -> int:
    curve_a = _curve_for(args, args.a)
    curve_b = _curve_for(args, args.b)
    eps0 = analysis.threshold(curve_a, curve_b)
    if eps0 is None:
        raise NoResultError(
            f"no threshold: the {args.a} curve never overtakes the {args.b} curve in (0, 1)"
        )
    value_a = float(np.interp(eps0, curve_a.grid, curve_a.values))
    value_b = float(np.interp(eps0, curve_b.grid, curve_b.values))
    if args.json:
        print(json.dumps({
            "epsilon0": eps0,
            "resource_a": curve_a.resource,
            "resource_b": curve_b.resource,
            "n": args.n,
            "rounds": args.rounds,
            "value_a": value_a,
            "value_b": value_b,
        }, sort_keys=True))
    else:
        print(f"threshold epsilon0 = {eps0:.6f}")
        print(f"{curve_a.resource} value at crossing = {_fmt(value_a)}")
        print(f"{curve_b.resource} value at crossing = {_fmt(value_b)}")
    return EXIT_OK


def cmd_markov(args) -> int:
    tm = locc.build_transition_matrix(args.n, args.kappa)
    _write_text(args.output, tm.to_tsv())
    if args.steps is not None:
        start = f"W{args.n}"
        dist = locc.r_step_distribution(tm, start, args.steps)
        print(
            f"{start} after {args.steps} rounds\t"
            + "\t".join(_fmt(v) for v in dist)
        )
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = oracle.McConfig(
        n_parties=args.n,
        rounds=args.rounds,
        eps=args.eps,
        samples=args.samples,
        seed=args.seed,
        kappa=args.kappa,
    )
    estimate = oracle.mc_estimate(cfg)
    reference = oracle.deterministic_value(cfg)
    gap = abs(estimate.mean - reference)
    within = gap <= 3.0 * estimate.standard_error + 1e-12
    if args.json:
        print(json.dumps({
            "mean": estimate.mean,
            "standard_error": estimate.standard_error,
            "samples": estimate.samples,
            "seed": cfg.seed,
            "reference": reference,
            "within_3se": within,
            "backend": oracle.BACKEND,
        }, sort_keys=True))
    else:
        print("mean\tstderr\tsamples\tseed")
        print(f"{_fmt(estimate.mean)}\t{_fmt(estimate.standard_error)}"
              f"\t{estimate.samples}\t{cfg.seed}")
        print(f"reference\t{_fmt(reference)}")
        print(f"within_3se\t{'pass' if within else 'fail'}")
    return EXIT_OK


def cmd_advantage(args) -> int:
    if not 4 <= args.n_min <= args.n_max <= 12:
        raise UsageError(f"need 4 <= n-min <= n-max <= 12, got [{args.n_min}, {args.n_max}]")
    grid = analysis.default_grid()
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        ghz_slope = float(2 - n)  # d/de (1 - e)^(n - 2) at e = 0
        ratio = analysis.advantage_ratio(n, args.rounds)
        curve_w = analysis.build_curve("w", n, args.rounds, grid)
        curve_ref = analysis.build_curve(args.vs, n, args.rounds, grid, args.mode)
        eps0 = analysis.threshold(curve_w, curve_ref)
        rows.append({"n": n, "ghz_slope": ghz_slope, "ratio": ratio, "threshold": eps0})
    ratio_ok = all(rows[k]["ratio"] > rows[k + 1]["ratio"] for k in range(len(rows) - 1))
    found = [r["threshold"] for r in rows if r["threshold"] is not None]
    threshold_ok = len(found) == len(rows) and all(
        found[k] > found[k + 1] for k in range(len(found) - 1)
    )
    if args.json:
        print(json.dumps({
            "rounds": args.rounds,
            "benchmark": args.vs,
            "rows": rows,
            "ratio_decreasing": ratio_ok,
            "threshold_decreasing": threshold_ok,
        }, sort_keys=True))
        return EXIT_OK
    print("n\tghz_slope\tratio\tthreshold")
    for row in rows:
        eps0 = "-" if row["threshold"] is None else f"{row['threshold']:.6f}"
        print(f"{row['n']}\t{_fmt(row['ghz_slope'])}\t{_fmt(row['ratio'])}\t{eps0}")
    print(f"ratio trend: {'decreasing' if ratio_ok else 'VIOLATED'}")
    print(f"threshold trend: {'decreasing' if threshold_ok else 'VIOLATED'}")
    return EXIT_OK


def cmd_graph(args) -> int:
    if args.from_file is not None:
        with open(args.from_file, "r", encoding="utf-8") as handle:
            graph = resources.graph_from_edge_list(handle.read())
        print(f"vertices\t{graph.n}")
        print(f"edges\t{len(graph.edges)}")
        for a, b in sorted(graph.edges):
            print(f"{a} {b}")
        return EXIT_OK
    if args.n is None:
        raise UsageError("graph construction needs --n")
    if args.kind == "star":
        graph = resources.Graph(args.n, [(0, v) for v in range(1, args.n)])
        layout = None
    else:
        graph, layout = resources.two_centered_graph(args.n)
    _write_text(args.output, resources.edge_list_text(graph))
    if args.eps is not None:
        if layout is None:
            raise UsageError("loss-pattern summaries need --kind twocentered")
        patterns = lossy.enumerate_loss_patterns(layout, args.eps)
        recoverable = sum(p.probability for p in patterns if p.recoverable)
        closed = lossy.two_centered_benchmark(args.n, args.eps, "robust")
        print(f"patterns\t{len(patterns)}")
        print(f"recoverable_patterns\t{sum(1 for p in patterns if p.recoverable)}")
        print(f"recoverable_probability\t{_fmt(recoverable)}")
        print(f"closed_form\t{_fmt(closed)}")
    return EXIT_OK


_COMMANDS = {
    "curve": cmd_curve,
    "threshold": cmd_threshold,
    "markov": cmd_markov,
    "mc": cmd_mc,
    "advantage": cmd_advantage,
    "graph": cmd_graph,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        thread_budget()  # validate REDSIM_THREADS before any computation
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoResultError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NO_RESULT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
