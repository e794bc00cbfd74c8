"""Run one benchmark job in this (fresh) interpreter.

    python3 perfbench/job.py [--trace PATH] cli <redsim arguments...>
    python3 perfbench/job.py [--trace PATH] lib <name> <json parameters>

With ``--trace`` the redsim layers are wrapped before the job runs, and the
spans, counts and the time taken to import redsim are written to PATH when
it ends.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]

    start = time.perf_counter()
    import redsim.cli

    import_s = time.perf_counter() - start

    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if kind == "cli":
            return redsim.cli.main(rest)
        import json

        import libjobs

        return libjobs.run(rest[0], json.loads(rest[1]))
    finally:
        if tracer is not None:
            import numpy

            from redsim import _threads, oracle

            sys.stdout.flush()
            tracer.dump(
                trace_path,
                import_s=import_s,
                meta={
                    "backend": oracle.BACKEND,
                    "thread_budget": _threads.thread_budget(),
                    "numpy": numpy.__version__,
                    "cpus": os.cpu_count(),
                },
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
