"""Translation of the REDSIM_THREADS environment variable.

The variable is a worker-thread budget: unset means serial, 0 means one
thread per CPU, any other nonnegative integer is taken literally.  The CLI
validates it up front; no code path runs in parallel, so it does not change
what runs.
"""

from __future__ import annotations

import os

ENV_VAR = "REDSIM_THREADS"


def thread_budget() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None or raw.strip() == "":
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be a nonnegative integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{ENV_VAR} must be a nonnegative integer, got {raw!r}")
    if value == 0:
        return os.cpu_count() or 1
    return value
