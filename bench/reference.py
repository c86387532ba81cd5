"""Reference tasks: fixed work that uses no program code, timed between ops.

The shared host runs this benchmark's code slower or faster by up to half for
stretches of seconds to minutes, and the slowdown shows in CPU time as much
as in wall time.  A run therefore also times a reference task between its
ops, and the bounded time metrics are each op's time over the time of the
references around it.  The slowdown hits interpreted code, numpy code and
process start differently, so each workload uses a reference shaped like its
ops:

- ``cli``: a fresh interpreter that imports numpy, formats and parses a CSV
  with the stdlib and takes a nearest quadratic root per row, as a CLI op
  starts, loads and reconstructs.
- ``numpy``: in this process, monomial columns, a Gram matrix and a solve, as
  the library op builds and solves its fits.

The tasks are fixed: changing them changes every ``*_vs_ref`` metric, so a
change to this file is a change of benchmark, not of program.

    python3 bench/reference.py          # the child side of the ``cli`` task
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np

_ROWS = 30_000


def _columns() -> tuple[np.ndarray, np.ndarray]:
    x = np.linspace(-3.0, 3.0, _ROWS)
    return x, np.cos(x)


def _cli_task() -> float:
    """Format a CSV, parse it back and take the nearer root of a quadratic per
    row, reading each row from a numpy array as a scalar."""
    x, y = _columns()
    text = "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    arr = np.array([float(rec["x"]) for rec in csv.DictReader(io.StringIO(text))])
    total = 0.0
    for i in range(len(arr)):
        v = float(arr[i])
        half = math.sqrt(v * v + 1.0)
        roots = [v - half, v + half]
        total += min(roots, key=lambda r: (abs(r - v), r))
    return total


_x, _y = _columns()


def _numpy_task() -> float:
    """Monomial columns up to degree 3, their Gram matrix and one solve."""
    total = 0.0
    for _ in range(24):
        W = np.column_stack([_x ** a * _y ** b for a in range(4) for b in range(4 - a)])
        G = W.T @ W
        total += float(np.linalg.solve(G + np.eye(len(G)), W.T @ _y)[0])
    return total


def _measure_cli() -> tuple[float, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                            stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"reference task exited with {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime


def _measure_numpy() -> tuple[float, float]:
    # The collector is off: its passes would depend on how many objects the
    # benchmark process holds, not on the host's speed.
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        _numpy_task()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        gc.enable()


def measure(kind: str) -> tuple[float, float]:
    """Wall and CPU seconds of one run of the reference task ``kind``."""
    return {"cli": _measure_cli, "numpy": _measure_numpy}[kind]()


if __name__ == "__main__":
    _cli_task()
