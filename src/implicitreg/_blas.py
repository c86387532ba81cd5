"""One BLAS thread for the package's fits: they are n rows by at most about
ten columns, and on that shape a second OpenBLAS thread only spins.

pin_numpy_import serves the CLI: OpenBLAS reads its thread count once, so
OPENBLAS_NUM_THREADS=1 is set while numpy loads and removed again.
one_thread serves library callers: the outermost decorated call sets
numpy's OpenBLAS to one thread and restores the caller's count on return or
exception, with one depth count over nested calls and Python threads.
Without OpenBLAS nothing changes; a process the pin already set to one
thread skips even the lookup.  A thread variable the user set wins.
"""

from __future__ import annotations

import functools
import os
import sys
import threading

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_pinned = False     # pin_numpy_import loaded numpy on one thread
_api = None         # OpenBLAS's (get, set) thread count, () without it, None before lookup
_lock = threading.Lock()
_depth = 0          # decorated calls running, over all Python threads
_saved = 1          # the caller's thread count, restored when _depth returns to 0


def _user_set() -> bool:
    return any(v in os.environ for v in THREAD_VARS)


def pin_numpy_import() -> None:
    """Load numpy on one OpenBLAS thread, unless it is loaded already or
    the user set a thread variable."""
    global _pinned
    if "numpy" in sys.modules or _user_set():
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    _pinned = True


def _lookup() -> tuple:
    """The get and set thread-count functions of an OpenBLAS mapped into
    this process or shipped in numpy.libs; () when there is none."""
    try:
        import ctypes
    except ImportError:
        return ()
    import glob

    import numpy
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        paths = set()
    shipped = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in sorted(paths) + sorted(shipped):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            get, put = (getattr(lib, name % op, None) for op in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return ()


def one_thread(fn):
    """Run fn with numpy's OpenBLAS on one thread (see the module docstring)."""
    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        global _api, _depth, _saved
        if _pinned or _user_set():
            return fn(*args, **kwargs)
        with _lock:
            if _depth == 0:
                if _api is None:
                    _api = _lookup()
                _saved = _api[0]() if _api else 1
                if _saved > 1:
                    _api[1](1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0 and _saved > 1:
                    _api[1](_saved)
    return scoped
