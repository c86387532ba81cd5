"""Spans around the calls into each layer of implicitreg, recorded from outside.

The tracer rebinds each public function under the name its caller looks it
up by (``implicitreg.fitters.design_matrix`` is what the fitters call, not
``implicitreg.terms.design_matrix``), so the program itself is unchanged.
Spans (layer, start, end, parent, op) stay in memory until ``dump``.  The
per-row root solves are counted, not spanned, because a span per call would
cost more than the call.  A target that no longer exists is reported as
absent instead of failing the run, so the benchmark outlives refactors that
delete or move a function.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (layer, module, attribute).  Several attributes may share one layer.
SPAN_TARGETS = (
    ("cli", "implicitreg.cli", "main"),
    ("cli.render", "implicitreg.cli", "Report.to_json"),
    ("terms.load_csv", "implicitreg.terms", "load_csv"),
    ("terms.design_matrix", "implicitreg.fitters", "design_matrix"),
    ("fitters", "implicitreg.fitters", "fit_nonresponse"),
    ("fitters", "implicitreg.fitters", "fit_rotation"),
    ("fitters", "implicitreg.fitters", "fit_all_rotations"),
    ("fitters", "implicitreg.fitters", "fit_implicit"),
    ("fitters", "implicitreg.fitters", "fit_standard"),
    ("linsolve.solve_normal", "implicitreg.fitters", "solve_normal"),
    ("conics", "implicitreg.conics", "classify_conic"),
    ("conics", "implicitreg.conics", "conic_geometry"),
    ("diagnostics.reconstruct", "implicitreg.diagnostics", "reconstruct_from_conic"),
    ("diagnostics.separation", "implicitreg.diagnostics", "separation_bivariate"),
)

# Counted per call, no span: the nearest-root loop calls these once per
# coordinate per row.
COUNT_TARGETS = (
    ("conics.root_solves", "implicitreg.diagnostics", "solve_for_y"),
    ("conics.root_solves", "implicitreg.diagnostics", "solve_for_x"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPAN_TARGETS))


def _work_load_csv(args, result):
    return {"rows": result.n, "bytes": os.path.getsize(args[0])}


def _work_design_matrix(args, result):
    W, t = result
    return {"bytes": W.nbytes + t.nbytes}


def _work_solve_normal(args, result):
    n, m = args[0].shape
    # W'W and W't as dense products: 2nm^2 + 2nm flops (computed, not counted).
    return {"gram_flops": 2 * n * m * m + 2 * n * m}


def _work_reconstruct(args, result):
    rows = args[1].n
    return {"rows": rows, "reconstructed": rows - result[2]}


# Work counts taken from a call's arguments and result.  A refactor that
# changes a signature makes the hook fail; that is tallied, not raised.
WORK_HOOKS = {
    "terms.load_csv": _work_load_csv,
    "terms.design_matrix": _work_design_matrix,
    "linsolve.solve_normal": _work_solve_normal,
    "diagnostics.reconstruct": _work_reconstruct,
}


def _count_fits(result) -> int:
    if isinstance(result, list):
        return sum(1 for r in result if hasattr(r, "coeffs"))
    return 1 if hasattr(result, "coeffs") else 0


def _resolve(module: str, attr: str):
    """(owner, name) for a dotted attribute path, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [layer, start, end, parent, op]
        self.counts = defaultdict(Counter)  # op -> counter name -> value
        self.ops: dict[int, tuple[float, float]] = {}
        self.absent: list[str] = []
        self.hook_errors = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for layer, module, attr in SPAN_TARGETS:
            self._rebind(module, attr, lambda fn, layer=layer: self._span_wrapper(layer, fn))
        for name, module, attr in COUNT_TARGETS:
            self._rebind(module, attr, lambda fn, name=name: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _rebind(self, module, attr, make_wrapper) -> None:
        found = _resolve(module, attr)
        if found is None:
            self.absent.append(f"{module}.{attr}")
            return
        owner, name = found
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))

    def _span_wrapper(self, layer, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._record_work(layer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._op][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record_work(self, layer, args, result) -> None:
        counter = self.counts[self._op]
        if layer == "fitters":
            # Only the outermost fitter call yields fits to the caller.
            if not any(self.spans[i][0] == "fitters" for i in self._stack):
                counter["fitters.fits"] += _count_fits(result)
            return
        hook = WORK_HOOKS.get(layer)
        if hook is None:
            return
        try:
            work = hook(args, result)
        except (AttributeError, TypeError, IndexError, ValueError, OSError):
            self.hook_errors[layer] += 1
            return
        for key, value in work.items():
            counter[f"{layer}.{key}"] += value

    @contextmanager
    def op(self, op_id: int):
        """Attribute every span and count inside the block to one op."""
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops[op_id] = (start, time.perf_counter())
            self._op = -1

    # --- summaries --------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Per op, each layer's span time minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(Counter)
        for (layer, start, end, parent, op), inner in zip(self.spans, child):
            out[op][layer] += (end - start) - inner
        return out

    def layer_metrics(self, untraced_op_s: list[float]) -> dict[str, float]:
        """Per-op layer metrics over the traced ops (medians for times)."""
        ops = sorted(self.ops)
        selfs = self.self_times()
        total = Counter()
        for op in ops:
            total.update(self.counts[op])
        n_ops = len(ops)

        def med(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = med([selfs[op][layer] for op in ops])
            out[f"{layer}.calls"] = sum(
                1 for s in self.spans if s[0] == layer and s[4] >= 0) / n_ops
        for key in ("terms.load_csv.bytes", "terms.design_matrix.bytes",
                    "linsolve.solve_normal.gram_flops", "conics.root_solves",
                    "fitters.fits", "diagnostics.reconstruct.rows",
                    "diagnostics.reconstruct.reconstructed"):
            out[key] = total[key] / n_ops
        for layer in ("terms.load_csv", "diagnostics.reconstruct"):
            busy = sum(selfs[op][layer] for op in ops)
            out[f"{layer}.rows_per_s"] = total[f"{layer}.rows"] / busy if busy > 0 else 0.0
        rows = total["diagnostics.reconstruct.rows"]
        out["diagnostics.reconstructed_ratio"] = (
            total["diagnostics.reconstruct.reconstructed"] / rows if rows else 0.0)
        op_s = [end - start for start, end in (self.ops[op] for op in ops)]
        out["trace.overhead_s"] = med(op_s) - med(untraced_op_s)
        out["trace.unattributed_s"] = med(
            [(self.ops[op][1] - self.ops[op][0]) - sum(selfs[op].values()) for op in ops])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["layer", "start", "end", "parent", "op"],
                "spans": self.spans,
                "ops": {str(op): list(span) for op, span in self.ops.items()},
                "counts": {str(op): dict(c) for op, c in self.counts.items()},
                "absent": self.absent,
                "hook_errors": dict(self.hook_errors),
            }, fh)
