"""implicitreg benchmark: closed-loop workloads with checked outputs.

    python3 bench/run.py --workload cli_fit_1m --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload lib_rotations --seed 1 --seconds 50 --trace 1
    python3 bench/run.py --smoke

Run it from the root of a checkout; it benchmarks the package under ``src/``
of that checkout.  With ``--trace 0`` it measures the end-to-end metrics with
no tracing, timing a fixed reference task between ops (bench/reference.py)
so that op times can be given relative to the host's speed; with
``--trace 1`` it runs the same ops in-process, alternating untraced and
traced ones, and reports per-layer times and counts.  It prints
a readable report, then one JSON line as the last line of standard output.
``--smoke`` runs every workload once at tiny sizes and shows that the output
gate rejects injected wrong answers.  Workloads, layers and the metric each
layer moves are described in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import gate
import reference
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", "_work")

# --- the data spec: keep it identical on every commit ---------------------
ELLIPSE = (3.0, -2.0, 2.0, 1.0, 0.5)     # cx, cy, ax, ay, rot
NOISE = 0.05
CONIC_EXPS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
CUBIC_EXPS = CONIC_EXPS + ((3, 0), (0, 3), (2, 1), (1, 2))
CONIC_TERMS = "x,y,xy,x2,y2"
CUBIC_TERMS = "x,y,xy,x2,y2,x^3,y^3,x^2*y,x*y^2"
CONIC_LABELS = ["x", "y", "xy", "x^2", "y^2"]
TRUTH = gate.Truth(center=(3.0, -2.0), semi_axes=(2.0, 1.0))   # major axis first
DATA_SPEC = (f"Ellipse{ELLIPSE} noise={NOISE}; dataset seeds = "
             "SeedSequence(seed).spawn(pool)")

SETUP_REPEATS = 5
STARTUP_PROBES = 5
RUN_LIMIT_S = 170          # a run must end within 180 s
TAIL_BEYOND = 10           # the tail percentile keeps at least this many ops above it

# Subprocess launcher: run the CLI, then record the child's own peak RSS.
# VmHWM is read in the child because wait4's ru_maxrss inherits the
# parent's high-water mark across fork and exec.
LAUNCHER = """\
import sys
from implicitreg.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as fh:
        hwm = [line.split()[1] for line in fh if line.startswith("VmHWM:")][0]
    with open(sys.argv[1], "w") as fh:
        fh.write(hwm)
sys.exit(code)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int                   # rows per dataset
    command: str | None         # CLI subcommand; None for the library workload
    exps: tuple
    terms: str
    coef_bound: float           # gate bound on the norm-wise relative coefficient error
    reference: str              # reference task of the kind the op spends its time on
    pool: int = 1               # datasets per run, cycled through


WORKLOADS = {w.name: w for w in (
    Workload("cli_fit_1m", 1_000_000, "fit", CONIC_EXPS, CONIC_TERMS, 1e-9, "cli"),
    Workload("cli_diagnose_200k", 200_000, "diagnose", CONIC_EXPS, CONIC_TERMS, 1e-9,
             "cli"),
    Workload("lib_rotations", 20_000, None, CUBIC_EXPS, CUBIC_TERMS, 1e-7, "numpy", pool=8),
)}
SMOKE_ROWS = {"cli_fit_1m": 3000, "cli_diagnose_200k": 2000, "lib_rotations": 2000}

END_TO_END_UNITS = {"op_vs_ref.p50": "ratio", "cpu_vs_ref.p50": "ratio",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# Printed in the report only: raw times follow the host's speed (bench/reference.py).
REPORT_ONLY_END_TO_END_UNITS = {"op_s.p50": "s", "cpu_s.p50": "s", "rows_per_s": "rows/s",
                                "ref_s.p50": "s"}
REF_EVERY_S = 1.0          # the reference task runs after at least this much op time
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "terms.load_csv.rows_per_s": "rows/s",
    "terms.load_csv.calls": "count",
    "terms.load_csv.bytes": "bytes",
    "terms.design_matrix.self_s": "s",
    "terms.design_matrix.calls": "count",
    "terms.design_matrix.bytes": "bytes",
    "fitters.self_s": "s",
    "fitters.fits": "count",
    "fitters.coef_rel_err": "ratio",
    "linsolve.solve_normal.self_s": "s",
    "linsolve.solve_normal.calls": "count",
    "linsolve.solve_normal.gram_flops": "flop",
    "conics.calls": "count",
    "conics.root_solves": "count",
    "diagnostics.reconstruct.rows_per_s": "rows/s",
    "diagnostics.reconstruct.reconstructed": "count",
    "simulate.generate_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
# Printed in the report only: a layer that a workload never calls reads 0 here.
REPORT_ONLY_UNITS = {
    "cli.self_s": "s", "cli.render.self_s": "s", "terms.load_csv.self_s": "s",
    "conics.self_s": "s", "diagnostics.reconstruct.self_s": "s",
    "diagnostics.reconstructed_ratio": "ratio", "diagnostics.separation.self_s": "s",
}


@dataclass
class Case:
    """One generated dataset with its oracles."""
    dataset: object             # implicitreg.terms.Dataset
    oracles: list
    csv_path: str | None = None
    sst: float | None = None


@dataclass
class Sample:
    wall: float
    cpu: float
    error: str | None = None
    coef_err: float = 0.0
    hwm_kb: int = 0
    ref_wall: float = 0.0       # mean reference-task times before and after the op's block
    ref_cpu: float = 0.0


@dataclass
class State:
    workload: Workload
    cases: list
    term_list: list = field(default_factory=list)
    generate_s: float = 0.0


class RunStopped(Exception):
    pass


def _on_signal(signum, frame):
    """Turn the run limit's alarm, or a SIGTERM, into an exception, so that the
    op in flight kills and reaps its child on the way out."""
    raise RunStopped(f"run exceeded {RUN_LIMIT_S} s" if signum == signal.SIGALRM
                     else f"stopped by {signal.Signals(signum).name}")


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "implicitreg", "cli.py")):
        sys.exit(f"bench: no implicitreg package under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import implicitreg
    if not os.path.abspath(implicitreg.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported implicitreg from {implicitreg.__file__}, not {SRC}")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


# --- environment record ---------------------------------------------------

def blas_threads() -> str:
    pattern = os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*.so*")
    for lib in glob.glob(pattern):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "machine": platform.machine(), "data_spec": DATA_SPEC}


# --- setup ----------------------------------------------------------------

def dataset_seeds(seed: int, pool: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(pool)]


def write_csv(path: str, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        fh.write("\n".join(map(",".join, zip(map(repr, x.tolist()), map(repr, y.tolist())))))
        fh.write("\n")


def startup_probe() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import implicitreg.cli"], env=child_env(),
                   check=True)
    return time.perf_counter() - t0


def setup(wl: Workload, seed: int) -> State:
    """Simulate, write CSVs, compute oracles and warm up."""
    from implicitreg import simulate, terms

    state = State(wl, [])
    for k, ds_seed in enumerate(dataset_seeds(seed, wl.pool)):
        t0 = time.perf_counter()
        d = simulate.generate(simulate.GeneratorSpec(
            simulate.Ellipse(*ELLIPSE), wl.rows, NOISE, ds_seed))
        state.generate_s += time.perf_counter() - t0
        case = Case(d, [])
        if wl.command is None:
            case.oracles = ([gate.nonresponse_oracle(d.x, d.y, wl.exps)]
                            + gate.rotation_oracles(d.x, d.y, wl.exps))
        else:
            case.csv_path = os.path.join(WORK, f"{wl.name}-{k}.csv")
            write_csv(case.csv_path, d.x, d.y)
            case.oracles = [gate.nonresponse_oracle(d.x, d.y, wl.exps)]
            case.sst = gate.sst(d.x, d.y)
        state.cases.append(case)
    if wl.command is None:
        state.term_list = terms.parse_terms(wl.terms)
        lib_op(state, state.cases[0])
    else:
        startup_probe()
    return state


def cleanup(state: State | None) -> None:
    for case in state.cases if state else ():
        if case.csv_path and os.path.exists(case.csv_path):
            os.remove(case.csv_path)


# --- ops ------------------------------------------------------------------

def cli_argv(wl: Workload, case: Case) -> list[str]:
    return [wl.command, "--input", case.csv_path, "--model", "nonresponse",
            "--terms", wl.terms, "--output", "json"]


def check_cli(wl: Workload, case: Case, code: int, out: str, err: str) -> float:
    return gate.check_cli(case, wl.command, CONIC_LABELS, code, out, err,
                          wl.coef_bound, TRUTH)


def cli_subprocess_op(wl: Workload, case: Case) -> Sample:
    """One CLI call in a fresh interpreter, as a user runs it."""
    out_path, err_path, hwm_path = (os.path.join(WORK, f"{wl.name}.{s}")
                                    for s in ("stdout", "stderr", "hwm"))
    if os.path.exists(hwm_path):
        os.remove(hwm_path)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, hwm_path] + cli_argv(wl, case),
            stdout=out, stderr=err, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(wall, usage.ru_utime + usage.ru_stime)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    try:
        with open(hwm_path) as fh:
            sample.hwm_kb = int(fh.read())
        sample.coef_err = check_cli(wl, case, proc.returncode, stdout, stderr)
    except (OSError, ValueError) as exc:
        sample.error = f"no peak RSS from the child: {exc}"
    except gate.GateFailure as exc:
        sample.error = str(exc)
    return sample


def cli_inprocess_call(wl: Workload, case: Case) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of implicitreg.cli.main run in this process."""
    from implicitreg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(cli_argv(wl, case))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # the op boundary: record the failure and go on
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def cli_inprocess_op(wl: Workload, case: Case) -> Sample:
    t0, c0 = time.perf_counter(), time.process_time()
    code, out, err = cli_inprocess_call(wl, case)
    sample = Sample(time.perf_counter() - t0, time.process_time() - c0)
    try:
        sample.coef_err = check_cli(wl, case, code, out, err)
    except gate.GateFailure as exc:
        sample.error = str(exc)
    return sample


def lib_op(state: State, case: Case) -> Sample:
    """fit_nonresponse, then fit_all_rotations, on one pooled dataset."""
    from implicitreg import fitters

    wl = state.workload
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        fits = [fitters.fit_nonresponse(case.dataset, state.term_list)]
        fits += fitters.fit_all_rotations(case.dataset, state.term_list)
    except Exception:   # the op boundary: record the failure and go on
        sample = Sample(time.perf_counter() - t0, time.process_time() - c0)
        sample.error = traceback.format_exc(limit=1).strip().splitlines()[-1]
        return sample
    sample = Sample(time.perf_counter() - t0, time.process_time() - c0)
    try:
        sample.coef_err = gate.check_lib(
            case, [getattr(f, "coeffs", None) for f in fits], wl.coef_bound)
    except gate.GateFailure as exc:
        sample.error = str(exc)
    return sample


def run_op(state: State, i: int, in_process: bool) -> Sample:
    case = state.cases[i % len(state.cases)]
    if state.workload.command is None:
        return lib_op(state, case)
    if in_process:
        return cli_inprocess_op(state.workload, case)
    return cli_subprocess_op(state.workload, case)


# --- runs -----------------------------------------------------------------

def timed_run(state: State, seconds: float) -> list[Sample]:
    """Closed loop, one client: the next op starts when the last one ends.

    The ops run in blocks of at least REF_EVERY_S, with the workload's
    reference task timed before the first block and after each one.  Each op
    carries the mean of the two reference times around its block.
    """
    kind = state.workload.reference
    reference.measure(kind)     # warm-up
    before, block, samples = reference.measure(kind), [], []
    start = block_start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        sample = run_op(state, len(samples), in_process=False)
        samples.append(sample)
        block.append(sample)
        now = time.perf_counter()
        if now - block_start >= REF_EVERY_S or now - start >= seconds:
            after = reference.measure(kind)
            for s in block:
                s.ref_wall, s.ref_cpu = (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
            before, block, block_start = after, [], time.perf_counter()
    return samples


def traced_run(state: State, seconds: float) -> tuple[list, list, tracing.Tracer]:
    """Alternate untraced and traced in-process ops; return both and the trace."""
    tracer = tracing.Tracer()
    plain, traced, start = [], [], time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        i = len(traced)
        plain.append(run_op(state, i, in_process=True))
        tracer.install()
        try:
            with tracer.op(i):
                traced.append(run_op(state, i, in_process=True))
        finally:
            tracer.uninstall()
    return plain, traced, tracer


# --- metrics --------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, n): the highest percentile with >= 10 ops above it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1], n


def peak_rss_self_kb() -> int:
    with open("/proc/self/status") as fh:
        return int([line.split()[1] for line in fh if line.startswith("VmHWM:")][0])


def end_to_end(state: State, samples: list[Sample], setup_s: list[float]) -> dict:
    ok = [s for s in samples if s.error is None] or samples
    op_s = statistics.median(s.wall for s in ok)
    peak_kb = (max(s.hwm_kb for s in samples) if state.workload.command
               else peak_rss_self_kb())
    return {
        "op_vs_ref.p50": statistics.median(s.wall / s.ref_wall for s in ok),
        "cpu_vs_ref.p50": statistics.median(s.cpu / s.ref_cpu for s in ok),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup_s),
        "op_s.p50": op_s,
        "cpu_s.p50": statistics.median(s.cpu for s in ok),
        "rows_per_s": state.workload.rows / op_s,
        "ref_s.p50": statistics.median(s.ref_wall for s in ok),
    }


def layer_metrics(plain, traced, tracer, generate_s) -> dict:
    probes = [startup_probe() for _ in range(STARTUP_PROBES)]
    out = tracer.layer_metrics([s.wall for s in plain])
    out["cli.startup_s"] = statistics.median(probes)
    out["simulate.generate_s"] = statistics.median(generate_s)
    out["fitters.coef_rel_err"] = max(s.coef_err for s in plain + traced)
    return out


def report_lines(wl, seed, samples, metrics, extra) -> list[str]:
    failed = [s for s in samples if s.error]
    lines = [f"workload {wl.name} seed {seed}: {len(samples)} ops, {len(failed)} failed"]
    lines += [f"  fail: {s.error}" for s in failed[:5]]
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"{name} {value if isinstance(value, str) else f'{value:.6g}'} {unit}")
    return lines


def smoke() -> int:
    """Every workload once at tiny sizes, then wrong answers the gate must reject."""
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"smoke {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for wl in WORKLOADS.values():
        tiny = dataclasses.replace(wl, rows=SMOKE_ROWS[wl.name], pool=min(wl.pool, 2))
        state = setup(tiny, seed=0)
        try:
            samples = timed_run(state, 0)
            plain, traced, tracer = traced_run(state, 0)
            layers = layer_metrics(plain, traced, tracer, [state.generate_s])
            bad = [s.error for s in samples + plain + traced if s.error]
            expect(not bad, f"{wl.name}: {len(samples)} timed + {len(plain) + len(traced)} "
                            f"in-process ops pass the gate {bad[:1]}")
            expect(not tracer.absent, f"{wl.name}: every traced name found {tracer.absent}")
            print(f"      {wl.name} per op: " + ", ".join(
                f"{k} {layers[k]:g}" for k in ("terms.load_csv.calls", "linsolve.solve_normal.calls",
                                               "terms.design_matrix.calls", "conics.root_solves")))
            if wl.command == "diagnose":
                code, out, err = cli_inprocess_call(tiny, state.cases[0])
                smoke_cli_injections(tiny, state.cases[0], code, out, err, expect)
            if wl.command is None:
                smoke_lib_injections(state, expect)
        finally:
            cleanup(state)
    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def _mutated(text: str, mutate) -> str:
    report = json.loads(text)
    mutate(report)
    return json.dumps(report)


def smoke_cli_injections(wl, case, code, out, err, expect) -> None:
    expect(check_cli(wl, case, code, out, err) <= wl.coef_bound, "diagnose: real output passes")

    def scale_first_coef(r):
        r["coefficients"][0]["value"] *= 1 + 1e-6

    def shift_center(r):
        r["conic"]["center"][0] += 0.1

    injections = {
        "coefficient off by 1e-6": (code, _mutated(out, scale_first_coef), err),
        "conic class Hyperbola": (code, _mutated(out, lambda r: r["conic"].update(
            {"class": "Hyperbola"})), err),
        "center off by 0.1": (code, _mutated(out, shift_center), err),
        "unreconstructed + 1": (code, _mutated(out, lambda r: r["separation"].update(
            unreconstructed=r["separation"]["unreconstructed"] + 1)), err),
        "SST off by 1e-6": (code, _mutated(out, lambda r: r["separation"].update(
            sst=r["separation"]["sst"] * (1 + 1e-6))), err),
        "frozen field sigma2_hat dropped": (code, _mutated(out, lambda r: r.pop("sigma2_hat")),
                                            err),
        "exit code 1": (1, out, err),
        "traceback on stderr": (code, out, "Traceback (most recent call last):\n"),
        "output not JSON": (code, out[:-2], err),
    }
    for what, (c, o, e) in injections.items():
        try:
            check_cli(wl, case, c, o, e)
        except gate.GateFailure as exc:
            expect(True, f"diagnose: gate rejects {what} ({exc})")
        else:
            expect(False, f"diagnose: gate rejects {what}")


def smoke_lib_injections(state: State, expect) -> None:
    from implicitreg import fitters

    case = state.cases[0]
    fits = [fitters.fit_nonresponse(case.dataset, state.term_list)]
    fits += fitters.fit_all_rotations(case.dataset, state.term_list)
    coeffs = [f.coeffs.copy() for f in fits]
    bound = state.workload.coef_bound
    wrong = [c.copy() for c in coeffs]
    wrong[3][1] *= 1 + 1e-5
    degenerate = coeffs[:5] + [None] + coeffs[6:]
    for what, sets in (("rotation coefficient off by 1e-5", wrong),
                       ("a degenerate rotation", degenerate),
                       ("a missing rotation", coeffs[:-1])):
        try:
            gate.check_lib(case, sets, bound)
        except gate.GateFailure as exc:
            expect(True, f"lib_rotations: gate rejects {what} ({exc})")
        else:
            expect(False, f"lib_rotations: gate rejects {what}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and test the gate")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    require_program()
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke()

    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(RUN_LIMIT_S)
    wl = WORKLOADS[args.workload]
    env = environment()
    state, setup_s, generate_s = None, [], []
    try:
        for _ in range(SETUP_REPEATS):
            cleanup(state)
            t0 = time.perf_counter()
            state = setup(wl, args.seed)
            setup_s.append(time.perf_counter() - t0)
            generate_s.append(state.generate_s)
        if args.trace:
            plain, traced, tracer = traced_run(state, args.seconds)
            samples = plain + traced
            metrics = layer_metrics(plain, traced, tracer, generate_s)
            shown = {**PER_LAYER_UNITS, **REPORT_ONLY_UNITS}
            extra = {"trace.absent": (", ".join(tracer.absent) or "none", ""),
                     "trace.hook_errors": (json.dumps(dict(tracer.hook_errors)), ""),
                     "trace.ops": (len(traced), "count")}
            tracer.dump(os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.json"))
            reported = PER_LAYER_UNITS
        else:
            samples = timed_run(state, args.seconds)
            metrics = end_to_end(state, samples, setup_s)
            shown = {**END_TO_END_UNITS, **REPORT_ONLY_END_TO_END_UNITS}
            t = tail([s.wall for s in samples if s.error is None])
            extra = {
                "op_s.tail": (f"{t[1]:.6g} (p{t[0]:.1f} of {t[2]} ops)" if t else
                              f"n/a ({len(samples)} ops; needs > {TAIL_BEYOND})", "s"),
                "error_rate": (sum(1 for s in samples if s.error) / len(samples), "ratio"),
                "coef_rel_err": (max(s.coef_err for s in samples), "ratio"),
            }
            reported = END_TO_END_UNITS
    finally:
        cleanup(state)
        signal.alarm(0)
    failed = sum(1 for s in samples if s.error)
    for line in [f"env {json.dumps(env)}"] + report_lines(
            wl, args.seed, samples, {k: (metrics[k], u) for k, u in shown.items()}, extra):
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
    }
    with open(os.path.join(WORK, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result,
                   "report": {k: metrics[k] for k in shown},
                   "extra": {k: v[0] for k, v in extra.items()},
                   "ops": [[s.wall, s.cpu, s.ref_wall, s.ref_cpu] for s in samples]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
