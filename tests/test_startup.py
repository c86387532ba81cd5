"""What importing the package and the CLI does to a fresh interpreter.

Each test starts its own interpreter, because numpy and OpenBLAS are
configured once per process.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import implicitreg
from implicitreg.cli import EXIT_INPUT, EXIT_OK, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(implicitreg.__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

PUBLIC = [
    "CONIC_TERMS", "Circle", "ConicClass", "ConicCoeffs", "ConicGeometry", "ConstantNormal",
    "Dataset", "Ellipse", "FitResult", "GeneratorSpec", "LhsKind", "Line", "ModelSpec",
    "MultiDataset", "OrthogonalityCheck", "PinwheelLine", "SeparationDiagnostics", "Term",
    "Uniform", "UnivariateResult", "alias_matrix", "alpha_from_beta", "beta_from_alpha",
    "classify_conic", "conic_geometry", "conics", "diagnostics", "errors",
    "fit_all_rotations", "fit_implicit", "fit_nonresponse", "fit_rotation", "fit_standard",
    "fitters", "generate", "invert_rotation_linear", "load_csv", "load_multi_csv",
    "nra2_closed", "ols_orthogonality_check", "parse_terms", "pinwheel_data",
    "reconstruct_from_conic", "separation_bivariate", "separation_from_conic",
    "separation_univariate", "simulate", "slr_closed", "solve_for_x", "solve_for_y", "terms",
    "univariate_nra",
]

# Prints the OpenBLAS thread count and the thread variables, read by the same
# ctypes probe as bench/run.py's blas_threads.
PROBE = """
import ctypes, glob, json, os
import numpy as np
lib = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*.so*"))[0]
fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
fn.restype = ctypes.c_int
print(json.dumps({"threads": fn(), "env": {v: os.environ.get(v) for v in %r}}))
""" % (THREAD_VARS,)


def _has_scipy_openblas() -> bool:
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                      "libscipy_openblas*.so*")):
        try:
            ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        return True
    return False


needs_openblas = pytest.mark.skipif(not _has_scipy_openblas(),
                                    reason="numpy is not linked to scipy-openblas")


def fresh(args, **env_vars) -> subprocess.CompletedProcess:
    """A fresh interpreter run with no thread variable but env_vars; its
    output is bytes."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable] + args, env=env, capture_output=True, timeout=120)


def run(args, **env_vars) -> str:
    """Stdout of a fresh interpreter with no thread variable but env_vars."""
    proc = fresh(args, **env_vars)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def probe(prelude: str, **env_vars) -> dict:
    return json.loads(run(["-c", prelude + PROBE], **env_vars))


def test_root_import_loads_no_numpy():
    out = run(["-c", "import implicitreg, json, sys\n"
                     "print(json.dumps([sorted(sys.modules), implicitreg.__all__]))"])
    modules, public = json.loads(out)
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("implicitreg")] == ["implicitreg"]
    assert public == PUBLIC


def test_every_public_name_resolves():
    out = run(["-c", "import implicitreg, json, types\n"
                     "print(json.dumps({n: isinstance(getattr(implicitreg, n), types.ModuleType)"
                     " for n in implicitreg.__all__}))"])
    is_module = json.loads(out)
    assert sorted(is_module) == PUBLIC
    assert sorted(n for n, m in is_module.items() if m) == [
        "conics", "diagnostics", "errors", "fitters", "simulate", "terms"]
    with pytest.raises(AttributeError):
        implicitreg.not_a_name


@needs_openblas
def test_cli_import_pins_one_thread():
    assert probe("import implicitreg.cli\n") == {
        "threads": 1, "env": dict.fromkeys(THREAD_VARS)}


@needs_openblas
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_variable_wins(var):
    default = probe("")["threads"]
    got = probe("import implicitreg.cli\n", **{var: "2"})
    assert got["threads"] == min(2, default)
    assert got["env"] == dict(dict.fromkeys(THREAD_VARS), **{var: "2"})


@needs_openblas
def test_numpy_loaded_first_is_untouched():
    default = probe("")["threads"]
    assert probe("import numpy\nimport implicitreg.cli\n") == {
        "threads": default, "env": dict.fromkeys(THREAD_VARS)}


def _numbers(value, path=""):
    """Flattened (path, value) pairs of a JSON document."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _numbers(v, f"{path}/{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _numbers(v, f"{path}/{i}")]
    return [(path, value)]


def test_pinned_diagnose_matches_two_threads(tmp_path):
    csv = tmp_path / "ellipse.csv"
    assert main(["simulate", "--kind", "ellipse", "--params", "3,-2,2,1,0.5", "--n", "20000",
                 "--noise", "0.05", "--seed", "11", "--out-file", str(csv)]) == EXIT_OK
    args = ["-m", "implicitreg.cli", "diagnose", "--input", str(csv), "--model", "nonresponse",
            "--terms", "x,y,xy,x2,y2", "--output", "json"]
    pinned = _numbers(json.loads(run(args)))
    threaded = _numbers(json.loads(run(args, OPENBLAS_NUM_THREADS="2")))
    assert [p for p, _ in pinned] == [p for p, _ in threaded]
    for (path, a), (_, b) in zip(pinned, threaded):
        if isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-12, abs=0), path
        else:
            assert a == b, path


def test_cli_import_leaves_simulate_unloaded(tmp_path):
    csv = tmp_path / "circle.csv"
    out = run(["-c", "import json, sys\n"
                     "from implicitreg.cli import main\n"
                     "loaded = 'implicitreg.simulate' in sys.modules\n"
                     "code = main(['simulate', '--kind', 'circle', '--params', '1,-2,3',"
                     " '--n', '40', '--noise', '0.01', '--seed', '5',"
                     f" '--out-file', {str(csv)!r}])\n"
                     "print(json.dumps([loaded, code]))"])
    assert json.loads(out) == [False, EXIT_OK]
    expected = implicitreg.generate(implicitreg.GeneratorSpec(
        implicitreg.Circle(1.0, -2.0, 3.0), n=40, noise_sigma=0.01, seed=5))
    d = implicitreg.load_csv(csv)
    np.testing.assert_array_equal(d.x, expected.x)
    np.testing.assert_array_equal(d.y, expected.y)


def test_cli_import_freezes_its_imports():
    assert int(run(["-c", "import gc, implicitreg.cli\nprint(gc.get_freeze_count())"])) > 0


def test_library_imports_freeze_nothing():
    out = run(["-c", "import gc, implicitreg\n"
                     "for name in ('fitters', 'terms', 'conics', 'diagnostics', 'simulate'):\n"
                     "    getattr(implicitreg, name)\n"
                     "print(gc.get_freeze_count())"])
    assert int(out) == 0


@pytest.mark.parametrize("output", ["json", "text"])
def test_cli_process_writes_what_main_writes(tmp_path, capsys, output):
    # The frozen heap is not torn down at exit: stdout and --out-file are
    # flushed and closed before that, byte for byte what main writes in process.
    csv = tmp_path / "ellipse.csv"
    assert main(["simulate", "--kind", "ellipse", "--params", "3,-2,2,1,0.5", "--n", "2000",
                 "--noise", "0.05", "--seed", "11", "--out-file", str(csv)]) == EXIT_OK
    argv = ["diagnose", "--input", str(csv), "--model", "nonresponse", "--terms",
            "x,y,xy,x2,y2", "--output", output]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out.encode()
    stdout = fresh(["-m", "implicitreg.cli"] + argv)
    to_file = fresh(["-m", "implicitreg.cli"] + argv + ["--out-file", str(tmp_path / "out")])
    assert (stdout.returncode, stdout.stdout, stdout.stderr) == (EXIT_OK, expected, b"")
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (EXIT_OK, b"", b"")
    assert (tmp_path / "out").read_bytes() == expected


def test_cli_process_refusal_is_one_error_line(tmp_path):
    proc = fresh(["-m", "implicitreg.cli", "fit", "--model", "univariate", "--x-col", "x",
                  "--input", str(tmp_path / "absent.csv")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_INPUT, b"", b"error: the univariate model takes no --x-col\n")
