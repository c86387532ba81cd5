"""The BLAS thread scope of the library fits (implicitreg._blas.one_thread).

A fake OpenBLAS pins down the scope's bookkeeping in this process; fresh
interpreters check it against numpy's own OpenBLAS.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest

from implicitreg import _blas, fit_all_rotations, fit_nonresponse, parse_terms
from implicitreg.errors import DomainError
from implicitreg.simulate import Ellipse, GeneratorSpec, generate
from test_startup import THREAD_VARS, needs_openblas, run

CUBIC = "x,y,xy,x2,y2,x^3,y^3,x^2*y,x*y^2"


class FakeBlas:
    """OpenBLAS's thread count; each call lets other Python threads run, as
    a foreign call may."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        time.sleep(0)
        return self.threads

    def set(self, n):
        time.sleep(0)
        self.calls.append(n)
        self.threads = n


@pytest.fixture
def fake(monkeypatch):
    blas = FakeBlas(4)
    monkeypatch.setattr(_blas, "_api", (blas.get, blas.set))
    monkeypatch.setattr(_blas, "_pinned", False)
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    return blas


def ellipse(n=3000, seed=7):
    return generate(GeneratorSpec(Ellipse(3.0, -2.0, 2.0, 1.0, 0.5), n, 0.05, seed))


class TestScope:
    def test_nested_calls_set_and_restore_once(self, fake):
        seen = []

        @_blas.one_thread
        def inner():
            seen.append(fake.threads)

        @_blas.one_thread
        def outer():
            inner()
            seen.append(fake.threads)

        outer()
        assert seen == [1, 1]
        assert fake.calls == [1, 4] and fake.threads == 4 and _blas._depth == 0

    def test_exception_restores(self, fake):
        @_blas.one_thread
        def boom():
            raise DomainError(3, "x^0.5")

        with pytest.raises(DomainError):
            boom()
        assert fake.calls == [1, 4] and _blas._depth == 0

    def test_fit_runs_in_one_scope(self, fake):
        fit_nonresponse(ellipse(500), parse_terms("x,y,xy,x2,y2"))
        fit_all_rotations(ellipse(500), parse_terms(CUBIC))
        assert fake.calls == [1, 4, 1, 4]

    def test_one_thread_already_is_left_alone(self, fake):
        fake.threads = 1
        fit_nonresponse(ellipse(500), parse_terms("x,y"))
        assert fake.calls == []

    @pytest.mark.parametrize("var", THREAD_VARS)
    def test_user_thread_variable_wins(self, fake, monkeypatch, var):
        monkeypatch.setenv(var, "3")
        fit_nonresponse(ellipse(500), parse_terms("x,y"))
        assert fake.calls == []

    def test_pinned_process_skips_the_lookup(self, monkeypatch):
        def lookup():
            raise AssertionError("looked up OpenBLAS in a pinned process")

        monkeypatch.setattr(_blas, "_pinned", True)
        monkeypatch.setattr(_blas, "_api", None)
        monkeypatch.setattr(_blas, "_lookup", lookup)
        fit_nonresponse(ellipse(500), parse_terms("x,y"))
        assert _blas._api is None

    def test_without_openblas_results_unchanged(self, monkeypatch):
        d, terms = ellipse(), parse_terms(CUBIC)
        base = [fit_nonresponse(d, terms)] + fit_all_rotations(d, terms)
        monkeypatch.setattr(_blas, "_api", None)
        monkeypatch.setattr(_blas, "_lookup", lambda: ())
        again = [fit_nonresponse(d, terms)] + fit_all_rotations(d, terms)
        assert _blas._api == () and _blas._depth == 0
        # A BLAS reduction may sum in another order on another thread count.
        for a, b in zip(base, again, strict=True):
            assert np.linalg.norm(a.coeffs - b.coeffs) <= 1e-10 * np.linalg.norm(a.coeffs)
            assert a.r_squared == pytest.approx(b.r_squared, rel=1e-12)

    def test_overlapping_threads_share_one_scope(self, fake):
        # Every thread is inside at once, so the count is set and restored once.
        barrier = threading.Barrier(6, timeout=30)
        seen = []

        @_blas.one_thread
        def work():
            barrier.wait()
            seen.append(fake.threads)
            barrier.wait()

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 6
        assert fake.calls == [1, 4] and fake.threads == 4 and _blas._depth == 0

    def test_thread_stress_keeps_the_count(self, fake):
        # A lost update of the depth would restore the count while another
        # thread is still inside, or leave it at one afterwards.
        seen = set()

        @_blas.one_thread
        def work():
            seen.add(fake.threads)

        def loop():
            for _ in range(300):
                work()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=loop) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == {1}
        assert fake.threads == 4 and _blas._depth == 0
        assert fake.calls == [1, 4] * (len(fake.calls) // 2)


# Fits in a fresh interpreter that loaded numpy first; a probe inside
# fitters.Factor.solve reads numpy's OpenBLAS thread count during every
# stacked read-off and counts the fits solved in it.
LIBRARY = """
import ctypes, glob, json, os, sys, threading
import numpy as np
lib = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*.so*"))[0]
count = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
count.restype = ctypes.c_int
import implicitreg.fitters as f
from implicitreg import simulate, terms
from implicitreg.errors import DomainError, SingularSystem

inside, solves = [], []
solve = f.Factor.solve
def probe(factor, fits):
    inside.append(count())
    solves.append(len(fits))
    return solve(factor, fits)
f.Factor.solve = probe

d = simulate.generate(simulate.GeneratorSpec(simulate.Ellipse(3, -2, 2, 1, 0.5), 3000, 0.05, 7))
cubic = terms.parse_terms(%r)
out = {"before": count()}
f.fit_all_rotations(d, cubic)
out["after_fit"] = count()
try:
    f.fit_nonresponse(terms.Dataset(d.x, 2 * d.x), terms.parse_terms("x,y"))
except SingularSystem:
    out["after_singular"] = count()
try:
    f.fit_nonresponse(terms.Dataset(d.x - 3, d.y), terms.parse_terms("y,x^0.5"))
except DomainError:
    out["after_domain_error"] = count()
sys.setswitchinterval(1e-5)
threads = [threading.Thread(target=lambda: [f.fit_all_rotations(d, cubic) for _ in range(5)])
           for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(120)
out["alive"] = sum(t.is_alive() for t in threads)
out["after_threads"] = count()
out["inside"] = sorted(set(inside))
out["solves"] = sum(solves)
print(json.dumps(out))
""" % CUBIC


def library(**env_vars) -> dict:
    out = json.loads(run(["-c", LIBRARY], **env_vars))
    if out["before"] < 2:
        pytest.skip("OpenBLAS runs one thread on this host")
    return out


@needs_openblas
def test_library_fits_run_on_one_thread():
    out = library()
    before = out["before"]
    assert out["inside"] == [1]
    assert out["solves"] == 9 * 21 + 1
    assert (out["after_fit"], out["after_singular"], out["after_domain_error"],
            out["after_threads"]) == (before,) * 4
    assert out["alive"] == 0


@needs_openblas
def test_user_thread_variable_holds_inside_the_fit():
    out = library(OMP_NUM_THREADS="2")
    assert out["inside"] == [out["before"]]
    assert out["after_threads"] == out["before"]


def test_cli_skips_the_lookup(tmp_path):
    csv = tmp_path / "ellipse.csv"
    d = ellipse(2000)
    csv.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(d.x.tolist(), d.y.tolist())))
    out = run(["-c", "import json\n"
                     "from implicitreg import _blas\n"
                     "from implicitreg.cli import main\n"
                     f"code = main(['diagnose', '--input', {str(csv)!r}, '--model', 'nonresponse',"
                     f" '--terms', 'x,y,xy,x2,y2', '--output', 'json',"
                     f" '--out-file', {str(tmp_path / 'out.json')!r}])\n"
                     "print(json.dumps([code, _blas._pinned, _blas._api is None]))"])
    assert json.loads(out) == [0, True, True]
