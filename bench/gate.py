"""Output gate: every op's answer is checked against independent oracles.

An op counts as failed unless all checks pass.  The oracles are computed by
the benchmark itself from the generated data: a column-scaled
``np.linalg.lstsq`` for the coefficients, a direct sum for SST, and a
vectorised discriminant count for the rows with no real nearest root.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

# Distance of fitted center and semi-axes from the simulated truth.  The
# unit-constant fit is biased under noise; at noise 0.05 the bias measured
# about 0.007, so 0.05 catches a wrong curve without flagging the bias.
GEOMETRY_TOL = 0.05
SST_RTOL = 1e-9
# The program's discriminant tolerance (conics.TOL_DISC), restated here so
# the count does not call the code it checks.
DISC_TOL = 1e-10

TOP_FIELDS = ("model", "coefficients", "r_squared", "r2_formula", "sigma2_hat",
              "conic", "warnings")
MODEL_FIELDS = ("kind", "lhs", "terms", "intercept")
COEF_FIELDS = ("term", "value", "stderr", "t_stat")
CONIC_FIELDS = ("class", "coeffs", "center", "semi_axes", "rotation")
SEPARATION_FIELDS = ("sst", "ssm", "sse", "theta_t", "theta_m", "theta_e", "e_hat",
                     "height", "ratio", "perfect_fit", "unreconstructed")


class Truth(NamedTuple):
    center: tuple
    semi_axes: tuple            # major first


class GateFailure(Exception):
    """An op's output failed a check; the message names the check."""


def monomials(x: np.ndarray, y: np.ndarray, exps) -> np.ndarray:
    return np.column_stack([x ** a * y ** b for a, b in exps])


def lstsq_oracle(W: np.ndarray, t: np.ndarray) -> np.ndarray:
    scale = np.linalg.norm(W, axis=0)
    return np.linalg.lstsq(W / scale, t, rcond=None)[0] / scale


def nonresponse_oracle(x, y, exps) -> np.ndarray:
    return lstsq_oracle(monomials(x, y, exps), np.ones(len(x)))


def rotation_oracles(x, y, exps) -> list[np.ndarray]:
    """One oracle per pivot: the pivot term on an intercept plus the rest."""
    T = monomials(x, y, exps)
    ones = np.ones((len(x), 1))
    return [lstsq_oracle(np.hstack([ones, np.delete(T, p, axis=1)]), T[:, p])
            for p in range(T.shape[1])]


def rel_err(coeffs, oracle) -> float:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != oracle.shape:
        raise GateFailure(f"{coeffs.size} coefficients, oracle has {oracle.size}")
    return float(np.max(np.abs(coeffs - oracle)) / np.max(np.abs(oracle)))


def sst(x, y) -> float:
    return math.fsum((x - x.mean()) ** 2) + math.fsum((y - y.mean()) ** 2)


def unreconstructed_count(coeffs, x, y) -> int:
    """Rows where y given x or x given y has no real root of the fitted conic."""
    a1, a2, a3, a4, a5 = (float(v) for v in coeffs)

    def no_root(qa, qb, qc):
        if qa == 0.0:       # linear in the unknown; conics.TOL_DENOM
            return np.abs(qb) < 1e-12
        disc = qb * qb - 4 * qa * qc
        scale = np.maximum(np.maximum(qb * qb, np.abs(4 * qa * qc)), 1.0)
        return disc < -DISC_TOL * scale

    miss_y = no_root(a5, a2 + a3 * x, a1 * x + a4 * x * x - 1.0)
    miss_x = no_root(a4, a1 + a3 * y, a2 * y + a5 * y * y - 1.0)
    return int(np.count_nonzero(miss_y | miss_x))


def _require(obj: dict, fields, where: str) -> None:
    missing = [f for f in fields if f not in obj]
    if missing:
        raise GateFailure(f"{where}: missing frozen fields {missing}")


def _malformed_is_failure(check):
    """A report with a field of the wrong type or shape fails the gate."""
    def wrapper(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            raise GateFailure(f"malformed output: {exc!r}") from None
    return wrapper


@_malformed_is_failure
def check_cli(case, command: str, labels: list[str], exit_code: int, stdout: str,
              stderr: str, coef_bound: float, truth) -> float:
    """Check one CLI report; return its coefficient error against the oracle."""
    if exit_code != 0:
        raise GateFailure(f"exit code {exit_code}: {stderr.strip()[-200:]}")
    if "Traceback" in stderr:
        raise GateFailure("traceback on stderr")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise GateFailure(f"output is not JSON: {exc}") from None
    if not isinstance(report, dict):
        raise GateFailure("report is not a JSON object")
    _require(report, TOP_FIELDS + (("separation",) if command == "diagnose" else ()), "report")
    model = report["model"]
    _require(model, MODEL_FIELDS, "model")
    if (model["kind"], model["lhs"], model["terms"], model["intercept"]) != (
            "nonresponse", "unity", labels, False):
        raise GateFailure(f"unexpected model {model}")
    if report["r2_formula"] != "Eq12-nonresponse":
        raise GateFailure(f"unexpected r2_formula {report['r2_formula']!r}")
    for row in report["coefficients"]:
        _require(row, COEF_FIELDS, "coefficient")
    if [row["term"] for row in report["coefficients"]] != labels:
        raise GateFailure("coefficient terms out of order")
    err = rel_err([row["value"] for row in report["coefficients"]], case.oracles[0])
    if not err <= coef_bound:
        raise GateFailure(f"coefficients off the oracle by {err:.3g} > {coef_bound:g}")

    conic = report["conic"]
    _require(conic, CONIC_FIELDS, "conic")
    if conic["class"] != "Ellipse":
        raise GateFailure(f"conic class {conic['class']!r}, expected 'Ellipse'")
    off = max(max(abs(a - b) for a, b in zip(conic["center"], truth.center)),
              max(abs(a - b) for a, b in zip(conic["semi_axes"], truth.semi_axes)))
    if not off <= GEOMETRY_TOL:
        raise GateFailure(f"center or semi-axes off the truth by {off:.3g}")

    if command == "diagnose":
        sep = report["separation"]
        _require(sep, SEPARATION_FIELDS, "separation")
        if not math.isclose(sep["sst"], case.sst, rel_tol=SST_RTOL):
            raise GateFailure(f"SST {sep['sst']!r} != independent {case.sst!r}")
        expected = unreconstructed_count(conic["coeffs"], case.dataset.x, case.dataset.y)
        if sep["unreconstructed"] != expected:
            raise GateFailure(
                f"unreconstructed {sep['unreconstructed']} != independent {expected}")
    return err


@_malformed_is_failure
def check_lib(case, coeff_sets: list, coef_bound: float) -> float:
    """Check one library op (the unit-constant fit, then every rotation)."""
    if len(coeff_sets) != len(case.oracles):
        raise GateFailure(f"{len(coeff_sets)} fits, expected {len(case.oracles)}")
    worst = 0.0
    for k, (coeffs, oracle) in enumerate(zip(coeff_sets, case.oracles)):
        if coeffs is None:
            raise GateFailure(f"fit {k} was degenerate")
        err = rel_err(coeffs, oracle)
        if not err <= coef_bound:
            raise GateFailure(f"fit {k} off the oracle by {err:.3g} > {coef_bound:g}")
        worst = max(worst, err)
    return worst
