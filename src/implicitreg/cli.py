"""Command-line front end.

Subcommands: fit, rotate-all, diagnose, simulate, convert.  CSV in,
text or JSON out.  Exit codes: 0 success, 2 input/parse, 3 singular or
degenerate, 4 domain error, 5 internal, 141 stdout closed by its reader.

JSON field names are frozen in README.md (schema section); numbers are
serialized at full precision and only the text renderer rounds.

BLAS runs on one thread in a CLI process (see implicitreg._blas): numpy is
loaded here with OPENBLAS_NUM_THREADS=1, unless the user set a thread
variable or numpy was loaded before this module.  Once its imports are done,
it moves every object they made into the garbage collector's permanent
generation (gc.freeze), so that a CLI process does not traverse and free
them at exit; importing implicitreg or a library module freezes nothing.
"""

from __future__ import annotations

import sys

from . import _blas

_blas.pin_numpy_import()

import argparse
import dataclasses
import gc
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from . import conics, diagnostics, fitters, terms
from .errors import (
    DegenerateError,
    DomainViolation,
    InputError,
    InvalidSpec,
    NotAnEllipse,
    NotRepresentable,
)

# Every object the imports above made (numpy's and this package's modules,
# types and functions) lives until the process ends.  Moved to the permanent
# generation, no later collection walks them, the one at interpreter exit
# included, and the OS takes their memory back; objects made after this
# point are collected as before.
gc.freeze()

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_DOMAIN = 4
EXIT_INTERNAL = 5
EXIT_PIPE = 141         # 128 + SIGPIPE, as a shell reports a writer that SIGPIPE ended


@dataclass
class Report:
    model: dict
    coefficients: list[dict]
    r_squared: Optional[float] = None
    r2_formula: Optional[str] = None
    sigma2_hat: Optional[float] = None
    f_stat: Optional[float] = None
    separation: Optional[dict] = None
    pinwheel: Optional[list[dict]] = None
    conic: Optional[dict] = None
    univariate: Optional[dict] = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {k: v for k, v in out.items() if v is not None}

    def to_json(self) -> str:
        return _json(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = []
        m = self.model
        lines.append(f"model: {m.get('kind')}  lhs={m.get('lhs')}  terms={m.get('terms')}"
                     f"  intercept={m.get('intercept')}")
        if self.coefficients:
            lines.append(f"{'term':>10} {'coef':>14} {'stderr':>12} {'t':>10}")
            for c in self.coefficients:
                se = _fmt(c.get("stderr"))
                t = _fmt(c.get("t_stat"))
                lines.append(f"{c['term']:>10} {c['value']:>14.8g} {se:>12} {t:>10}")
        if self.r_squared is not None:
            lines.append(f"R^2 = {self.r_squared:.8g}  [{self.r2_formula}]")
        if self.f_stat is not None:
            lines.append(f"F = {self.f_stat:.6g}")
        if self.univariate is not None:
            u = self.univariate
            lines.append(f"alpha = {u['alpha']:.10g}  mu_hat = {u['mu_hat']:.10g}"
                         f"  R^2 = {u['r2']:.10g}")
        if self.conic is not None:
            lines.append(f"conic class: {self.conic['class']}")
            if "center" in self.conic:
                cx, cy = self.conic["center"]
                a, b = self.conic["semi_axes"]
                lines.append(f"  center ({cx:.6g}, {cy:.6g})  semi-axes ({a:.6g}, {b:.6g})"
                             f"  rotation {self.conic['rotation']:.6g} rad")
        if self.separation is not None:
            s = self.separation
            lines.append(f"SST = {s['sst']:.8g}  SSM = {s['ssm']:.8g}  SSE = {s['sse']:.8g}")
            if s.get("theta_t") is not None:
                lines.append(f"theta_T = {s['theta_t']:.4f} deg  theta_M = {s['theta_m']:.4f} deg"
                             f"  theta_E = {s['theta_e']:.4f} deg")
                lines.append(f"height = {s['height']:.8g}  Ratio = {s['ratio']:.8g}")
            if s.get("unreconstructed"):
                lines.append(f"unreconstructed observations: {s['unreconstructed']}")
        if self.pinwheel is not None:
            lines.append("pinwheel lines:")
            for rec in self.pinwheel:
                if rec["vertical"]:
                    lines.append(f"  {rec['label']}: x = {rec['x_value']:.8g} (vertical)")
                elif rec["slope"] is None:
                    lines.append(f"  {rec['label']}: none")
                else:
                    lines.append(f"  {rec['label']}: y = {rec['slope']:.8g}*x + {rec['intercept']:.8g}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _json(obj, **kwargs) -> str:
    """obj as JSON that a strict parser reads: a number that is not finite
    is written as null."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        return [finite(x) for x in v] if isinstance(v, (list, tuple)) else v
    return json.dumps(finite(obj), allow_nan=False, **kwargs)


def _fmt(v) -> str:
    return "-" if v is None or not math.isfinite(v) else f"{v:.6g}"


def _coeff_rows(fit: fitters.FitResult) -> list[dict]:
    return [{"term": label, "value": float(v), "stderr": float(se), "t_stat": float(t)}
            for label, v, se, t in zip(fit.column_labels, fit.coeffs, fit.stderr, fit.t_stats)]


def _fit_fields(fit: fitters.FitResult) -> dict:
    """Report fields of a least-squares fit."""
    return {"coefficients": _coeff_rows(fit), "r_squared": fit.r_squared,
            "r2_formula": fit.r2_formula, "sigma2_hat": fit.sigma2_hat, "f_stat": fit.f_stat}


def _rotation_model(pivot: terms.Term, term_list) -> dict:
    return {"kind": "rotation", "lhs": pivot.label(),
            "terms": [t.label() for t in term_list], "intercept": True}


def _add_separation(report: Report, sep: diagnostics.SeparationDiagnostics) -> None:
    report.separation = dataclasses.asdict(sep)
    if sep.warning:
        report.warnings.append(sep.warning)


def _conic_dict(c: conics.ConicCoeffs, warnings: list[str]) -> dict:
    kind = conics.classify_conic(c)
    out: dict[str, Any] = {"class": kind.value, "coeffs": list(c.as_array())}
    if kind in (conics.ConicClass.CIRCLE, conics.ConicClass.ELLIPSE):
        try:
            g = conics.conic_geometry(c)
            out["center"] = list(g.center)
            out["semi_axes"] = list(g.semi_axes)
            out["rotation"] = g.rotation
        except (NotAnEllipse, NotRepresentable) as exc:
            warnings.append(str(exc))
    return out


# --- model dispatch -------------------------------------------------------

# The flags of a model request that each model never reads.  Given, they are
# refused rather than ignored: standard's explanatory columns are every
# column but --response-col, and univariate reads the --y-col column alone.
_UNREAD = {"nonresponse": ("response_col",), "rotation": ("response_col",),
           "standard": ("terms", "x_col", "y_col"),
           "univariate": ("terms", "x_col", "response_col")}


def _columns(args) -> tuple[str, str]:
    """The x and y column names: --x-col and --y-col, default x and y."""
    return ("x" if args.x_col is None else args.x_col,
            "y" if args.y_col is None else args.y_col)


def _report(args, diagnose: bool = False) -> Report:
    """The fit report of args.model; with diagnose, also its separation
    diagnostics (and the pinwheel lines of the two-term unit-constant fit).
    The whole request is checked before the input is opened, so a bad
    request exits 2 whatever the data."""
    rotation = args.model.startswith("rotation:")
    if not rotation and args.model not in ("nonresponse", "standard", "univariate"):
        raise InvalidSpec(f"unknown model {args.model!r}")
    if args.model == "univariate" and diagnose:
        raise InvalidSpec("diagnose supports nonresponse, rotation, and standard models")
    kind = "rotation" if rotation else args.model
    for flag in _UNREAD[kind]:
        if getattr(args, flag) is not None:
            raise InvalidSpec(f"the {kind} model takes no --{flag.replace('_', '-')}")
    x_col, y_col = _columns(args)
    if args.model == "univariate":
        (y,) = terms._read_columns(args.input, lambda header: (y_col,))[1].T
        res = fitters.univariate_nra(y)
        return Report(
            model={"kind": "univariate", "lhs": "unity", "terms": [y_col],
                   "intercept": False},
            coefficients=[{"term": y_col, "value": res.alpha,
                           "stderr": None, "t_stat": None}],
            r_squared=res.r2, r2_formula=fitters.R2_UNIVARIATE,
            univariate=dataclasses.asdict(res))
    if args.model == "standard":
        response = "y" if args.response_col is None else args.response_col
        md = terms.load_multi_csv(args.input, response)
        fit = fitters.fit_standard(md)
        model = {"kind": "standard", "lhs": response,
                 "terms": list(md.column_names), "intercept": True}
    else:
        term_list = terms.parse_terms("x,y" if args.terms is None else args.terms)
        if rotation:
            pivot_txt = args.model.split(":", 1)[1]
            pivot_term, *more = terms.parse_terms(pivot_txt)
            if more:
                raise InvalidSpec(f"rotation pivot {pivot_txt!r} must be one term")
            if pivot_term not in term_list:
                raise InvalidSpec(f"rotation pivot {pivot_txt!r} not in term list")
            pivot = term_list.index(pivot_term)
            terms.ModelSpec.rotation(term_list, pivot)
            model = _rotation_model(pivot_term, term_list)
        else:
            terms.ModelSpec.nonresponse(term_list)
            if diagnose and not set(term_list) <= set(terms.CONIC_TERMS):
                raise InvalidSpec("diagnosis needs terms drawn from {x, y, xy, x2, y2}")
            model = {"kind": "nonresponse", "lhs": "unity",
                     "terms": [t.label() for t in term_list], "intercept": False}
        d = terms.load_csv(args.input, x_col, y_col)
        fit = (fitters.fit_rotation(d, term_list, pivot) if rotation
               else fitters.fit_nonresponse(d, term_list))
    report = Report(model, **_fit_fields(fit))
    if args.model != "nonresponse":
        if diagnose:
            _add_separation(report, diagnostics.separation_univariate(fit.target, fit.fitted))
        return report
    try:
        c = conics.ConicCoeffs.from_fit(fit)
    except InvalidSpec:
        if diagnose:
            raise
        return report
    report.conic = _conic_dict(c, report.warnings)
    if not diagnose:
        return report
    _add_separation(report, diagnostics.separation_from_conic(c, d))
    if set(term_list) == {terms.Term(1, 0), terms.Term(0, 1)}:
        lines = diagnostics.pinwheel_data(d)
        report.pinwheel = [dataclasses.asdict(p) for p in lines]
        if any(p.missing for p in lines):
            report.warnings.append("no unit-constant line: 1 = a1*x + a2*y cannot represent "
                                   "data centred on the origin")
    return report


def cmd_fit(args) -> str:
    """The report of fit, or of diagnose with its separation diagnostics."""
    report = _report(args, diagnose=args.command == "diagnose")
    return report.to_json() if args.output == "json" else report.to_text()


def cmd_rotate_all(args) -> str:
    term_list = terms.parse_terms(args.terms)
    terms.ModelSpec.rotation(term_list, 0)      # at least two terms
    d = terms.load_csv(args.input, *_columns(args))
    reports = []
    for term, result in zip(term_list, fitters.fit_all_rotations(d, term_list)):
        model = _rotation_model(term, term_list)
        if isinstance(result, Exception):
            reports.append(Report(model, [], warnings=[f"{type(result).__name__}: {result}"]))
        else:
            reports.append(Report(model, **_fit_fields(result)))
    if args.output == "json":
        return _json([r.to_dict() for r in reports], indent=2)
    return "\n\n".join(r.to_text() for r in reports)


# Kind -> class in implicitreg.simulate, whose fields are its parameters.  The
# module is imported by cmd_simulate alone, so fit and diagnose start without it.
_SIM_KINDS = {"line": "Line", "circle": "Circle", "ellipse": "Ellipse",
              "normal": "ConstantNormal", "uniform": "Uniform"}


def _floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",")] if text else []
    except ValueError:
        raise InvalidSpec(f"{flag} takes comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise InvalidSpec(f"{flag} takes finite numbers, got {text!r}")
    return values


def cmd_simulate(args) -> Iterable[str]:
    from . import simulate

    cls = getattr(simulate, _SIM_KINDS[args.kind])
    names = [f.name for f in dataclasses.fields(cls)]
    values = _floats(args.params, "--params")
    if len(values) != len(names):
        raise InvalidSpec(f"kind {args.kind} takes parameters {','.join(names)}")
    spec = simulate.GeneratorSpec(kind=cls(*values), n=args.n,
                                  noise_sigma=args.noise, seed=args.seed)
    out = simulate.generate(spec)
    # The sample is drawn whole before its rows are streamed, so a failure
    # comes before the first block.
    if isinstance(out, terms.Dataset):
        return terms._csv_blocks(["x", "y"], [out.x, out.y], "\n")
    return terms._csv_blocks(["y"], [out], "\n")


def cmd_convert(args) -> str:
    values = _floats(args.values, "--values")
    if not values:
        raise InvalidSpec("--values takes at least one number")
    # beta-from-alpha is fitters.beta_from_alpha, and its output is beta.
    out = getattr(fitters, args.direction.replace("-", "_"))(values)
    label = args.direction.split("-")[0]
    if args.output == "json":
        return _json({label: [float(v) for v in out]})
    return f"{label} = " + ", ".join(f"{v:.12g}" for v in out)


class _Parser(argparse.ArgumentParser):
    """Argument refusals raise InvalidSpec: one error: line, exit 2, as in main."""

    def error(self, message):
        raise InvalidSpec(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="implicitreg", description="Implicit regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--x-col", default=None, help="default x")
        p.add_argument("--y-col", default=None, help="default y")
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--out-file", default=None)

    def model(p):
        p.add_argument("--model", required=True,
                       help="nonresponse | rotation:<term> | standard | univariate")
        p.add_argument("--response-col", default=None, help="standard only; default y")
        p.add_argument("--terms", default=None, help="default x,y; standard and univariate "
                       "take none")
        p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fit", help="fit one model")
    common(p)
    model(p)

    p = sub.add_parser("rotate-all", help="fit every rotation of a term set")
    common(p)
    p.add_argument("--terms", required=True)
    p.set_defaults(func=cmd_rotate_all)

    p = sub.add_parser("diagnose", help="fit plus separation diagnostics")
    common(p)
    model(p)

    p = sub.add_parser("simulate", help="emit a seeded synthetic dataset as CSV")
    p.add_argument("--kind", choices=sorted(_SIM_KINDS), required=True)
    p.add_argument("--params", default="",
                   help="comma-separated kind parameters, e.g. cx,cy,r for circle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-file", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convert", help="convert between coefficient forms")
    p.add_argument("--direction", choices=("beta-from-alpha", "alpha-from-beta"),
                   required=True)
    p.add_argument("--values", required=True, help="comma-separated coefficients")
    p.add_argument("--output", choices=("text", "json"), default="text")
    p.add_argument("--out-file", default=None)
    p.set_defaults(func=cmd_convert)
    return parser


# The exit code of a failure, by the first kind it is an instance of.
_EXITS = ((InputError, EXIT_INPUT), (OSError, EXIT_INPUT), (DegenerateError, EXIT_DEGENERATE),
          (DomainViolation, EXIT_DOMAIN), (Exception, EXIT_INTERNAL))


def main(argv=None) -> int:
    """Parse argv, run its command, then write its output: a report, or a
    stream of text blocks.  A failure leaves --out-file unopened.  A reader
    that leaves stdout early ends the run with EXIT_PIPE and nothing on
    stderr; stdout then points at os.devnull, so that the interpreter's
    last flush stays quiet."""
    try:
        args = build_parser().parse_args(argv)
        output = args.func(args)
        blocks = (output, "\n") if isinstance(output, str) else output
        if args.out_file:
            with open(args.out_file, "w", encoding="utf-8") as fh:
                fh.writelines(blocks)
        else:
            try:
                sys.stdout.writelines(blocks)
                sys.stdout.flush()
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return EXIT_PIPE
        return EXIT_OK
    except Exception as exc:    # the last kind in _EXITS: any other failure is a bug
        code = next(code for kind, code in _EXITS if isinstance(exc, kind))
        what = "error" if code != EXIT_INTERNAL else f"internal error: {type(exc).__name__}"
        print(f"{what}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
