"""Term algebra, dataset ingestion, and design-matrix construction.

A Term is the monomial x^a * y^b.  Model columns are terms evaluated
row-wise over a two-variable dataset; the target column is either the
unity vector, one pivot term, or an external response column.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    DuplicateTerm,
    EmptyDataset,
    InputError,
    InvalidSpec,
    NamedColumnMissing,
    ParseError,
    TermSyntaxError,
    Underdetermined,
)


@dataclass(frozen=True)
class Term:
    """Monomial x^x_exp * y^y_exp.  Term(0, 0) is the intercept column."""

    x_exp: float
    y_exp: float

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x^x_exp * y^y_exp row-wise.  A zero exponent contributes 1, also
        at 0 (the intercept convention).  DomainError names the first row
        where a power is undefined or the product is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            powers = [_pow(base, exp, self)
                      for base, exp in ((x, self.x_exp), (y, self.y_exp)) if exp != 0]
            out = powers[0] if powers else np.ones_like(x, dtype=float)
            if len(powers) == 2:
                out *= powers[1]
        bad = ~np.isfinite(out)
        if bad.any():
            raise DomainError(int(np.argmax(bad)) + 1, self)
        return out

    def label(self) -> str:
        if self.x_exp == 0 and self.y_exp == 0:
            return "1"
        if self.x_exp == 1 and self.y_exp == 1:
            return "xy"
        parts = []
        for sym, e in (("x", self.x_exp), ("y", self.y_exp)):
            if e == 0:
                continue
            if e == 1:
                parts.append(sym)
            else:
                parts.append(f"{sym}^{_fmt_exp(e)}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.label()


def _fmt_exp(e: float) -> str:
    return str(int(e)) if float(e).is_integer() else repr(e)


def _pow(base: np.ndarray, exp: float, term: Term) -> np.ndarray:
    """base^exp for exp != 0, with explicit domain checking instead of
    silent NaN: a fractional exponent of a negative base and a negative
    exponent at zero raise DomainError with the offending row.

    An integral power is taken of |base| and the sign restored for odd
    exponents, since numpy's vector pow takes a slow element-by-element
    path on negative bases.
    """
    integral = float(exp).is_integer()
    if not integral:
        bad = base < 0
        if bad.any():
            raise DomainError(int(np.argmax(bad)) + 1, term)
    if exp < 0:
        bad = base == 0
        if bad.any():
            raise DomainError(int(np.argmax(bad)) + 1, term)
    if not integral:
        return np.power(base, exp)
    out = np.power(np.abs(base), exp)
    if exp % 2:
        np.copysign(out, base, out=out)
    return out


@dataclass(frozen=True)
class Dataset:
    """Paired observations (x_i, y_i), i = 1..n."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.ndim != 1 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise InvalidSpec("x and y must be equal-length vectors")
        if len(self.x) < 1:
            raise EmptyDataset("dataset has no observations")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InvalidSpec("dataset entries must be finite")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class MultiDataset:
    """Response column plus p explanatory columns (linear-in-columns path)."""

    response: np.ndarray
    explanatory: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "response", np.asarray(self.response, dtype=float))
        expl = np.asarray(self.explanatory, dtype=float)
        if expl.ndim == 1:
            expl = expl[:, None]
        object.__setattr__(self, "explanatory", expl)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if expl.shape[0] != len(self.response):
            raise InvalidSpec("explanatory rows must match response length")
        if expl.shape[1] != len(self.column_names):
            raise InvalidSpec("one name per explanatory column required")
        if len(self.response) < 1:
            raise EmptyDataset("dataset has no observations")
        if not (np.all(np.isfinite(self.response)) and np.all(np.isfinite(expl))):
            raise InvalidSpec("dataset entries must be finite")

    @property
    def n(self) -> int:
        return len(self.response)

    @property
    def p(self) -> int:
        return self.explanatory.shape[1]


class LhsKind(Enum):
    UNITY = "unity"
    TERM = "term"
    RESPONSE = "response"


@dataclass(frozen=True)
class ModelSpec:
    """Which column sits on the left, which columns (plus optional intercept)
    sit on the right.  The right-hand columns are terms, except in the
    response kind, where they are the explanatory column names of a
    MultiDataset."""

    lhs: LhsKind
    rhs_terms: tuple[Union[Term, str], ...]
    intercept: bool = False
    lhs_term: Optional[Term] = None

    def __post_init__(self):
        object.__setattr__(self, "rhs_terms", tuple(self.rhs_terms))
        if not self.rhs_terms:
            raise InvalidSpec("rhs_terms must be non-empty")
        seen = set()
        for t in self.rhs_terms:
            if t in seen:
                raise DuplicateTerm(t)
            seen.add(t)
        if self.lhs is LhsKind.UNITY and self.intercept:
            raise InvalidSpec("the unity-regressand model carries no intercept")
        if self.lhs is LhsKind.TERM:
            if self.lhs_term is None:
                raise InvalidSpec("lhs_term required when lhs is a term")
            if self.lhs_term in self.rhs_terms:
                raise InvalidSpec("pivot term must be excluded from rhs_terms")
        elif self.lhs_term is not None:
            raise InvalidSpec("lhs_term only meaningful when lhs is a term")

    @classmethod
    def nonresponse(cls, terms: Sequence[Term]) -> "ModelSpec":
        return cls(LhsKind.UNITY, tuple(terms), intercept=False)

    @classmethod
    def rotation(cls, terms: Sequence[Term], pivot: int) -> "ModelSpec":
        terms = tuple(terms)
        if not 0 <= pivot < len(terms):
            raise InvalidSpec(f"pivot {pivot} out of range")
        rhs = terms[:pivot] + terms[pivot + 1:]
        return cls(LhsKind.TERM, rhs, intercept=True, lhs_term=terms[pivot])

    def column_labels(self) -> list[str]:
        labels = ["const"] if self.intercept else []
        labels.extend(str(t) for t in self.rhs_terms)
        return labels


# --- term grammar ---------------------------------------------------------

_ALIASES = {
    "x": Term(1, 0),
    "y": Term(0, 1),
    "xy": Term(1, 1),
    "x2": Term(2, 0),
    "y2": Term(0, 2),
    "1": Term(0, 0),
}

_FACTOR_RE = re.compile(r"^(x|y)(?:\^(-?\d+(?:\.\d+)?))?$")

CONIC_TERMS = (Term(1, 0), Term(0, 1), Term(1, 1), Term(2, 0), Term(0, 2))


def parse_terms(spec: str) -> list[Term]:
    """Parse a comma-separated term list, e.g. "x,y,xy,x2,y2" or "x^0.5*y^-1"."""
    terms: list[Term] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise TermSyntaxError(token)
        term = _parse_token(token)
        if term in terms:
            raise DuplicateTerm(term)
        terms.append(term)
    return terms


def _parse_token(token: str) -> Term:
    if token in _ALIASES:
        return _ALIASES[token]
    x_exp = 0.0
    y_exp = 0.0
    for factor in token.split("*"):
        factor = factor.strip()
        if factor in _ALIASES:
            t = _ALIASES[factor]
            x_exp += t.x_exp
            y_exp += t.y_exp
            continue
        m = _FACTOR_RE.match(factor)
        if not m:
            raise TermSyntaxError(token)
        exp = float(m.group(2)) if m.group(2) is not None else 1.0
        if m.group(1) == "x":
            x_exp += exp
        else:
            y_exp += exp
    return Term(x_exp, y_exp)


# --- CSV ingestion --------------------------------------------------------

def _parse_cell(value: str, row: int, column: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ParseError(row, value, column) from None
    if not math.isfinite(v):
        raise ParseError(row, value, column)
    return v


def _header(header: list[str], names: Sequence[str]) -> None:
    """Reject a header that lacks a column to be read or repeats one.

    DictReader maps a repeated name to its last column, so reading that name
    would silently take another column's data; repeats among the columns not
    read (say, empty names from trailing commas) are harmless.
    """
    for i, name in enumerate(header):
        if name in names and name in header[:i]:
            raise InvalidSpec(f"duplicate column {name!r} in header")
    for name in names:
        if name not in header:
            raise NamedColumnMissing(name)


def _read_columns(path, select: Callable[[list[str]], Sequence[str]]
                  ) -> tuple[list[str], np.ndarray]:
    """Parse named columns of a UTF-8 CSV (BOM optional) with one header row.

    select(header) gives the names to read; returns them and an (n, k) float
    array, one column per name.  np.loadtxt parses the body and its result
    stands when every value is finite.  Otherwise the csv row loop decides:
    it raises ParseError at the first bad cell (data rows numbered from 1,
    blank lines skipped and not counted), or returns what float() reads where
    loadtxt does not, such as Unicode digits and "1_0".
    """
    row = None      # data rows read so far, to place a csv.Error; None in the header
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), [])
            row = 0
            names = list(select(header))
            _header(header, names)
            # loadtxt warns on a body with no rows, so skip to the first one.
            first = next((line for line in fh if line.strip("\r\n")), None)
            if first is not None:
                try:
                    values = np.loadtxt(itertools.chain((first,), fh), delimiter=",",
                                        comments=None, quotechar='"', ndmin=2,
                                        usecols=[header.index(c) for c in names])
                except UnicodeDecodeError:
                    raise
                except ValueError:
                    pass
                else:
                    if np.isfinite(values).all():
                        return names, values
        rows = []
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row, record in enumerate(csv.DictReader(fh), start=1):
                rows.append([_parse_cell(record[c], row, c) for c in names])
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:    # say, a cell over csv's field size limit
        where = "header" if row is None else f"data row {row + 1}"
        raise InputError(f"{path}: {where}: {exc}") from None
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    return names, np.array(rows)


def load_csv(path, x_col: str = "x", y_col: str = "y") -> Dataset:
    """Read a two-column dataset from a UTF-8 CSV (BOM optional) with one header row.

    Columns are found by name; data rows are numbered from 1 in error reports.
    """
    _, values = _read_columns(path, lambda header: (x_col, y_col))
    # Contiguous columns, as the row loop gave: a strided vector can take
    # another summation order in BLAS, and the reports must not move.
    return Dataset(values[:, 0].copy(), values[:, 1].copy())


def load_multi_csv(path, response_col: str) -> MultiDataset:
    """Read a response column plus every remaining column as explanatory."""
    def columns(header: list[str]) -> list[str]:
        expl_cols = [c for c in header if c != response_col]
        if response_col in header and not expl_cols:
            raise NamedColumnMissing("<explanatory>")
        return [response_col, *expl_cols]

    names, values = _read_columns(path, columns)
    return MultiDataset(values[:, 0].copy(), np.ascontiguousarray(values[:, 1:]),
                        tuple(names[1:]))


def save_csv(path, d: Dataset, x_col: str = "x", y_col: str = "y") -> None:
    """Write the dataset as csv.writer would, one joined string for the body:
    repr of each value cannot need quoting, so only the header goes through
    the writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([x_col, y_col])
        fh.write("".join(f"{xi!r},{yi!r}\r\n" for xi, yi in zip(d.x.tolist(), d.y.tolist())))


# --- design matrix --------------------------------------------------------

def design_matrix(d: Dataset, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the model columns and the target of a term model.

    Column k of W is the k-th rhs term evaluated row-wise, with a leading
    column of ones when the spec carries an intercept.  The target is the
    unity vector or the pivot term.  W is the transpose of a term-major
    block, one contiguous row per column, which the fitters read row by
    row.  The target is a vector of its own, so that a fit's result, which
    keeps its target, does not keep the whole design alive.
    """
    k = len(spec.rhs_terms) + spec.intercept
    Wt = np.empty((k, d.n))
    if spec.intercept:
        Wt[0] = 1.0
    for row, t in zip(Wt[spec.intercept:], spec.rhs_terms):
        row[:] = t.evaluate(d.x, d.y)
    target = np.ones(d.n) if spec.lhs is LhsKind.UNITY else spec.lhs_term.evaluate(d.x, d.y)
    if d.n < k:
        raise Underdetermined(f"{d.n} observations for {k} columns")
    return Wt.T, target
