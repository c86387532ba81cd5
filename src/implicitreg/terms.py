"""Term algebra, term evaluation and dataset ingestion.

A Term is the monomial x^a * y^b.  Model columns are terms evaluated
row-wise over a two-variable dataset; the target column is either the
unity vector, one pivot term, or an external response column.  Every term
is evaluated by one block source, _source: Term.evaluate, every fit and
the pinwheel lines fill their columns through it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence, Union

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
)


@dataclass(frozen=True)
class Term:
    """Monomial x^x_exp * y^y_exp.  Term(0, 0) is the intercept column."""

    x_exp: float
    y_exp: float

    def __post_init__(self):
        # Each exponent is kept as a Python float, so that a label, which
        # prints it, parses back whatever real type it was given as.
        for name in ("x_exp", "y_exp"):
            e = getattr(self, name)
            try:
                f = float(e) if isinstance(e, numbers.Real) else math.nan
            except OverflowError:       # an int beyond the float range
                f = math.inf
            if not math.isfinite(f):
                raise InvalidSpec(f"a term's exponents must be finite real numbers, not {e!r}")
            object.__setattr__(self, name, f)

    def evaluate(self, x, y) -> np.ndarray:
        """x^x_exp * y^y_exp entrywise, in float: one fill of the block
        source of this term alone.  A zero exponent contributes 1, also at
        0 (the intercept convention).  DomainError names the first entry,
        counted from 1, where the value is not finite."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = np.empty((1, x.size))
        _source([self], x.ravel(), y.ravel())(out, 0, x.size)
        return out.reshape(x.shape)

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


def _power(base: np.ndarray, exp: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """base^exp for exp != 0, unchecked: into out when given, else base
    itself for exp 1 and a new array otherwise.  Outside the domain the
    entries are NaN or inf.

    An integral power is taken of |base| and the sign restored for odd
    exponents, since numpy's vector pow takes a slow element-by-element
    path on negative bases.  Powers 1 and 2 are a copy and a square, which
    give the same values as pow at a fraction of its cost.
    """
    if exp == 1:
        if out is None:
            return base
        np.copyto(out, base)
    elif exp == 2:
        out = np.square(base, out=out)
    elif float(exp).is_integer():
        out = np.power(np.abs(base, out=out), exp, out=out)
        if exp % 2:
            np.copysign(out, base, out=out)
    else:
        out = np.power(base, exp, out=out)
    return out


ROW_BLOCK = 8192            # rows per block: of Z in a fit, of text in a CSV body
Column = Union[np.ndarray, Term, float]        # a column of Z: a vector, a term or a constant
Fill = Callable[[np.ndarray, int, int], None]   # fill(out, a, b): rows a..b of Z' into out


def _source(columns: Sequence[Column], x: Optional[np.ndarray] = None,
            y: Optional[np.ndarray] = None) -> Fill:
    """The block source of Z = [columns], the one evaluator of terms:
    fill(out, a, b) writes rows a..b of Z, transposed, into out.

    A column is a vector, which is sliced; a constant; or a Term x^a y^b of
    the float vectors x and y.  The terms of a block are made from one power
    table: each distinct power x^a or y^b is computed once (_power), into
    the row of the term that is that power alone where there is one, and
    each product term is written in place as the product of its two powers.
    A term is undefined where its value is not finite.  The term rows are
    checked once per block, by their sums, which are finite only when every
    entry is; when a sum is not, DomainError names the first data row with
    a non-finite term entry and, on that row, the first such term in column
    order, so the answer does not depend on the block size.
    """
    terms = [(i, [(v, e) for v, e in ((0, col.x_exp), (1, col.y_exp)) if e != 0])
             for i, col in enumerate(columns) if isinstance(col, Term)]
    home: dict[tuple[int, float], int] = {}     # a power -> the row of the term it is alone
    for i, powers in terms:
        if len(powers) == 1:
            home.setdefault(powers[0], i)
    keys = list(dict.fromkeys(p for _, powers in terms for p in powers))
    products = [(i, powers) for i, powers in terms if i not in home.values()]
    rows = [i for i, _ in terms]
    span = slice(rows[0], rows[-1] + 1) if rows else None      # the term rows

    def fill(out: np.ndarray, a: int, b: int) -> None:
        for row, col in zip(out, columns):
            if not isinstance(col, Term):
                row[:] = col[a:b] if isinstance(col, np.ndarray) else col
        if span is None:
            return
        data = (x[a:b], y[a:b])
        with np.errstate(all="ignore"):
            table = {}
            for v, e in keys:
                i = home.get((v, e))
                dest = out[i] if i is not None else None if e == 1 else np.empty(b - a)
                table[v, e] = _power(data[v], e, dest)
            for i, powers in products:
                if len(powers) == 2:
                    np.multiply(table[powers[0]], table[powers[1]], out=out[i])
                else:
                    out[i] = table[powers[0]] if powers else 1.0
            finite = np.isfinite(np.add.reduce(out[span], axis=1)).all()
        if not finite:
            bad = ~np.isfinite(out[rows])
            if bad.any():
                row = int(np.argmax(bad.any(axis=0)))
                raise DomainError(a + row + 1, columns[rows[int(np.argmax(bad[:, row]))]])
    return fill


def _observations(*columns) -> list[np.ndarray]:
    """The columns as float vectors, with the checks of a Dataset: one
    dimension and one length, at least one row, and finite entries."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
        raise InvalidSpec("the observations must be equal-length vectors")
    if len(columns[0]) < 1:
        raise EmptyDataset("dataset has no observations")
    if not all(np.isfinite(c).all() for c in columns):
        raise InvalidSpec("dataset entries must be finite")
    return columns


@dataclass(frozen=True)
class Dataset:
    """Paired observations (x_i, y_i), i = 1..n."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = _observations(self.x, self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

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
        expl = np.asarray(self.explanatory, dtype=float)
        if expl.ndim == 1:
            expl = expl[:, None]
        object.__setattr__(self, "response", _observations(self.response, *expl.T)[0])
        object.__setattr__(self, "explanatory", expl)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if expl.shape[1] != len(self.column_names):
            raise InvalidSpec("one name per explanatory column required")

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
        if self.lhs is not LhsKind.RESPONSE and not all(isinstance(t, Term)
                                                        for t in self.rhs_terms):
            raise InvalidSpec(f"the rhs_terms of a {self.lhs.value} model must be Terms")
        seen = set(self.rhs_terms)
        if len(seen) < len(self.rhs_terms):
            rhs = self.rhs_terms
            raise DuplicateTerm(next(t for i, t in enumerate(rhs) if t in rhs[:i]))
        if self.lhs is LhsKind.UNITY and (self.intercept or Term(0, 0) in seen):
            raise InvalidSpec("the unity-regressand model carries no intercept, so no term 1")
        if self.lhs is LhsKind.TERM:
            if not isinstance(self.lhs_term, Term):
                raise InvalidSpec("a Term lhs_term required when lhs is a term")
            if self.lhs_term in seen:
                raise InvalidSpec("pivot term must be excluded from rhs_terms")
        elif self.lhs_term is not None:
            raise InvalidSpec("lhs_term only meaningful when lhs is a term")

    @classmethod
    def nonresponse(cls, terms: Sequence[Term]) -> "ModelSpec":
        return cls(LhsKind.UNITY, tuple(terms), intercept=False)

    @classmethod
    def rotation(cls, terms: Sequence[Term], pivot: int) -> "ModelSpec":
        terms = tuple(terms)
        if len(terms) < 2:
            raise InvalidSpec("a rotation needs at least two terms")
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

# An exponent as Term.label writes it: an integer, a decimal, or repr's 1e-05.
_FACTOR_RE = re.compile(r"^(x|y)(?:\^(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?))?$")

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
    try:
        return Term(x_exp, y_exp)
    except InvalidSpec:         # x^1e400, x^1e308*x^1e308
        raise TermSyntaxError(token) from None


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


# numpy's path reader decompresses files named with these suffixes.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_columns(path, select: Callable[[list[str]], Sequence[str]]
                  ) -> tuple[list[str], np.ndarray]:
    """Parse named columns of a UTF-8 CSV (BOM optional) with one header row.

    select(header) gives the names to read; returns them and an (n, k) float
    array, one column per name.  np.loadtxt parses the body and its result
    stands when every value is finite.  Otherwise a csv row loop reads on
    from the handle that read the header and decides: it raises ParseError
    at the first bad cell (data rows numbered from 1, blank lines skipped
    and not counted), or returns what float() reads where loadtxt does not,
    such as Unicode digits and "1_0".

    A regular file goes to loadtxt by its absolute path, so numpy's C reader
    takes it in chunks rather than one Python line at a time; the absolute
    form keeps a relative name such as "http://h/x.csv" from reading as a
    URL.  Any other body, such as a pipe, which can be read only once, or a
    name with a compression suffix, which numpy would decompress, is read
    into memory once as lines that loadtxt and the row loop share.
    """
    row = None      # data rows read so far, to place a csv.Error; None in the header
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            row = 0
            names = list(select(header))
            _header(header, names)
            usecols = [header.index(c) for c in names]
            name = os.path.abspath(os.fsdecode(path))
            if os.path.isfile(name) and not name.lower().endswith(_COMPRESSED_SUFFIXES):
                body, skip, lines = name, reader.line_num, fh   # physical lines, as loadtxt counts
            else:
                body, skip = list(fh), 0
                lines = iter(body)
            # loadtxt warns on a body with no rows, so look for one first.
            first = next((line for line in lines if line.strip("\r\n")), None)
            if first is None:
                raise EmptyDataset(f"{path}: no data rows")
            try:
                values = np.loadtxt(body, delimiter=",", comments=None, quotechar='"',
                                    ndmin=2, skiprows=skip, encoding="utf-8-sig",
                                    usecols=usecols)
            except UnicodeDecodeError:
                raise
            except ValueError:
                pass
            else:
                if np.isfinite(values).all():
                    return names, values
            rows = []
            records = (r for r in csv.reader(itertools.chain((first,), lines)) if r)
            for row, record in enumerate(records, start=1):
                # A short row leaves its missing cells None, as csv.DictReader does.
                rows.append([_parse_cell(record[i] if i < len(record) else None, row, c)
                             for i, c in zip(usecols, names)])
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:    # say, a cell over csv's field size limit
        where = "header" if row is None else f"data row {row + 1}"
        raise InputError(f"{path}: {where}: {exc}") from None
    return names, np.array(rows)


def load_csv(path, x_col: str = "x", y_col: str = "y") -> Dataset:
    """Read a two-column dataset from a UTF-8 CSV (BOM optional) with one header row.

    Columns are found by name; data rows are numbered from 1 in error reports.
    x and y are views of the one (n, 2) parse, so each value is held once.
    """
    _, values = _read_columns(path, lambda header: (x_col, y_col))
    return Dataset(values[:, 0], values[:, 1])


def load_multi_csv(path, response_col: str) -> MultiDataset:
    """Read a response column plus every remaining column as explanatory,
    both views of the one parse."""
    def columns(header: list[str]) -> list[str]:
        expl_cols = [c for c in header if c != response_col]
        if response_col in header and not expl_cols:
            raise NamedColumnMissing("<explanatory>")
        return [response_col, *expl_cols]

    names, values = _read_columns(path, columns)
    return MultiDataset(values[:, 0], values[:, 1:], tuple(names[1:]))


def _csv_blocks(names: Sequence[str], columns: Sequence[np.ndarray],
                lineterminator: str = "\r\n") -> Iterator[str]:
    """The CSV text of named columns, as csv.writer would write it, in
    blocks: the header, then ROW_BLOCK rows at a time.  Only the header
    goes through the writer: repr of a float cannot need quoting."""
    head = io.StringIO()
    csv.writer(head, lineterminator=lineterminator).writerow(names)
    yield head.getvalue()
    row = ",".join(["{!r}"] * len(columns)) + lineterminator
    for a in range(0, len(columns[0]), ROW_BLOCK):
        yield "".join(map(row.format, *(c[a:a + ROW_BLOCK].tolist() for c in columns)))


def save_csv(path, d: Dataset, x_col: str = "x", y_col: str = "y") -> None:
    """Write the dataset as csv.writer would, streamed in row blocks."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(_csv_blocks([x_col, y_col], [d.x, d.y]))
