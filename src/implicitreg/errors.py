"""Exception hierarchy shared by every module.

Exit-code mapping for the CLI lives in cli.py; the hierarchy here groups
errors by cause (input, degeneracy, domain) so the CLI can map whole
branches at once.
"""


class ImplicitRegError(Exception):
    """Base class for every error raised by this package."""


# --- input / parse errors -------------------------------------------------

class InputError(ImplicitRegError):
    pass


class NamedColumnMissing(InputError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column!r} not found in header")


class ParseError(InputError):
    def __init__(self, row, value, column=None):
        self.row = row
        self.value = value
        self.column = column
        where = f" in column {column!r}" if column else ""
        super().__init__(f"non-numeric or non-finite value {value!r} at data row {row}{where}")


class EmptyDataset(InputError):
    pass


class TermSyntaxError(InputError):
    def __init__(self, token):
        self.token = token
        super().__init__(f"cannot parse term {token!r}")


class DuplicateTerm(InputError):
    def __init__(self, term):
        self.term = term
        super().__init__(f"duplicate term {term}")


class InvalidSpec(InputError):
    pass


# --- degeneracy errors ----------------------------------------------------

class DegenerateError(ImplicitRegError):
    pass


class SingularSystem(DegenerateError):
    pass


class Underdetermined(DegenerateError):
    pass


class ZeroVariance(DegenerateError):
    pass


class MeanUndefined(DegenerateError):
    """Sum of y is zero while sum of squares is positive: the reciprocal
    mean does not exist.  The slope and fit measure are still well defined
    and are carried on the exception."""

    def __init__(self, alpha=0.0, r2=0.0):
        self.alpha = alpha
        self.r2 = r2
        super().__init__("self-weighting mean undefined: sum of values is zero")


class ConversionUndefined(DegenerateError):
    pass


class NotAnEllipse(DegenerateError):
    pass


class NotRepresentable(DegenerateError):
    """The relation cannot be written with unit constant term (the curve
    passes through the configuration where the normalization degenerates)."""


class InterceptRequired(DegenerateError):
    pass


# --- domain errors --------------------------------------------------------

class DomainViolation(ImplicitRegError):
    pass


class DomainError(DomainViolation):
    def __init__(self, row, term):
        self.row = row
        self.term = term
        super().__init__(f"term {term} undefined at data row {row}")


class SumOfSquaresOverflow(DomainViolation):
    """A sum of squares in the data's units leaves the float range: it
    overflows (data near 1e200 and above), or it underflows to 0 from
    deviations that are not 0 (data near 1e-200 and below).  The
    coefficients may exist; their fit statistics do not."""

    def __init__(self, underflow: bool = False):
        super().__init__("a sum of squares underflows to 0: it is outside the float range; "
                         "rescale the data" if underflow else
                         "a sum of squares is beyond the float range; rescale the data")


class NoSolutionAtPoint(DomainViolation):
    pass


class PoleAtPoint(DomainViolation):
    pass


class TriangleViolation(DomainViolation):
    def __init__(self, argument):
        self.argument = argument
        super().__init__(f"law-of-cosines argument {argument} outside [-1, 1] beyond tolerance")
