"""Implicit regression toolkit.

Non-response analysis (unity as the regressand), rotational analysis
(each model term rotated into the response slot), standard regression as
a special case, conic detection and inversion, and triangle-based
separation diagnostics.
"""

from .conics import (
    ConicClass,
    ConicCoeffs,
    ConicGeometry,
    classify_conic,
    conic_geometry,
    invert_rotation_linear,
    solve_for_x,
    solve_for_y,
)
from .diagnostics import (
    OrthogonalityCheck,
    PinwheelLine,
    SeparationDiagnostics,
    ols_orthogonality_check,
    pinwheel_data,
    reconstruct_from_conic,
    separation_bivariate,
    separation_univariate,
)
from .fitters import (
    FitResult,
    UnivariateResult,
    alias_matrix,
    alpha_from_beta,
    beta_from_alpha,
    fit_all_rotations,
    fit_implicit,
    fit_nonresponse,
    fit_rotation,
    fit_standard,
    nra2_closed,
    slr_closed,
    univariate_nra,
)
from .simulate import Circle, ConstantNormal, Ellipse, GeneratorSpec, Line, Uniform, generate
from .terms import (
    CONIC_TERMS,
    Dataset,
    LhsKind,
    ModelSpec,
    MultiDataset,
    Term,
    design_matrix,
    load_csv,
    load_multi_csv,
    parse_terms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
