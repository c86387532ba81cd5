"""Implicit regression toolkit.

Non-response analysis (unity as the regressand), rotational analysis
(each model term rotated into the response slot), standard regression as
a special case, conic detection and inversion, and triangle-based
separation diagnostics.

The package root is lazy (PEP 562): ``import implicitreg`` loads neither
numpy nor any submodule, and each public name imports its submodule on
first access.  That lets ``implicitreg.cli`` configure the process before
numpy loads.
"""

import importlib

_EXPORTS = {
    "conics": ("ConicClass", "ConicCoeffs", "ConicGeometry", "classify_conic",
               "conic_geometry", "solve_for_y"),
    "diagnostics": ("OrthogonalityCheck", "PinwheelLine", "SeparationDiagnostics",
                    "ols_orthogonality_check", "pinwheel_data", "reconstruct_from_conic",
                    "separation_bivariate", "separation_from_conic", "separation_univariate"),
    "errors": (),
    "fitters": ("FitResult", "UnivariateResult", "alias_matrix", "alpha_from_beta",
                "beta_from_alpha", "fit_all_rotations", "fit_nonresponse", "fit_rotation",
                "fit_standard", "nra2_closed", "slr_closed", "univariate_nra"),
    "simulate": ("Circle", "ConstantNormal", "Ellipse", "GeneratorSpec", "Line", "Uniform",
                 "generate"),
    "terms": ("CONIC_TERMS", "Dataset", "LhsKind", "ModelSpec", "MultiDataset", "Term",
              "load_csv", "load_multi_csv", "parse_terms"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
