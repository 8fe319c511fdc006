"""Restricted two-qubit state families with closed-form structure.

Two families are implemented and cross-verified against a generic Wootters
concurrence pipeline: the X-patterned states and the family invariant
under permutations of the first three basis states, together with the
subgroup facts of the four-point symmetric group that the construction
rests on.

``import sqw`` loads no submodule: a public name or submodule is imported on first
access (PEP 562) and read from its home module each time, never copied here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each submodule and the public names it exports through the package.
_EXPORTS = {
    "errors": (
        "InvalidState", "NormalizationViolated", "NotHermitian", "NotPSD",
        "OutsideValidityWindow", "PreconditionViolated", "TraceNotOne",
    ),
    "linalg": ("herm_eigen",),
    "report": ("CheckResult", "Report", "check_s3_relations", "check_x_relations"),
    "twoqubit": (
        "ConcurrenceReport", "DensityMatrix", "concurrence_oracle",
        "entanglement_of_formation", "purity", "validate_density",
    ),
    "xworld": ("PureXClass", "XCoeffs", "assemble_x", "classify_pure_x", "x_spectrum"),
    "s3world": (
        "GainResult", "MeasurementAxis", "S3Coeffs", "assemble_s3", "concurrence_closed",
        "gain", "gain_closed_form", "gain_curve", "ie_reach", "ie_state", "is_pure",
        "maximize_gain", "mean_values", "measure_update", "measure_update_matrix",
        "reduce_five_coeff", "s3_spectrum", "swap_concurrence", "t_grid", "t_param",
    ),
    "permworld": (
        "Perm4", "Subgroup", "classify", "enumerate_subgroups", "generate",
        "perm_matrix", "stabilizer",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
