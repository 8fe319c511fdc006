"""Restricted two-qubit state families with closed-form structure.

Two families are implemented and cross-verified against a generic Wootters
concurrence pipeline: the X-patterned states and the family invariant
under permutations of the first three basis states, together with the
subgroup facts of the four-point symmetric group that the construction
rests on.
"""

from .errors import (
    InvalidState,
    NormalizationViolated,
    NotHermitian,
    NotPSD,
    OutsideValidityWindow,
    PreconditionViolated,
    TraceNotOne,
)
from .linalg import herm_eigen
from .report import CheckResult, Report
from .twoqubit import (
    ConcurrenceReport,
    DensityMatrix,
    concurrence_oracle,
    entanglement_of_formation,
    purity,
    spin_flip,
    validate_density,
)
from .xworld import PureXClass, XCoeffs, assemble_x, check_x_relations, classify_pure_x, x_spectrum
from .s3world import (
    GainResult,
    MeasurementAxis,
    S3Coeffs,
    assemble_s3,
    check_s3_relations,
    concurrence_closed,
    gain,
    gain_closed_form,
    gain_curve,
    ie_checks,
    ie_reach,
    ie_state,
    is_pure,
    maximize_gain,
    mean_values,
    measure_update,
    measure_update_matrix,
    pure_vector,
    reduce_five_coeff,
    s3_spectrum,
    t_grid,
    t_param,
)
from .permworld import (
    Perm4,
    Subgroup,
    classify,
    enumerate_subgroups,
    generate,
    perm_matrix,
    stabilizer,
)

__version__ = "0.1.0"
