"""Mutually unbiased bases for odd prime dimensions, the dual affine plane
incidence geometry underneath them, and exact discrete phase-space mappings."""

from inspect import ismodule as _ismodule

from .core import DEFAULT_EPS, Modulus, is_prime, omega_power
from .errors import (
    ColumnNotNormalizedError,
    DimensionMismatchError,
    IncompleteProbabilitiesError,
    MissingLineError,
    NonHermitianInputError,
    NormOutOfRangeError,
    NotPrimeError,
    UnsupportedDimensionError,
)
from .geometry import (
    CB_COLUMN,
    ApgPoint,
    Line,
    Point,
    SlopedLine,
    VerticalLine,
    apg_line_points,
    duality_common_point,
    line_index,
    line_points,
    lines_through_point,
    point_index,
    verify_apg_axioms,
    verify_dapg_axioms,
    verify_duality,
)
from .mub import (
    mub_state,
    verify_eigenrelation,
    verify_unbiasedness,
)
from .operators import (
    line_operator_direct,
    point_operator_direct,
    verify_operator_identities,
)
from .phasespace import (
    MubProbabilities,
    QuasiDistribution,
    map_operator,
    pair_expectation,
    probabilities_from_state,
    quasi_from_probabilities,
    reconstruct,
    validate_density_matrix,
)
from .report import AxiomReport, Check

__version__ = "0.1.0"

# Every name imported above, and no submodule: `from mubgeo import *` must not
# bind `io`, which would shadow the standard library's.
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not _ismodule(v)]
