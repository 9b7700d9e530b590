"""Exception types for invalid dimensions, labels, and malformed inputs."""


class UnsupportedDimensionError(ValueError):
    """Dimension is 2 or smaller; halving residues needs an odd prime."""


class NotPrimeError(ValueError):
    """Dimension is composite."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or belong to different dimensions."""


class NonHermitianInputError(ValueError):
    """A matrix that must be Hermitian is not, within tolerance."""


class NormOutOfRangeError(ValueError):
    """A matrix norm is too large for the float range of the computation it scales."""


class MissingLineError(ValueError):
    """A quasi-distribution does not cover every line label exactly once."""


class IncompleteProbabilitiesError(ValueError):
    """A probability table does not cover every point label exactly once."""


class ColumnNotNormalizedError(ValueError):
    """A probability table has a basis column that does not sum to one."""

