"""Exception hierarchy for the curvlike package."""


class CurvlikeError(Exception):
    """Base class for all curvlike errors."""


class InvalidDimension(CurvlikeError):
    """Dimension outside the supported range."""


class DimensionMismatch(CurvlikeError):
    """Operands with incompatible shapes."""


class NotUnitVector(CurvlikeError):
    """Vector is not unit length within tolerance."""


class NonOrthonormalPair(CurvlikeError):
    """Two vectors fail the orthonormality precondition."""


class InvalidTensor(CurvlikeError):
    """Tensor fails the curvature symmetry validation."""


class NotOrthogonal(CurvlikeError):
    """Matrix is not orthogonal within tolerance."""


class BundleTooSmall(CurvlikeError):
    """Bundle dimension is below the tangent dimension required by the check."""


class BundleDimensionMismatch(CurvlikeError):
    """Bundle dimension incompatible with the requested structure."""


class LengthMismatch(CurvlikeError):
    """Vector argument of unexpected length."""


class InvalidParams(CurvlikeError):
    """Family or model parameters are missing or out of range."""


class OddDimension(CurvlikeError):
    """Proper slant structures require an even tangent dimension."""


class ParseError(CurvlikeError):
    """File is not well-formed JSON."""


class ValidationError(CurvlikeError):
    """Input violates a schema or invariant; the message names the field."""
