"""Exception and warning types shared across the package."""


class StokesGreenError(Exception):
    """Base class for all errors raised by this package."""


class BranchCutViolation(StokesGreenError):
    """lambda + nu*|xi|^2 landed on the branch cut (-inf, 0] of the square root."""


class ZeroModeUnsupported(StokesGreenError):
    """The requested operation needs |xi| > 0."""


class PoleOnContour(StokesGreenError):
    """A contour passes too close to a pole of the integrand."""


class PoleHit(StokesGreenError):
    """lambda coincides (within tolerance) with a pole of the resolvent."""


class QuadratureUnderresolved(StokesGreenError):
    """A quadrature is not resolved: doubling its order changed the result more
    than the tolerance, or it returned a non-finite value."""


class GridTooSmall(StokesGreenError):
    """The grid has too few nodes for the requested stencil or quadrature."""


class HypothesisViolated(StokesGreenError):
    """An input fails a hypothesis of the identity or formula it is used in.

    Raised for a boundary operator D that fails the admissibility conditions
    or was built for another mode, and for a Biot-Savart roundtrip input with
    h(0) != 0 or div h != 0.
    """


class IncompatibleData(StokesGreenError):
    """Input data is inconsistent (shapes, compatibility conditions, mode sets)."""


class StabilityWarning(UserWarning):
    """Time step large relative to the diffusive scale; accuracy may degrade."""


class TruncationWarning(UserWarning):
    """Field has non-negligible mass near the domain truncation boundary."""
