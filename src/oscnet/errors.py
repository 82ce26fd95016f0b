"""Exception types shared across the package."""


class OscnetError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(OscnetError, ValueError):
    """Invalid input data: shape, symmetry, sign, or normalization violations."""


class ConfigError(ValidationError):
    """Invalid run configuration; carries the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class NonPositiveNormalMode(OscnetError):
    """The coupling matrix has a normal-mode frequency that is not positive."""


class NonDissipativeMode(OscnetError):
    """An eigenvalue of the dissipative generator has a non-positive real part."""


class DefectiveMatrix(OscnetError):
    """Eigenvector matrix is too ill-conditioned for a reliable similarity transform."""


class SingularSystem(OscnetError):
    """Stationary width is undefined: an undamped eigenvalue pair makes the
    linear system singular."""


class SingularWidth(OscnetError):
    """P-function width matrix is singular (no diffusion has accumulated)."""


class NullState(ValidationError):
    """State definition collapses to the zero vector and cannot be normalized."""


class NoBracket(OscnetError):
    """Root not bracketed on the supplied time grid; extend the grid."""


class RootNotConverged(OscnetError):
    """A root finder ran out of iterations before meeting its tolerance."""


class CutoffOverflow(OscnetError):
    """Truncated Fock space is too small for the requested state or evolution."""


class QuadratureNotConverged(OscnetError):
    """Doubling the quadrature nodes changed the result by more than the tolerance."""
