"""Exception types shared across the package, and its one byte limit.

Every refusal before an allocation passes its predicted bytes to
:func:`_check_bytes`, which raises a :class:`ValidationError` naming them and
``_BYTE_LIMIT`` (1 GiB); each caller counts the arrays it allocates itself.
"""

import math

__all__ = [
    "OscnetError",
    "ValidationError",
    "ConfigError",
    "NonPositiveNormalMode",
    "NonDissipativeMode",
    "DefectiveMatrix",
    "SingularSystem",
    "SingularWidth",
    "NullState",
    "NoBracket",
    "RootNotConverged",
    "CutoffOverflow",
    "PositivityLost",
    "QuadratureNotConverged",
]


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
    linear system singular, or the width passes the float range."""


class SingularWidth(OscnetError):
    """A width matrix is not positive definite, so no Gaussian has it, or its
    determinant is below the floor of the P and Wigner evaluators."""


class NullState(ValidationError):
    """State definition collapses to the zero vector and cannot be normalized."""


class NoBracket(OscnetError):
    """Brent's method was given an interval whose ends have the same sign."""


class RootNotConverged(OscnetError):
    """A root finder ran out of iterations before meeting its tolerance."""


class CutoffOverflow(OscnetError):
    """Truncated Fock space is too small for the requested state or evolution."""


class PositivityLost(OscnetError):
    """The evolved density matrix gained a negative eigenvalue: the master
    equation's rates do not keep every state positive."""


class QuadratureNotConverged(OscnetError):
    """Doubling the quadrature nodes changed the result by more than the tolerance."""


_BYTE_LIMIT = 1 << 30  # largest predicted size of one structure any check allows
# Largest modulus of a coherent coefficient and of a Wigner grid range entry: its
# square, 1e300, is 1e8 below the float range, so a branch norm, |xi|^2 and the
# Wigner quadratic form (its inverse width is at most I) stay finite.
_MODULUS_MAX = 1e150


def _count(n: int) -> str:
    """``n`` in decimal below 2^64, from there as its power of ten: Python
    refuses to print an int of more than 4 300 digits."""
    return str(n) if n.bit_length() <= 64 else f"about 10^{math.log10(n):.0f}"


def _check_bytes(what: str, predicted: int) -> None:
    """Refuse ``what`` if its ``predicted`` bytes pass ``_BYTE_LIMIT``."""
    if predicted > _BYTE_LIMIT:
        raise ValidationError(
            f"{what} would take {_count(predicted)} bytes, above the limit of {_BYTE_LIMIT} bytes"
        )
