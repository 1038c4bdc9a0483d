"""Exception taxonomy.

Validation problems (bad arguments, mismatched configurations) raise
ValidationError or plain ValueError; failures of the numerics themselves
(quadrature not converging, vanishing herald probability, root polishing
stuck) raise subclasses of NumericalError. The CLI maps the two families
to distinct exit codes.
"""

from numbers import Integral


class PbsimError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PbsimError, ValueError):
    """Invalid argument or configuration."""


def _check_integer(name: str, value, least: int) -> None:
    """ValidationError unless value is an int or numpy integer, not a bool,
    and at least least."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")


class ConfigMismatchError(ValidationError):
    """Operands built on different truncation configs."""


class CutoffError(ValidationError):
    """A cutoff too small to represent the requested object."""


class NumericalError(PbsimError):
    """A numerical procedure failed to reach its contract."""


class QuadratureError(NumericalError):
    """Quadrature tolerance not reached, or an integral did not converge."""


class WindowExhaustedError(NumericalError):
    """No threshold crossing found inside the radial search window."""


class DegenerateHeraldError(NumericalError):
    """Conditioning probability below the positive-probability floor."""


class RootQualityError(NumericalError):
    """Polynomial root residual above tolerance."""


class LowInformationError(NumericalError):
    """Count data carries too little information for the estimator."""


class LeakageWarning(UserWarning):
    """Truncation leakage exceeded the configured bound."""


class RankDeficiencyWarning(UserWarning):
    """Count data looks too degenerate to pin down all parameters."""
