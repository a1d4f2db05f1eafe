"""Exception hierarchy shared across the package, and the configs' integer,
real and positive-number checks."""

import math
import numbers


class RobustAEError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RobustAEError, ValueError):
    """Operands have incompatible shapes."""


class ParameterError(RobustAEError, ValueError):
    """A parameter is outside its valid range."""


class InputError(RobustAEError, ValueError):
    """Input data is unusable (too short, degenerate, wrong layout)."""


class ContractError(RobustAEError, ValueError):
    """A structural precondition (e.g. Hankel property) is violated."""


class NumericalError(RobustAEError, RuntimeError):
    """A computation produced non-finite values or failed to converge."""


class EvaluationError(RobustAEError, ValueError):
    """Metric cannot be computed (e.g. single-class labels)."""


class ConfigError(RobustAEError, ValueError):
    """A configuration file or object is invalid."""


class ParseError(RobustAEError, ValueError):
    """A data file could not be parsed."""


class FormatError(RobustAEError, ValueError):
    """A data file parses but violates the documented format."""


class IntegrityError(RobustAEError, ValueError):
    """Stored data fails its checksum."""


class UpgradeError(RobustAEError, ValueError):
    """Stored data written by an unsupported format version."""


def require_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum``; ParameterError naming
    ``name`` for a bool, a non-integer (8.0, 2.5, "4") or a smaller value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_real(value, name: str, minimum: float | None = None):
    """``value``, unchanged, if it is a finite real number of at least
    ``minimum``; ParameterError naming ``name`` for a bool, a non-number
    ("5", None), a value that is not finite or a smaller value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_positive(value, name: str):
    """``value``, unchanged, if it is a finite real number above zero;
    ParameterError naming ``name`` for a bool, a non-number ("1e-5", None)
    or a value that is not finite or not positive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be finite and positive, got {value}")
    return value
