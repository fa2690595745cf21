"""Exception types shared across the package, and the argument checks that
raise them."""


class FoglinkError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FoglinkError, ValueError):
    """An argument lies outside the validity range of a model or function."""


class ConvergenceError(FoglinkError, RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""


class InfeasibleLinkError(FoglinkError, ValueError):
    """The requested rate cannot be met without numerically absurd transmit power."""


class ConfigError(FoglinkError, ValueError):
    """A configuration file failed to parse or violated a parameter invariant."""


class NumericError(FoglinkError, RuntimeError):
    """A numeric accumulation produced non-finite or self-inconsistent results."""


def require_positive(**fields) -> None:
    """Raise DomainError naming the first field that is not positive."""
    for name, value in fields.items():
        if not value > 0.0:
            raise DomainError(f"{name} must be positive, got {value!r}")


def require_int(name: str, value, low: int = 1, high: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an integer in [low, high]."""
    if not (isinstance(value, int) and low <= value and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
