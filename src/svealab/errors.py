"""Exception types shared across the package, and the range rules that raise them."""

import math
import operator


class DomainError(ValueError):
    """Input outside a function's mathematical domain (non-finite, negative amplitude, ...)."""


def range_rule(holds, text: str):
    """A check (name, value) -> value that raises a DomainError naming it unless holds(value)."""
    def require(name: str, value: float) -> float:
        if not holds(value):
            raise DomainError(f"{name} must be {text}, got {value!r}")
        return value
    return require


require_positive = range_rule(lambda v: 0.0 < v < math.inf, "finite and > 0")  # NaN fails
require_nonnegative = range_rule(lambda v: 0.0 <= v < math.inf, "finite and >= 0")  # NaN fails
require_finite = range_rule(math.isfinite, "finite")


def require_integer(name: str, value, least=-math.inf) -> int:
    """value as an int, or a DomainError naming it unless it is an integer
    (numpy integers are; 2.0 and 2.9 are not: nothing is truncated) >= least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value


class PoleError(ValueError):
    """Evaluation requested too close to a pole of dc = dn/cn; the message names u."""


class FamilyMismatchError(ValueError):
    """A model of the wrong family (KG vs NLS) was passed to an operation."""


class ConstraintError(ValueError):
    """Solution parameters violate a published constraint; the message names
    the relation, e.g. "15*sigma**2 = 16*lambda"."""


class DivergenceError(RuntimeError):
    """Propagation produced non-finite values or tripped the step-size guard.

    Attributes:
        time: simulation time at which divergence was detected.
        partial: Trajectory up to the last healthy step, when available.
    """

    def __init__(self, message: str, time: float, partial=None):
        super().__init__(message)
        self.time = time
        self.partial = partial


class ConfigError(ValueError):
    """Malformed or missing run configuration."""
