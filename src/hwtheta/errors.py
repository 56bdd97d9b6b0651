"""Exception types shared across the package, and its one refusal rule.

The CLI maps these onto its exit-code contract: DomainError is a usage-level
problem (exit 2), the remaining types are numerical failures (exit 3).

One refusal rule holds across the package: every argument rho, t, tau, r or
z must be a positive finite real (an entry point may narrow that further),
every count (a series order, a term index, bits) must be a Python integer in
its range, never truncated from a float, and every result must be a normal
double; anything else raises DomainError.  A string is not a real, even
one that float would parse, and a bool is neither a real nor a count.
real, positive_real, whole_number and normal_double hold that rule; they
are package-internal, so __all__ lists only the exception types.
"""

import math
import operator
import sys

__all__ = [
    "HwThetaError",
    "DomainError",
    "PathError",
    "ExtrapolationError",
    "PrecisionOverflowError",
]


class HwThetaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HwThetaError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PathError(HwThetaError, ArithmeticError):
    """Path continuation failed to converge.

    Attributes
    ----------
    last_good_tau : float
        Largest tau for which a converged path point was obtained before the
        failure.
    """

    def __init__(self, message, last_good_tau=0.0):
        super().__init__(message)
        self.last_good_tau = last_good_tau


class ExtrapolationError(HwThetaError, ArithmeticError):
    """Richardson extrapolation did not meet its convergence gate.

    Attributes
    ----------
    estimate : float
        Best available extrapolated value.
    convergence : float
        Observed gap between the last two extrapolants.
    """

    def __init__(self, message, estimate=float("nan"), convergence=float("inf")):
        super().__init__(message)
        self.estimate = estimate
        self.convergence = convergence


class PrecisionOverflowError(HwThetaError, ArithmeticError):
    """The working precision needed exceeds the configured ceiling.

    Attributes
    ----------
    required_bits : int
        Bits the computation would need.
    ceiling_bits : int
        Ceiling in force when the request was rejected.
    """

    def __init__(self, message, required_bits, ceiling_bits):
        super().__init__(message)
        self.required_bits = required_bits
        self.ceiling_bits = ceiling_bits


def real(x) -> float | None:
    """x as a float, or None where x is not a real number: a bool (numpy's
    too, known by its dtype without importing numpy), a str or bytes (float
    would take them) or anything float refuses (None, a complex).  An exact
    float, the common case, is returned at once: float(x) would return x
    itself.  Float subclasses (numpy.float64 among them) take the full rule,
    so one that overrides __float__ still answers through it."""
    if type(x) is float:
        return x
    dtype = getattr(x, "dtype", None)  # numpy's bool is not a bool subclass
    if isinstance(x, (bool, str, bytes, bytearray)) or getattr(dtype, "kind", "") == "b":
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def positive_real(x, name: str) -> float:
    """x as a float, or DomainError naming `name` unless it is a positive
    finite real."""
    value = real(x)
    if value is None or not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return value


def whole_number(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int by operator.index (so 4.0 is refused, not truncated),
    or DomainError naming `name` unless it is an integer >= lo, and < hi
    when hi is given.  A bool is not a count."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < lo or (hi is not None and n >= hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return n


def normal_double(value: float, what: str, *args) -> float:
    """value, or DomainError unless |value| is a normal double: not 0.0, a
    subnormal, inf or nan.  The message is what.format(*args) followed by
    the value, built only on refusal."""
    if not sys.float_info.min <= abs(value) < math.inf:
        raise DomainError(
            f"{what.format(*args)} is {value!r}, outside the range of a double"
        )
    return value
