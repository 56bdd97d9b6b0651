"""A theta value with its provenance, as every evaluation route reports it.

Defined apart from reference_quadrature, which imports both names, so that
the asymptotic and series routes build an EvalResult, and the package
exports both, without importing the oracle and mpmath.
"""

import enum
from dataclasses import dataclass

__all__ = ["Method", "EvalResult"]


class Method(enum.Enum):
    """How a theta value was produced."""

    DIRECT = "direct"
    ASYMPTOTIC = "asymptotic"
    SERIES_RHO1 = "series-rho1"


@dataclass(frozen=True)
class EvalResult:
    """A theta value plus provenance: method, precision, self-consistency."""

    theta: float
    method: Method
    precision_used_bits: int
    error_estimate: float
