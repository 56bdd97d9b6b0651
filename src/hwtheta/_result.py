"""A theta value with its provenance, as every evaluation route reports it,
and the one CSV format of every table the package prints.

Defined apart from reference_quadrature, which imports both names, so that
the asymptotic and series routes build an EvalResult, the library modules
render their tables, and the package exports both result types, all without
importing the oracle and mpmath.  csv_text is package-internal, so __all__
lists only the result types.
"""

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def csv_text(fields: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header of field names, then one line per row: floats at 17
    significant digits, booleans as true/false, every line ending in LF."""
    lines = [",".join(fields)]
    for row in rows:
        lines.append(
            ",".join(str(v).lower() if isinstance(v, bool) else f"{v:.17g}" for v in row)
        )
    return "\n".join(lines) + "\n"
