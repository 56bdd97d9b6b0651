"""Leading-order approximation, measured error, and the error bounds.

For small t at fixed rho = r*t the integral satisfies

    theta(rho/t, t) = 1/(2 pi t) * e^(-(F(rho) - pi^2/2)/t) * G(rho)
                      * (1 + vartheta(t, rho)),

and the conjectured path bound |delta| <= min(tau/35, 1) implies

    |vartheta(t, rho)| <= vartheta_max(t) <= t/70,

with equality structure captured by

    vartheta_max(t) = 1/sqrt(pi t) * Int_0^inf e^(-tau/t)
                      min(tau/35, 1) tau^(-1/2) dtau.

This module evaluates the leading term, measures vartheta against the
extended-precision oracle, evaluates vartheta_max in closed form through the
half-order exponential integral and math.erfc, and runs grid certifications
of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import saddle_geometry as sg
from ._result import csv_text
from .errors import DomainError, HwThetaError, normal_double, positive_real
from .rho_one_series import theta_series_rho1

__all__ = [
    "BoundRow",
    "BoundReport",
    "theta_leading",
    "measure_vartheta",
    "vartheta_max",
    "ei_half",
    "check_bound",
]

_HALF_PI_SQ = 0.5 * math.pi * math.pi
_SQRT_PI = math.sqrt(math.pi)

#: Second-order allowance |c2| t^2 for the adjusted bound flag; c2 is the
#: t^2 coefficient of the critical-point series, the only regime where the
#: next-order term is known exactly.
_C2 = abs(float(theta_series_rho1(3).coeffs[2]))


def theta_leading(rho: float, t: float) -> float:
    """Leading-order approximation 1/(2 pi t) e^(-(F - pi^2/2)/t) G.

    Raises DomainError where the value is not a normal double: it would
    overflow to inf, or underflow to 0.0 or a subnormal with lost digits.
    """
    t = positive_real(t, "t")
    return _theta_leading(sg.saddle_data(rho), t)


def _theta_leading(sd: sg.SaddleData, t: float) -> float:
    try:
        damp = math.exp(-(sd.F - _HALF_PI_SQ) / t)
    except OverflowError:
        damp = math.inf
    lead = sd.G / (2.0 * math.pi * t) * damp
    return normal_double(lead, "leading term at rho={:.17g}, t={!r}", sd.rho, t)


def measure_vartheta(rho: float, t: float) -> float:
    """Measured relative error theta_direct/theta_leading - 1.

    The oracle runs at theta_direct's default bits, sized from the saddle
    solved here, so each cell solves it once.  Only theta is read, as a
    double, so the oracle runs one serial quadrature in this process with
    theta_direct's refusals but no self-check, its panels summed in fixed
    point in base 2 (the oracle's module docstring).  The leading term sets
    its accumulator, 2^-64 of it, and each panel's Gauss order and the tail
    stop, each from a proved bound at 2^-72 of it, so where |vartheta| <=
    1/2 it is within about 1.02 2^-64 of the exact integral's vartheta
    before its rounding to a double, but for the 24-point panels whose
    own bound misses that (the oracle's module docstring).  The tests compare it with the mpf
    loop at the same bits on verify-bound's grids and for rho from 10 to
    1e3, t from 0.01 to 1 and rho t <= 100, and with that loop summed to
    its last panel where the loop's own tail test stops too early; where
    the leading term is not a normal double (above rho of about 11.7 at
    t = 0.01, 40 at 0.05, 76 at 0.1), it refuses.
    """
    t = positive_real(t, "t")
    rho = positive_real(rho, "rho")
    sd = sg.saddle_data(rho)
    lead = _theta_leading(sd, t)
    from . import reference_quadrature as rq  # the oracle loads mpmath: import on first use

    return rq._theta_fixed(rho / t, t, rq._cancellation_bits(sd, t), lead) / lead - 1.0


def _erf_minus_gauss(x: float) -> float:
    """erf(x)/2 - x e^(-x^2)/sqrt(pi), summed directly for |x| <= 2.

    The two pieces agree to O(x^3), so forming them separately loses digits
    at small x; termwise their difference is the alternating series
    (1/sqrt(pi)) sum_{k>=1} (-1)^(k+1) (2k/(2k+1)) x^(2k+1)/k!.
    """
    acc = 0.0
    term = x  # becomes (-1)^(k+1) x^(2k+1)/k!
    x2 = x * x
    k = 1
    while True:
        term *= x2 / k
        contribution = term * (2 * k) / (2 * k + 1)
        acc += contribution
        if abs(contribution) < 1e-18 * (abs(acc) + 1e-300) or k > 60:
            break
        k += 1
        term = -term
    return acc / _SQRT_PI


def ei_half(z: float) -> float:
    """Half-order exponential integral Int_1^inf e^(-z u) sqrt(u) du.

    Computed through the upper incomplete gamma identity
    ei_half(z) = z^(-3/2) * Gamma(3/2, z) with
    Gamma(3/2, z) = sqrt(pi)/2 * erfc(sqrt z) + sqrt(z) e^(-z),
    which reduces everything to math.erfc plus elementary functions.
    Raises DomainError where the value is not a normal double: where
    z^(-3/2) overflows (z below about 3.1e-206), and where e^-z takes it
    below the normal doubles (z above about 701.8).
    """
    z = positive_real(z, "z")
    sz = math.sqrt(z)
    gamma_upper = 0.5 * _SQRT_PI * math.erfc(sz) + sz * math.exp(-z)
    try:
        scale = z ** (-1.5)
    except OverflowError:
        raise DomainError(
            f"ei_half(z={z!r}) is about sqrt(pi)/2 z^(-3/2), outside the range of a double"
        ) from None
    return normal_double(scale * gamma_upper, "ei_half(z={!r})", z)


def vartheta_max(t: float) -> float:
    """Sharp bound vartheta_max(t) = t/70 - sqrt(z) ei_half(z)/sqrt(pi) + erfc(sqrt z),
    z = 35/t.

    This is the closed form of the defining integral
    1/sqrt(pi t) * Int_0^inf e^(-tau/t) min(tau/35, 1) tau^(-1/2) dtau;
    it increases from ~t/70 at small t to 1 as t -> infinity.  For small z
    the first two terms cancel to O(sqrt z), so that branch is rearranged
    through the lower incomplete gamma as
    (erf(sqrt z)/2 - sqrt(z) e^(-z)/sqrt(pi)) / z + erfc(sqrt z)
    with the bracket summed termwise to dodge the residual O(z^(3/2))
    cancellation.  For z >= 700 the two terms past t/70 are below its last
    bit (below 2^-1000 of it), so t/70 is returned as it is.  Raises
    DomainError where t/70 is not a normal double (t below about 1.56e-306,
    z = 35/t overflowing among them).
    """
    t = positive_real(t, "t")
    z = 35.0 / t
    if z >= 700.0:  # inf included
        return normal_double(t / 70.0, "vartheta_max(t={!r}) = t/70", t)
    sz = math.sqrt(z)
    if sz >= 2.0:
        return t / 70.0 - sz * ei_half(z) / _SQRT_PI + math.erfc(sz)
    return _erf_minus_gauss(sz) / z + math.erfc(sz)


class BoundRow(NamedTuple):
    rho: float
    t: float
    vartheta: float
    bound_simple: float
    bound_strong: float
    pass_simple: bool
    pass_adjusted: bool
    pass_strong: bool


@dataclass(frozen=True)
class BoundReport:
    """Grid certification of the error bounds; failed oracle cells listed."""

    rows: tuple[BoundRow, ...]
    failures: tuple[tuple[float, float, str], ...]

    CSV_HEADER = ",".join(BoundRow._fields)

    def to_csv(self) -> str:
        return csv_text(BoundRow._fields, self.rows)

    @property
    def all_pass_strong(self) -> bool:
        return all(row.pass_strong for row in self.rows) and not self.failures

    @property
    def max_ratio_simple(self) -> float:
        """Largest observed |vartheta| * 70/t, the margin against the t/70 bound.

        Raises DomainError when every cell failed.
        """
        if not self.rows:
            raise DomainError("max |vartheta|*70/t: no cell was measured")
        return max(abs(r.vartheta) * 70.0 / r.t for r in self.rows)


def check_bound(rho_grid: Sequence[float], t_grid: Sequence[float]) -> BoundReport:
    """Measure vartheta on a grid and flag each cell against three bounds.

    pass_simple:   |vartheta| <= t/70
    pass_adjusted: |vartheta| <= t/70 + |c2| t^2   (second-order allowance;
                   the strict bound is a leading-order statement and the t^2
                   term matters at moderate t)
    pass_strong:   |vartheta| <= vartheta_max(t)

    Oracle failures (e.g. precision overflow for a too-small t) are recorded
    per cell, not raised.
    """
    rho_grid = [positive_real(r, "rho grid entry") for r in rho_grid]
    t_grid = [positive_real(t, "t grid entry") for t in t_grid]
    if not rho_grid or not t_grid:
        raise DomainError("bound grids must be non-empty")

    rows: list[BoundRow] = []
    failures: list[tuple[float, float, str]] = []
    for rho in rho_grid:
        for t in t_grid:
            try:
                vt = measure_vartheta(rho, t)
            except HwThetaError as exc:
                failures.append((rho, t, str(exc)))
                continue
            simple = t / 70.0
            strong = vartheta_max(t)
            rows.append(
                BoundRow(
                    rho=rho,
                    t=t,
                    vartheta=vt,
                    bound_simple=simple,
                    bound_strong=strong,
                    pass_simple=abs(vt) <= simple,
                    pass_adjusted=abs(vt) <= simple + _C2 * t * t,
                    pass_strong=abs(vt) <= strong,
                )
            )
    return BoundReport(rows=tuple(rows), failures=tuple(failures))
