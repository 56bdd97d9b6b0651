"""Saddle-point geometry of the phase h(xi) = xi^2/2 + rho*cosh(xi) - i*pi*xi.

The integral under study concentrates, for small t at fixed rho = r*t, around
stationary points of h in the upper half plane.  Their character switches at
rho = 1:

* ``0 < rho < 1``: a pair of saddles at ``A = x1 + i*pi`` and its mirror, with
  ``x1 > 0`` the root of ``rho*sinh(x1) = x1``.
* ``rho > 1``: a saddle on the imaginary axis at ``S = i*y1`` with
  ``y1 in (0, pi)`` the root of ``y1 + rho*sin(y1) = pi``.
* ``rho = 1``: the saddles coalesce at ``i*pi`` into a degenerate stationary
  point whose first non-zero derivative is the fourth.

This module solves the saddle equations, classifies the regime (with a small
tolerance band around rho = 1 where the degenerate formulas are the stable
ones), and produces the derived quantities used everywhere else: the local
amplitude coefficient g0, the exponent F = h(saddle), and G = sqrt(2)*rho*g0.

All arithmetic here is ordinary double precision; the residual targets of
1e-12 are comfortably reachable without extended precision.  Where a root,
g0 or F cannot be held to that accuracy in a double (x1 beyond sinh's
overflow for rho below about 4e-306; g0 below the normal range for rho above
about 2e205), a DomainError is raised instead of a value.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, normal_double, positive_real

__all__ = [
    "EPS_CRIT",
    "Regime",
    "SaddleData",
    "h",
    "g0",
    "F",
    "G",
    "saddle_data",
]

#: Half-width of the critical band around rho = 1.  Inside the band
#: the degenerate (rho = 1) formulas are used: the regular-saddle expressions
#: lose accuracy like 1/sqrt(|rho - 1|) as the saddles coalesce.
EPS_CRIT = 1e-6

_PI = math.pi
_HALF_PI_SQ = 0.5 * math.pi * math.pi

#: Largest x with sinh(x) and cosh(x) finite doubles.
_X_MAX = math.asinh(sys.float_info.max)

#: Above this rho _solve_y1 brackets the root by pi/(1+rho) and stops Newton
#: on a relative step; up to it (y1 >= 0.289) the fixed bracket and the
#: absolute step of 1e-15 hold y1 to 4e-15 relative.
_Y1_SCALED_RHO = 10.0

#: Relative residual a solved saddle equation must meet.
_RESIDUAL_TOL = 1e-12


class Regime(enum.Enum):
    """Saddle regime as a function of rho."""

    SUB_CRITICAL = "sub-critical"      # 0 < rho < 1: saddle x1 + i*pi
    CRITICAL = "critical"              # rho = 1 within tolerance: saddle i*pi
    SUPER_CRITICAL = "super-critical"  # rho > 1: saddle i*y1


def _bisect_then_newton(f, fprime, lo: float, hi: float, scale: float = 1.0) -> float:
    """Root of f on a sign-changing bracket: bisection to width 1e-3, then
    Newton polished to machine accuracy, clipped to the bracket so a wild
    step near a flat spot falls back to bisection.  Newton stops on a step
    below 1e-15 * max(scale, |x|): relative for roots above scale, absolute
    below it."""
    flo = f(lo)
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(60):
        fx = f(x)
        if (fx < 0.0) == (flo < 0.0):
            lo = x
        else:
            hi = x
        dfx = fprime(x)
        step = fx / dfx if dfx != 0.0 else hi - lo
        xn = x - step
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-15 * max(scale, abs(x)):
            return xn
        x = xn
    return x


def _solve_x1(rho: float) -> float:
    """Positive root x1 of rho*sinh(x1) = x1 for 0 < rho < 1 (sub-critical
    saddle height), with relative residual |rho*sinh(x1)/x1 - 1| below
    1e-12; DomainError when the root lies beyond sinh's overflow (rho below
    about 4e-306)."""
    hi = min(max(10.0, 3.0 * math.log(2.0 / rho)), _X_MAX)
    if rho * math.sinh(hi) <= hi:
        raise DomainError(
            f"x1 at rho={rho!r} lies beyond {hi:.6g}, where sinh overflows a double"
        )
    x1 = _bisect_then_newton(
        lambda x: rho * math.sinh(x) - x,
        lambda x: rho * math.cosh(x) - 1.0,
        1e-8,
        hi,
    )
    if not abs(rho * math.sinh(x1) / x1 - 1.0) <= _RESIDUAL_TOL:
        raise DomainError(f"x1 at rho={rho!r} did not converge (x1 = {x1!r})")
    return x1


def _solve_y1(rho: float) -> float:
    """Root y1 in (0, pi) of y1 + rho*sin(y1) = pi for rho > 1 (super-critical
    saddle).

    The root is interior and unique: f(y) = y + rho*sin(y) - pi rises then
    falls on (0, pi) with f(0) = -pi and f(pi) = 0 approached from above.
    It is held to a residual |f(y1)| below 1e-12 * pi, and so to about
    1e-12 relative; DomainError when it is not a normal double (rho above
    about 1.4e308).
    """
    if rho <= _Y1_SCALED_RHO:
        lo, hi, scale = 1e-8, _PI - 1e-12, 1.0
    else:
        # sin y <= y gives f(lo) <= -pi/2, and sin y >= y - y^3/6 gives
        # f(hi) >= pi - rho hi^3/6 > 0
        lo, hi, scale = 0.5 * _PI / (1.0 + rho), 2.0 * _PI / (1.0 + rho), 0.0
    y1 = _bisect_then_newton(
        lambda y: y + rho * math.sin(y) - _PI,
        lambda y: 1.0 + rho * math.cos(y),
        lo,
        hi,
        scale,
    )
    normal_double(y1, "y1 at rho={!r}", rho)
    if not abs(y1 + rho * math.sin(y1) - _PI) <= _RESIDUAL_TOL * _PI:
        raise DomainError(f"y1 at rho={rho!r} did not converge (y1 = {y1!r})")
    return y1


def h(xi: complex, rho: float) -> complex:
    """Phase function h(xi) = xi^2/2 + rho*cosh(xi) - i*pi*xi."""
    rho = positive_real(rho, "rho")
    xi = complex(xi)
    return 0.5 * xi * xi + rho * cmath.cosh(xi) - 1j * _PI * xi


def g0(rho: float) -> float:
    """Leading local amplitude coefficient g0(rho).

    Piecewise in the regime:

    * sub-critical:   sinh(x1) / sqrt(2*(rho*cosh(x1) - 1))
    * critical:       sqrt(3/2)
    * super-critical: sin(y1) / sqrt(2*(rho*cos(y1) + 1))

    The denominators vanish like sqrt(|rho - 1|) as the saddles coalesce,
    which is why the critical band routes through the exact rho = 1 value.
    """
    return saddle_data(rho).g0


def F(rho: float) -> float:
    """Exponent F(rho) = h(saddle), real in every regime.

    Closed forms (exactly real, no complex round-off):

    * sub-critical:   x1^2/2 - rho*cosh(x1) + pi^2/2
    * critical:       pi^2/2 - 1
    * super-critical: -y1^2/2 + rho*cos(y1) + pi*y1
    """
    return saddle_data(rho).F


def G(rho: float) -> float:
    """Exponential-prefactor coefficient G(rho) = sqrt(2)*rho*g0(rho)."""
    return saddle_data(rho).G


@dataclass(frozen=True)
class SaddleData:
    """Everything derived from rho that downstream modules consume.

    Attributes
    ----------
    rho : float
        The similarity variable rho = r*t.
    regime : Regime
        Saddle regime classification.
    x1 : float or None
        Root of rho*sinh(x1) = x1 (sub-critical only).
    y1 : float or None
        Root of y1 + rho*sin(y1) = pi (critical and super-critical; pi at
        the critical point).
    xi_saddle : complex
        Saddle location: x1 + i*pi, i*y1, or i*pi.
    g0 : float
        Local amplitude coefficient, positive in every regime.
    F : float
        h(saddle), always real.
    G : float
        sqrt(2)*rho*g0.
    """

    rho: float
    regime: Regime
    x1: float | None
    y1: float | None
    xi_saddle: complex
    g0: float
    F: float
    G: float


def saddle_data(rho: float) -> SaddleData:
    """Solve the saddle equation for rho and bundle the derived quantities.

    This is the one place the regime is decided (critical means
    |rho - 1| <= EPS_CRIT; below that band is sub-critical, above it
    super-critical) and the one place the closed forms for g0, F and G are
    evaluated; the scalar functions g0, F and G read their field from it.
    Raises DomainError where the root or g0 leaves the normal double range.
    """
    rho = positive_real(rho, "rho")
    x1 = y1 = None
    if abs(rho - 1.0) <= EPS_CRIT:
        regime = Regime.CRITICAL
        y1 = _PI
        xi_saddle = complex(0.0, _PI)
        g0_val = math.sqrt(1.5)
        f_val = _HALF_PI_SQ - 1.0
    elif rho < 1.0:
        regime = Regime.SUB_CRITICAL
        x1 = _solve_x1(rho)
        xi_saddle = complex(x1, _PI)
        g0_val = math.sinh(x1) / math.sqrt(2.0 * (rho * math.cosh(x1) - 1.0))
        f_val = 0.5 * x1 * x1 - rho * math.cosh(x1) + _HALF_PI_SQ
    else:
        regime = Regime.SUPER_CRITICAL
        y1 = _solve_y1(rho)
        xi_saddle = complex(0.0, y1)
        g0_val = math.sin(y1) / math.sqrt(2.0 * (rho * math.cos(y1) + 1.0))
        f_val = -0.5 * y1 * y1 + rho * math.cos(y1) + _PI * y1
    normal_double(g0_val, "g0 at rho={!r}", rho)
    return SaddleData(
        rho=rho,
        regime=regime,
        x1=x1,
        y1=y1,
        xi_saddle=xi_saddle,
        g0=g0_val,
        F=f_val,
        G=math.sqrt(2.0) * rho * g0_val,
    )
