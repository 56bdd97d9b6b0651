"""Exact power-series machinery at the critical point rho = 1.

At rho = 1 the path parametrization tau = zeta^2/2 - cosh(zeta) + 1 (with
zeta the offset from the degenerate saddle) can be inverted as a formal
series, and everything downstream of it, Im g, delta(tau, 1), and the
small-t expansion of theta(1/t, t), has exact rational coefficients apart
from a sqrt(6) surd.  This module computes those series with Fraction
arithmetic, no floating point anywhere in the coefficients.

The inversion works on an auxiliary variable.  The defining relation is even
in zeta, so with w = zeta^2 and u = sqrt(-tau) it reads

    sum_{k>=2} w^k / (2k)!  =  u^2.

Substituting w = W(v) with v = sqrt(6)*u makes every coefficient of W a plain
rational (the leading balance w^2/4! = u^2 gives w ~ 2*sqrt(6)*u = 2v).  The
constraint sum_{k>=2} W^k/(2k)! = v^2/6 has the Lagrange form v = W/phi(W),
so each coefficient of W is one coefficient of a power of phi, with no
series solved order by order.  That power comes from Miller's recurrence
run on Python ints, and each coefficient is computed once per process and
shared by every series and order.  Im g needs no second series: along the path
g = d cosh(xi(tau))/dtau, and at rho = 1 cosh(xi) = -(zeta^2/2 + 1 - tau),
so Im g is read off the derivative of the same reversion.

Branch convention: for tau > 0 the path leaves the saddle into the fourth
quadrant, which fixes sqrt(-tau) = -i*sqrt(tau).  Under that choice odd
powers of v are purely imaginary and even powers real, so Im g and the
delta/theta series come out with real exact coefficients.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, positive_real

__all__ = [
    "Q6",
    "HalfPowerSeries",
    "ThetaSeries",
    "invert_zeta_equation",
    "im_g_series",
    "delta_series",
    "theta_series_rho1",
    "delta_large_tau",
]

_SQRT6 = math.sqrt(6.0)
_LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Q6:
    """Exact element a + b*sqrt(6) of the ring Q(sqrt(6)), Fraction components.

    Every series coefficient in this module lives here: the zeta^2 reversion
    alternates between rational and sqrt(6)-multiple coefficients, Im g has
    pure 1/sqrt(6) multiples (b-only), and the delta/theta series are plain
    rationals (a-only).
    """

    a: Fraction
    b: Fraction

    @classmethod
    def rational(cls, value) -> "Q6":
        return cls(Fraction(value), Fraction(0))

    @classmethod
    def root6(cls, value) -> "Q6":
        """The value value*sqrt(6)."""
        return cls(Fraction(0), Fraction(value))

    @classmethod
    def over_root6(cls, value) -> "Q6":
        """The value value/sqrt(6) = (value/6)*sqrt(6)."""
        return cls(Fraction(0), Fraction(value) / 6)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_over_root6(self) -> Fraction | None:
        """If the value is a pure multiple of 1/sqrt(6), return that multiple."""
        if self.a == 0:
            return self.b * 6
        return None

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT6

    def __neg__(self) -> "Q6":
        return Q6(-self.a, -self.b)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        surd = f"({self.b})*sqrt(6)" if self.b.denominator != 1 or self.b < 0 else f"{self.b}*sqrt(6)"
        if self.a == 0:
            return surd
        return f"{self.a} + {surd}" if self.b > 0 else f"{self.a} - {str(-self.b)}*sqrt(6)"

    def decimal_str(self, digits: int) -> str:
        """Decimal rendering at the requested number of significant digits."""
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = digits + 10
            val = Decimal(self.a.numerator) / Decimal(self.a.denominator)
            val += (
                Decimal(self.b.numerator)
                / Decimal(self.b.denominator)
                * Decimal(6).sqrt()
            )
            ctx.prec = max(1, digits)
            return str(+val)


def _term_index(k, count: int) -> int:
    """k as an int, or DomainError unless it is an integer in [0, count)."""
    try:
        index = operator.index(k)
    except TypeError:
        index = None
    if index is None or not 0 <= index < count:
        raise DomainError(f"term index k must be an integer in [0, {count}), got {k!r}")
    return index


@dataclass(frozen=True)
class HalfPowerSeries:
    """Formal series sum_k coeffs[k] * X^(offset + k*step) with exact coefficients.

    The expansion variable X is tau itself (``variable="tau"``) or -tau
    (``variable="neg_tau"``).  In the latter case fractional powers follow
    the fourth-quadrant branch sqrt(-tau) = -i*sqrt(tau), so evaluation at
    tau > 0 is complex.

    Coefficient arithmetic is exact; :meth:`evaluate` rounds each exact
    coefficient to a double and sums the terms in ascending order, which is
    the documented rounding of the exact value.
    """

    offset: Fraction
    step: Fraction
    coeffs: tuple[Q6, ...]
    variable: str = "tau"

    def __post_init__(self):
        if self.variable not in ("tau", "neg_tau"):
            raise DomainError(f"unknown expansion variable {self.variable!r}")

    @property
    def order(self) -> int:
        """Count of retained terms."""
        return len(self.coeffs)

    def exponent(self, k: int) -> Fraction:
        return self.offset + k * self.step

    def terms(self):
        """Yield (exponent, coefficient) pairs in ascending order."""
        for k, c in enumerate(self.coeffs):
            yield self.exponent(k), c

    def evaluate(self, tau: float, nterms: int | None = None):
        """Sum the first nterms terms at tau > 0 (all by default).

        Returns a float for a series in tau, a complex for a series in -tau
        (fourth-quadrant branch).
        """
        tau = positive_real(tau, "tau")
        use = self.coeffs if nterms is None else self.coeffs[:nterms]
        if self.variable == "tau":
            total = 0.0
            for k, c in enumerate(use):
                total += float(c) * tau ** float(self.exponent(k))
            return total
        # powers of -tau: (-tau)^e = (-i)^(2e) * tau^e under the branch choice
        total = 0j
        for k, c in enumerate(use):
            e = self.exponent(k)
            m = 2 * e
            if m.denominator != 1:
                raise DomainError("exponents must be half-integers")
            total += float(c) * (-1j) ** int(m) * tau ** float(e)
        return total

    def term_magnitude(self, tau: float, k: int) -> float:
        """|coeffs[k]| * tau^exponent(k), the standard truncation yardstick.
        DomainError unless k is an integer in [0, order)."""
        tau = positive_real(tau, "tau")
        k = _term_index(k, self.order)
        return abs(float(self.coeffs[k])) * tau ** float(self.exponent(k))


@dataclass(frozen=True)
class ThetaSeries:
    """Small-t series theta(1/t, t) = sqrt(3)/(2*pi*t) * e^(1/t) * sum_k c_k t^k.

    The prefactor is fixed; ``coeffs`` are the exact rational c_k with
    c_0 = 1.
    """

    coeffs: tuple[Fraction, ...]

    PREFACTOR_TEXT = "sqrt(3)/(2*pi*t) * exp(1/t)"

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def bracket(self, t: float, nterms: int | None = None) -> float:
        """The partial sum sum_k c_k t^k without the prefactor."""
        t = positive_real(t, "t")
        use = self.coeffs if nterms is None else self.coeffs[:nterms]
        return sum(float(c) * t**k for k, c in enumerate(use))

    def evaluate(self, t: float, nterms: int | None = None) -> float:
        """Prefactor times the partial sum."""
        bracket = self.bracket(t, nterms)
        t = float(t)
        scale = math.sqrt(3.0) / (2.0 * math.pi * t)
        if 1.0 / t + math.log(scale) >= _LOG_DBL_MAX:
            raise DomainError(
                f"theta series requires t >= 1.4195e-3, where the prefactor "
                f"{self.PREFACTOR_TEXT} still fits in a double; got {t!r}"
            )
        pref = scale * math.exp(1.0 / t)
        return pref * bracket

    def term_magnitude(self, t: float, k: int) -> float:
        """|c_k| * t^k (relative to the prefactor).  DomainError unless k is
        an integer in [0, order)."""
        t = positive_real(t, "t")
        k = _term_index(k, self.order)
        return abs(float(self.coeffs[k])) * t**k


@lru_cache(maxsize=None)
def _w_coefficient(n: int) -> Fraction:
    """Coefficient c_n (n >= 1) of W(v) solving sum_{k>=2} W^k/(2k)! = v^2/6.

    The left side is W^2 A(W)/24 with A(W) = 24*sum_{j>=0} W^j/(2j+4)!
    (A_0 = 1), so v = W/phi(W) with phi = 2*A^(-1/2) and Lagrange inversion
    reads c_n = (1/n) [W^(n-1)] phi^n = (2^n/n) [W^(n-1)] A^(-n/2).  The power
    P = A^alpha comes from J.C.P. Miller's recurrence
    P_k = (1/k) sum_{j=1..k} ((alpha+1) j - k) A_j P_(k-j), P_0 = 1, kept as
    ints num/den in lowest terms: the k terms (with alpha = -n/2, term j is
    ((2 - n) j - 2k)/2 * P_(k-j)/a_j) go over one common denominator and
    the sum is reduced by one gcd.  c_n depends on n alone, hence the cache.
    """
    a = [math.factorial(2 * j + 4) // 24 for j in range(n)]  # A_j = 1/a[j]
    num, den = [1], [1]
    for k in range(1, n):
        dens = [2 * a[j] * den[k - j] for j in range(1, k + 1)]
        lcm = math.lcm(*dens)
        total = sum(((2 - n) * j - 2 * k) * num[k - j] * (lcm // d) for j, d in enumerate(dens, 1))
        g = math.gcd(total, k * lcm)
        num.append(total // g)
        den.append(k * lcm // g)
    return Fraction(2**n * num[n - 1], n * den[n - 1])


def _w_coefficients(nv: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_nv of W(v), c_0 = 0, from the per-n cache."""
    return (Fraction(0),) + tuple(_w_coefficient(n) for n in range(1, nv + 1))


@lru_cache(maxsize=None)
def _im_g_rationals(nterms: int) -> tuple[Fraction, ...]:
    """Rationals r_j with Im g(tau, 1) = sum_j (r_j/sqrt(6)) tau^(j-1/2).

    Along the path dxi/dtau = 1/h'(xi), so g = sinh(xi)/h'(xi) is
    d cosh(xi(tau))/dtau.  At rho = 1, cosh(i*pi + zeta) = -(zeta^2/2 + 1 - tau)
    on the path, hence g = 1 - (1/2) d(zeta^2)/dtau.  With zeta^2 = W(v) and
    tau = -v^2/6 this is g = 1 + (3/2) sum_m m c_m v^(m-2); the odd powers of
    v are the imaginary ones, giving r_j = (-1)^j (2j+1)/4 c_(2j+1) 6^(j+1).
    """
    c = _w_coefficients(2 * nterms - 1)
    return tuple(
        (-1) ** j * Fraction(2 * j + 1, 4) * c[2 * j + 1] * 6 ** (j + 1)
        for j in range(nterms)
    )


def _require_order(order: int, minimum: int) -> int:
    order = int(order)
    if order < minimum:
        raise DomainError(f"order must be >= {minimum}, got {order!r}")
    return order


def invert_zeta_equation(order: int) -> HalfPowerSeries:
    """Formal series for zeta^2 in powers of sqrt(-tau), `order` terms.

    Inverts tau = zeta^2/2 - cosh(zeta) + 1 about the degenerate saddle.
    Term k (k = 0..order-1) multiplies (-tau)^((k+1)/2); the first three
    are 2*sqrt(6), -2/5, and (2/105)*sqrt(6).  Recomposing tau from the
    returned series through the defining relation cancels exactly to the
    requested order (tested), which is the correctness certificate for
    everything built on top.
    """
    order = _require_order(order, 2)
    c = _w_coefficients(order)
    coeffs = []
    for m in range(1, order + 1):
        # zeta^2 = sum_m c_m v^m, v^m = 6^(m/2) u^m with u = sqrt(-tau)
        if m % 2 == 0:
            coeffs.append(Q6.rational(c[m] * Fraction(6) ** (m // 2)))
        else:
            coeffs.append(Q6.root6(c[m] * Fraction(6) ** ((m - 1) // 2)))
    return HalfPowerSeries(
        offset=Fraction(1, 2),
        step=Fraction(1, 2),
        coeffs=tuple(coeffs),
        variable="neg_tau",
    )


def im_g_series(order: int) -> HalfPowerSeries:
    """Series for Im g(tau, 1): `order` terms, exponents -1/2, 1/2, 3/2, ...

    Every coefficient is a pure rational multiple of 1/sqrt(6); the first two
    are 3/sqrt(6) = sqrt(3/2) and -(3/35)/sqrt(6) = -(1/35)*sqrt(3/2).
    """
    order = _require_order(order, 1)
    r = _im_g_rationals(order)
    return HalfPowerSeries(
        offset=Fraction(-1, 2),
        step=Fraction(1),
        coeffs=tuple(Q6.over_root6(rj) for rj in r),
        variable="tau",
    )


def delta_series(order: int) -> HalfPowerSeries:
    """Series for delta(tau, 1) = -1 + sqrt(2/3)*sqrt(tau)*Im g(tau, 1).

    Integer powers tau^1..tau^order with exact rational coefficients
    d_j = r_j/3; the constant terms cancel exactly (r_0 = 3).  The first two
    coefficients are -1/35 and 7/8250.
    """
    order = _require_order(order, 1)
    r = _im_g_rationals(order + 1)
    assert r[0] == 3  # guarantees delta(0+) = 0
    return HalfPowerSeries(
        offset=Fraction(1),
        step=Fraction(1),
        coeffs=tuple(Q6.rational(rj / 3) for rj in r[1:]),
        variable="tau",
    )


def theta_series_rho1(order: int) -> ThetaSeries:
    """Small-t series of theta(1/t, t): `order` coefficients c_0..c_(order-1).

    Term-by-term Laplace integration of the Im g series: a tau^(k-1/2) term
    contributes Gamma(k+1/2) t^(k+1/2), which relative to the k = 0 term is
    the factor (2k-1)!!/2^k * t^k.  Hence c_k = (r_k/3) * (2k-1)!!/2^k with
    c_0 = 1, all exact rationals, starting 1, -1/70, 7/11000.
    """
    order = _require_order(order, 0)
    r = _im_g_rationals(max(order, 1))
    coeffs = []
    for k in range(order):
        double_fact = math.prod(range(2 * k - 1, 0, -2)) if k > 0 else 1
        coeffs.append(r[k] / 3 * Fraction(double_fact, 2**k))
    return ThetaSeries(coeffs=tuple(coeffs))


def delta_large_tau(tau: float) -> float:
    """Two-term large-tau asymptote delta(tau, 1) ~ -1 + pi*sqrt(2/(3*tau)).

    Guarded to tau >= 100 where the omitted remainder (of order
    tau^(-3/2) log^2(2 tau)) is small; below the guard the asymptote is
    unreliable and a DomainError is raised, as it is for nan.  tau = inf is
    accepted on purpose and returns the limit -1.0, the one place where the
    package's positive-finite-real rule does not apply.
    """
    tau = float(tau)
    if not tau >= 100.0:
        raise DomainError(
            f"delta_large_tau requires tau >= 100 (asymptotic regime), got {tau!r}"
        )
    return -1.0 + math.pi * math.sqrt(2.0 / (3.0 * tau))
