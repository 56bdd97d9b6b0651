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
constraint sum_{k>=2} W^k/(2k)! = cosh(sqrt W) - 1 - W/2 = v^2/6, with
z = sinh(sqrt W)/sqrt(W) - 1 carried alongside, becomes two first-order ODEs
in v (d cosh(sqrt W)/dW = (1 + z)/2 and dz/dW = (cosh(sqrt W) - 1 - z)/(2W)):

    3 z W' = 2v,    2 W z' = (W/2 + v^2/6 - z) W'.

With W = sum c_n v^n and z = sum z_n v^n, from c_1 = 2 and z_1 = 1/3, the
coefficients of v^n (n >= 2) are a 2x2 linear step for c_n and z_n, with
determinant -2(n+1)(2n+1), never 0, and right sides that are convolutions
of the earlier coefficients: O(n) work for c_n, O(N^2) for c_1..c_N (Brent
and Kung, J. ACM 25 (1978), solve power-series ODEs the same way).  The
step runs on Python ints over one common denominator, and each coefficient
is computed once per process and shared by every series and order.  Im g needs no second series: along the path
g = d cosh(xi(tau))/dtau, and at rho = 1 cosh(xi) = -(zeta^2/2 + 1 - tau),
so Im g is read off the derivative of the same reversion.

Branch convention: for tau > 0 the path leaves the saddle into the fourth
quadrant, which fixes sqrt(-tau) = -i*sqrt(tau).  Under that choice odd
powers of v are purely imaginary and even powers real, so Im g and the
delta/theta series come out with real exact coefficients.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, positive_real, real, whole_number

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


def _power(x: float, e, name: str):
    """x ** e, or DomainError where it overflows a double."""
    try:
        return x ** e
    except OverflowError:
        raise DomainError(f"{name}^{e} overflows a double at {name}={x!r}") from None


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
        # a mixed element prints the surd's sign as the operator
        b = self.b if self.a == 0 else abs(self.b)
        surd = f"({b})*sqrt(6)" if b.denominator != 1 or b < 0 else f"{b}*sqrt(6)"
        if self.a == 0:
            return surd
        return f"{self.a} {'+' if self.b > 0 else '-'} {surd}"

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

    def evaluate(self, tau: float):
        """Sum all `order` terms at tau > 0; a shorter sum is a series of
        lower order.

        Returns a float for a series in tau, a complex for a series in -tau
        (fourth-quadrant branch).
        """
        tau = positive_real(tau, "tau")
        if self.variable == "tau":
            total = 0.0
            for k, c in enumerate(self.coeffs):
                total += float(c) * _power(tau, float(self.exponent(k)), "tau")
            return total
        # powers of -tau: (-tau)^e = (-i)^(2e) * tau^e under the branch choice
        total = 0j
        for k, c in enumerate(self.coeffs):
            e = self.exponent(k)
            m = 2 * e
            if m.denominator != 1:
                raise DomainError("exponents must be half-integers")
            total += float(c) * (-1j) ** int(m) * _power(tau, float(e), "tau")
        return total

    def term_magnitude(self, tau: float, k: int) -> float:
        """|coeffs[k]| * tau^exponent(k), the standard truncation yardstick.
        DomainError unless k is an integer in [0, order)."""
        tau = positive_real(tau, "tau")
        k = whole_number(k, "term index k", 0, self.order)
        return abs(float(self.coeffs[k])) * _power(tau, float(self.exponent(k)), "tau")


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

    def bracket(self, t: float) -> float:
        """The partial sum of c_k t^k over all `order` terms, no prefactor."""
        t = positive_real(t, "t")
        return sum(float(c) * _power(t, k, "t") for k, c in enumerate(self.coeffs))

    def evaluate(self, t: float) -> float:
        """Prefactor times the partial sum.  DomainError where the prefactor
        overflows (t below 1.4195e-3) or the partial sum is not positive
        (order 0, or t past the truncation's useful range: 24.345 at
        order 6), since theta itself is positive."""
        bracket = self.bracket(t)
        t = float(t)
        scale = math.sqrt(3.0) / (2.0 * math.pi * t)
        if 1.0 / t + math.log(scale) >= _LOG_DBL_MAX:
            raise DomainError(
                f"theta series requires t >= 1.4195e-3, where the prefactor "
                f"{self.PREFACTOR_TEXT} still fits in a double; got {t!r}"
            )
        if not bracket > 0.0:
            raise DomainError(
                f"theta series of order {self.order} has partial sum {bracket!r} "
                f"at t={t!r}; theta is positive"
            )
        pref = scale * math.exp(1.0 / t)
        return pref * bracket

    def term_magnitude(self, t: float, k: int) -> float:
        """|c_k| * t^k (relative to the prefactor).  DomainError unless k is
        an integer in [0, order)."""
        t = positive_real(t, "t")
        k = whole_number(k, "term index k", 0, self.order)
        return abs(float(self.coeffs[k])) * _power(t, k, "t")


def _convolve(xs, ys) -> int:
    """sum_i xs[i] * ys[i] over Python ints."""
    return sum([x * y for x, y in zip(xs, ys)])


# The reversion so far, as (c, lcd, cs, zs, dzs, r): c holds c_0..c_M of
# W(v) as Fractions; c_i = cs[i]/lcd and z_i = zs[i]/lcd, dzs[i] = i*zs[i],
# over lcd, the least common denominator of every c_i and z_i; r holds the
# Im g rationals r_j that c_1..c_M give, those with 2j + 1 <= M.  It starts
# at c_1 = 2, z_1 = 1/3, r_0 = 3.  It is replaced whole, never mutated, so a
# reader needs no lock; the lock lets one caller at a time extend it.
_REVERSION_START = ((Fraction(0), Fraction(2)), 3, (0, 6), (0, 1), (0, 1), (Fraction(3),))
_reversion = _REVERSION_START
_reversion_lock = threading.Lock()


def _w_coefficients(nv: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_nv of W(v), c_0 = 0, from the shared prefix; each
    coefficient past its end is computed once and the prefix extended."""
    global _reversion
    c = _reversion[0]
    if nv >= len(c):
        with _reversion_lock:
            if nv >= len(_reversion[0]):
                _reversion = _extended(_reversion, nv)
            c = _reversion[0]
    return c[: nv + 1]


def _extended(reversion, nv: int):
    """The reversion state, its Im g rationals too, extended through c_nv.

    At v^n (n >= 2) the ODE pair reads 6 z_n + n c_n = R1 and
    (4n+2) z_n - ((2n+1)/3) c_n = R2, so c_n = (R1 - 6 R2/(4n+2))/(n+1)
    and z_n = R2/(4n+2) + c_n/6.
    """
    c, lcd, cs, zs, dzs, r = reversion
    c, cs, zs, dzs, r = list(c), list(cs), list(zs), list(dzs), list(r)
    for n in range(len(c), nv + 1):
        # sums over the pairs i + k = n + 1 with 2 <= i, k <= n - 1 give
        # R1 = -3B and R2 = (n+1)/4 S_cc - B - 2T + (n-1)/6 c_(n-1), where
        # S_cc = sum c_i c_k, B = sum k z_i c_k and T = sum i z_i c_k
        ck = cs[n - 1 : 1 : -1]  # c_k for i = 2..n-1
        s_cc = _convolve(cs[2:n], ck)
        t = _convolve(dzs[2:n], ck)
        b = (n + 1) * _convolve(zs[2:n], ck) - t
        # R1 = q1/lcd^2 and R2 = q2/(12 lcd^2)
        q1 = -3 * b
        q2 = 3 * (n + 1) * s_cc - 12 * (b + 2 * t) + 2 * (n - 1) * cs[n - 1] * lcd
        den = 4 * (2 * n + 1) * (n + 1) * lcd * lcd
        c_num = 4 * (2 * n + 1) * q1 - q2
        z_num = n * q2 + 4 * (2 * n + 1) * q1
        g = math.gcd(c_num, den)
        c_num, c_den = c_num // g, den // g
        g = math.gcd(z_num, 6 * den)
        z_num, z_den = z_num // g, 6 * den // g
        grown = math.lcm(lcd, c_den, z_den)
        if grown != lcd:
            f = grown // lcd
            cs = [x * f for x in cs]
            zs = [x * f for x in zs]
            dzs = [x * f for x in dzs]
            lcd = grown
        c.append(Fraction(c_num, c_den))
        cs.append(c_num * (lcd // c_den))
        zs.append(z_num * (lcd // z_den))
        dzs.append(n * zs[-1])
    for j in range(len(r), len(c) // 2):
        r.append((-1) ** j * Fraction(2 * j + 1, 4) * c[2 * j + 1] * 6 ** (j + 1))
    return tuple(c), lcd, tuple(cs), tuple(zs), tuple(dzs), tuple(r)


def _im_g_rationals(count: int) -> tuple[Fraction, ...]:
    """Rationals r_j with Im g(tau, 1) = sum_j (r_j/sqrt(6)) tau^(j-1/2),
    j < count, from the shared state.

    Along the path dxi/dtau = 1/h'(xi), so g = sinh(xi)/h'(xi) is
    d cosh(xi(tau))/dtau.  At rho = 1, cosh(i*pi + zeta) = -(zeta^2/2 + 1 - tau)
    on the path, hence g = 1 - (1/2) d(zeta^2)/dtau.  With zeta^2 = W(v) and
    tau = -v^2/6 this is g = 1 + (3/2) sum_m m c_m v^(m-2); the odd powers of
    v are the imaginary ones, giving r_j = (-1)^j (2j+1)/4 c_(2j+1) 6^(j+1)
    (_extended keeps them beside the c_n).
    """
    _w_coefficients(2 * count - 1)  # extends the prefix, and r with it
    return _reversion[5][:count]


def invert_zeta_equation(order: int) -> HalfPowerSeries:
    """Formal series for zeta^2 in powers of sqrt(-tau), `order` terms.

    Inverts tau = zeta^2/2 - cosh(zeta) + 1 about the degenerate saddle.
    Term k (k = 0..order-1) multiplies (-tau)^((k+1)/2); the first three
    are 2*sqrt(6), -2/5, and (2/105)*sqrt(6).  Recomposing tau from the
    returned series through the defining relation cancels exactly to the
    requested order (tested), which is the correctness certificate for
    everything built on top.
    """
    order = whole_number(order, "order", 2)
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
    order = whole_number(order, "order", 1)
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
    order = whole_number(order, "order", 1)
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
    order = whole_number(order, "order", 0)
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
    value = real(tau)
    if value is None or not value >= 100.0:
        raise DomainError(
            f"delta_large_tau requires tau >= 100 (asymptotic regime), got {tau!r}"
        )
    return -1.0 + math.pi * math.sqrt(2.0 / (3.0 * value))
