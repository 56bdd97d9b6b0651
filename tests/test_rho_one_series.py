"""Exact critical-point series: reversion, Im g, delta, and theta coefficients.

All coefficient assertions are exact rational comparisons.  The expansion
coefficients of Im g(tau, 1) are written r_j/sqrt(6), so Im g =
sum_j (r_j/sqrt(6)) tau^(j - 1/2); delta and theta coefficients follow as
d_j = r_j/3 and c_k = (r_k/3) (2k-1)!!/2^k.
"""

import math
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwtheta.rho_one_series as rs
from hwtheta.errors import DomainError

F = Fraction

# r_j for j = 0..6; the first five match the widely tabulated values, the
# sixth and seventh are this module's exact recomputation (see the theta
# test below for the corresponding t-coefficients).
R_EXACT = [
    F(3),
    F(-3, 35),
    F(7, 2750),
    F(-44081, 656906250),
    F(1495665023, 1039685521875000),
    F(-136866795413, 7532521605984375000),
    F(-9327314215679, 27343053429723281250000),
]

THETA_EXACT = [
    F(1),
    F(-1, 70),
    F(7, 11000),
    F(-44081, 1051050000),
    F(1495665023, 475284810000000),
    F(-136866795413, 765208544100000000),
]

DELTA_EXACT = [
    F(-1, 35),
    F(7, 8250),
    F(-44081, 1970718750),
    F(1495665023, 3119056565625000),
]


def test_im_g_coefficients_exact():
    series = rs.im_g_series(7)
    assert series.offset == F(-1, 2) and series.step == 1
    got = [coeff.as_over_root6() for coeff in series.coeffs]
    assert got == R_EXACT


def test_im_g_exponents():
    series = rs.im_g_series(4)
    assert [exp for exp, _ in series.terms()] == [
        F(-1, 2), F(1, 2), F(3, 2), F(5, 2)
    ]


def test_theta_coefficients_exact():
    series = rs.theta_series_rho1(6)
    assert list(series.coeffs) == THETA_EXACT
    assert series.PREFACTOR_TEXT == "sqrt(3)/(2*pi*t) * exp(1/t)"


def test_delta_coefficients_exact():
    series = rs.delta_series(4)
    assert series.offset == 1 and series.step == 1
    assert [coeff.a for coeff in series.coeffs] == DELTA_EXACT
    assert all(coeff.is_rational for coeff in series.coeffs)


def test_delta_equals_one_third_of_im_g_rationals():
    img = rs.im_g_series(6)
    dlt = rs.delta_series(5)
    for j, coeff in enumerate(dlt.coeffs, start=1):
        assert coeff.a == img.coeffs[j].as_over_root6() / 3


def test_theta_follows_from_im_g_by_half_integer_moments():
    # Laplace transform of tau^(k - 1/2) brings in Gamma(k + 1/2), i.e.
    # c_k = (r_k/3) * (2k-1)!!/2^k relative to the k = 0 term.
    img = rs.im_g_series(7)
    theta = rs.theta_series_rho1(7)
    for k in range(7):
        r_k = img.coeffs[k].as_over_root6()
        double_fact = math.prod(range(1, 2 * k, 2)) if k else 1
        assert theta.coeffs[k] == (r_k / 3) * F(double_fact, 2**k)


def test_reversion_leading_terms_exact():
    series = rs.invert_zeta_equation(3)
    terms = list(series.terms())
    assert [exp for exp, _ in terms] == [F(1, 2), F(1), F(3, 2)]
    assert terms[0][1] == rs.Q6.root6(2)
    assert terms[1][1] == rs.Q6.rational(F(-2, 5))
    assert terms[2][1] == rs.Q6.root6(F(2, 105))


def test_reversion_satisfies_defining_constraint_exactly():
    """Recompose sum_{k>=2} W(v)^k / (2k)! and check it equals v^2/6.

    This inverts the inversion: the zeta^2 coefficients b_m are mapped back
    to the v-series W(v) = sum c_m v^m via c_m = b_m 6^(-m/2) and the
    functional equation is verified term by term with exact arithmetic
    through v^order.
    """
    order = 33
    series = rs.invert_zeta_equation(order)
    c = [F(0)] * (order + 1)
    for m, coeff in enumerate(series.coeffs, start=1):
        if m % 2 == 0:
            assert coeff.is_rational
            c[m] = coeff.a / 6 ** (m // 2)
        else:
            assert coeff.a == 0
            c[m] = coeff.b / 6 ** ((m - 1) // 2)

    def mul(a, b):
        out = [F(0)] * (order + 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if i + j > order:
                    break
                out[i + j] += x * y
        return out

    # W^k starts at v^k, so degrees <= order only see k <= order
    target = [F(0)] * (order + 1)
    wpow = mul(c, c)
    for k in range(2, order + 1):
        fact = math.factorial(2 * k)
        for i, a in enumerate(wpow):
            target[i] += a / fact
        wpow = mul(wpow, c)

    expected = [F(0)] * (order + 1)
    expected[2] = F(1, 6)
    assert target == expected, (
        f"constraint residual {[str(x) for x in target]}"
    )


# The order-by-order solve and the S/(S-1) Laurent route that Lagrange
# inversion and g = d cosh(xi)/dtau replaced, then the Lagrange inversion
# that the ODE-pair recurrence replaced, kept verbatim as independent
# references: every route must give the same exact rationals.


def _fact(n: int) -> int:
    return math.factorial(n)


def _series_mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    """Product of two truncated power series, keeping n coefficients."""
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        if i >= n:
            break
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _constraint_series(c: list[Fraction], n: int) -> list[Fraction]:
    """Coefficients (length n) of sum_{k>=2} W(v)^k / (2k)! for W given by c."""
    out = [Fraction(0)] * n
    base = (list(c) + [Fraction(0)] * n)[:n]
    wk = _series_mul(base, base, n)  # W^2; W^k is O(v^k)
    k = 2
    while any(wk):
        f = Fraction(1, _fact(2 * k))
        for i, x in enumerate(wk):
            if x:
                out[i] += f * x
        k += 1
        if k >= n:
            break
        wk = _series_mul(wk, base, n)
    return out


@lru_cache(maxsize=None)
def _w_coefficients_solve(nv: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_nv of W(v) solving sum_{k>=2} W^k/(2k)! = v^2/6.

    W(v) = 2v - v^2/15 + v^3/315 - ...; each c_{m-1} is fixed by the order-m
    coefficient of the constraint, in which it appears linearly with slope
    2*c_1/4! = 1/6 (only the W^2 term can pair c_{m-1} with c_1 at that
    order; higher powers of W enter at v^(m+1) or beyond).
    """
    n = nv + 1
    c = [Fraction(0)] * n
    if nv >= 1:
        c[1] = Fraction(2)
    for m in range(3, n + 1):
        resid = _constraint_series(c, m + 1)[m]
        c[m - 1] = -6 * resid
    return tuple(c)


@lru_cache(maxsize=None)
def _g_laurent(nterms: int) -> tuple[Fraction, ...]:
    """Laurent coefficients of g = S/(S - 1) along the path at rho = 1.

    Here S = sinh(zeta)/zeta = sum_{m>=0} w^m/(2m+1)! composed with
    w = W(v).  Since S - 1 = v/3 * (1 + ...), g is a Laurent series starting
    at v^-1; the returned tuple g[k] holds the coefficient of v^(k-1),
    k = 0..nterms-1.
    """
    n = nterms + 1
    c = (list(_w_coefficients_solve(n)) + [Fraction(0)] * n)[:n]
    S = [Fraction(0)] * n
    S[0] = Fraction(1)
    wpow = list(c)
    m = 1
    while any(wpow):
        f = Fraction(1, _fact(2 * m + 1))
        for i, x in enumerate(wpow):
            if x:
                S[i] += f * x
        m += 1
        if m >= n:
            break
        wpow = _series_mul(wpow, c, n)
    sm1 = list(S)
    sm1[0] -= 1  # S - 1, vanishes linearly: sm1[1] = c_1/3! = 1/3
    assert sm1[0] == 0 and sm1[1] != 0
    lead = sm1[1]
    rest = [x / lead for x in sm1[1:]]  # 1 + r_1 v + ...
    inv = [Fraction(0)] * n
    inv[0] = Fraction(1)
    for i in range(1, n):
        acc = Fraction(0)
        for j in range(1, i + 1):
            if j < len(rest):
                acc += rest[j] * inv[i - j]
        inv[i] = -acc
    quotient = _series_mul(S, inv, n)
    return tuple(x / lead for x in quotient[:nterms])


@lru_cache(maxsize=None)
def _im_g_rationals_laurent(nterms: int) -> tuple[Fraction, ...]:
    """Rationals r_j with Im g(tau, 1) = sum_j (r_j/sqrt(6)) tau^(j-1/2).

    Odd powers of v are imaginary under the branch choice; collecting them
    gives r_j = (-1)^j * g_(2j) * 6^j with g_k the v^(k-1) Laurent
    coefficient of g.
    """
    g = _g_laurent(2 * nterms)
    return tuple((-1) ** j * g[2 * j] * Fraction(6) ** j for j in range(nterms))


# delta_series(16), the largest order the benchmark requests, asks for
# _im_g_rationals(17), which reads W through v^33.
W_MAX = 33
IM_G_MAX = 17


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


def _w_coefficients_miller(nv: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_nv of W(v), c_0 = 0, one Lagrange inversion each."""
    return (Fraction(0),) + tuple(_w_coefficient(n) for n in range(1, nv + 1))


def test_lagrange_reversion_equals_order_by_order_solve():
    # coefficient c_m of the solve does not depend on the requested size,
    # so the largest solve is the reference for every prefix
    ref = _w_coefficients_solve(W_MAX)
    for n in range(W_MAX + 1):
        assert _w_coefficients_miller(n) == ref[: n + 1], n
        assert rs._w_coefficients(n) == ref[: n + 1], n


def test_im_g_from_reversion_derivative_equals_laurent_route():
    ref = _im_g_rationals_laurent(IM_G_MAX)
    for n in range(1, IM_G_MAX + 1):
        assert rs._im_g_rationals(n) == ref[:n], n


@lru_cache(maxsize=None)
def _w_coefficients_fraction(nv: int) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_nv of W(v) solving sum_{k>=2} W^k/(2k)! = v^2/6.

    The left side is W^2 A(W)/24 with A(W) = 24*sum_{j>=0} W^j/(2j+4)!
    (A_0 = 1), so v = W/phi(W) with phi = 2*A^(-1/2) and Lagrange inversion
    reads c_n = (1/n) [W^(n-1)] phi^n = (2^n/n) [W^(n-1)] A^(-n/2).  The power
    P = A^alpha comes from J.C.P. Miller's recurrence
    P_k = (1/k) sum_{j=1..k} ((alpha+1) j - k) A_j P_(k-j), P_0 = 1.
    """
    a = [Fraction(24, math.factorial(2 * j + 4)) for j in range(nv)]
    c = [Fraction(0)] * (nv + 1)
    for n in range(1, nv + 1):
        alpha1 = Fraction(2 - n, 2)  # alpha + 1 with alpha = -n/2
        p = [Fraction(1)]
        for k in range(1, n):
            acc = sum((alpha1 * j - k) * a[j] * p[k - j] for j in range(1, k + 1))
            p.append(acc / k)
        c[n] = 2**n * p[n - 1] / n
    return tuple(c)


def test_integer_miller_step_equals_fraction_loop():
    # the per-length Fraction loop that the per-n integer step replaced;
    # delta_series(32) reads W through v^65
    assert _w_coefficients_miller(65) == _w_coefficients_fraction(65)


def _clear_series_caches():
    rs._reversion = rs._REVERSION_START


def test_ode_recurrence_equals_lagrange_inversion():
    # from cold, through v^65 (delta_series(32)), the recurrence gives the
    # integer Miller step's and the Fraction loop's c_n exactly, and the
    # order-by-order solve's through v^33
    _clear_series_caches()
    c = rs._w_coefficients(65)
    assert c == _w_coefficients_miller(65) == _w_coefficients_fraction(65)
    assert c[: W_MAX + 1] == _w_coefficients_solve(W_MAX)
    # Im g built on the reference c_n is Im g built on the recurrence's
    ref = _w_coefficients_miller(65)
    assert rs._im_g_rationals(33) == tuple(
        (-1) ** j * Fraction(2 * j + 1, 4) * ref[2 * j + 1] * 6 ** (j + 1) for j in range(33)
    )


def _recurrence_steps(monkeypatch) -> list[int]:
    """The order n of every convolution the recurrence runs from now on: a
    step at order n runs three, each over the n - 2 pairs i + k = n + 1
    with 2 <= i, k <= n - 1."""
    steps = []
    convolve = rs._convolve

    def counted(xs, ys):
        steps.append(len(xs) + 2)
        return convolve(xs, ys)

    monkeypatch.setattr(rs, "_convolve", counted)
    return steps


def _four_series(order: int):
    return (
        rs.theta_series_rho1(order).coeffs,
        rs.im_g_series(order).coeffs,
        rs.delta_series(order).coeffs,
        rs.invert_zeta_equation(order).coeffs,
    )


def test_four_series_share_one_reversion(monkeypatch):
    # delta_series(16) reads W through v^33, the longest of the four; each
    # c_n is computed once however many series and lengths ask for it, and
    # a longer request extends the prefix without recomputing it (c_1 = 2
    # is where the recurrence starts)
    _clear_series_caches()
    steps = _recurrence_steps(monkeypatch)
    _four_series(16)
    assert Counter(steps) == {n: 3 for n in range(2, 34)}
    assert len(rs._reversion[0]) == 34
    steps.clear()
    _four_series(16)
    assert steps == []
    _four_series(32)
    assert Counter(steps) == {n: 3 for n in range(34, 66)}
    assert len(rs._reversion[0]) == 66


def test_im_g_rationals_extend_the_shared_prefix():
    # delta_series(n) after theta_series_rho1(n) needs one more r_j: it is
    # appended beside c_(2n+1), and the n already held are kept, not rebuilt
    _clear_series_caches()
    rs.theta_series_rho1(16)
    held = rs._reversion[5]
    assert len(held) == 16
    rs.delta_series(16)
    grown = rs._reversion[5]
    assert len(grown) == 17 and all(a is b for a, b in zip(held, grown))


def test_reversion_work_grows_as_n_squared(monkeypatch):
    # the terms convolved to reach c_65 from cold, over those to reach c_33:
    # about 4 for one O(n) step per coefficient, about 7.6 for one O(n^2)
    # Lagrange inversion per coefficient
    steps = _recurrence_steps(monkeypatch)
    work = {}
    for nv in (33, 65):
        _clear_series_caches()
        steps.clear()
        rs._w_coefficients(nv)
        work[nv] = sum(n - 2 for n in steps)
    assert work == {33: 3 * 496, 65: 3 * 2016}
    assert work[65] / work[33] < 5


def test_shared_reversion_under_concurrent_callers():
    expected = _four_series(12)
    _clear_series_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_four_series, 12) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == expected for r in results)


def test_concurrent_callers_compute_each_coefficient_once(monkeypatch):
    _clear_series_caches()
    steps = _recurrence_steps(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    orders = (25, 9, 21, 25)
    start = threading.Barrier(len(orders))

    def call(nv):
        start.wait(timeout=60)
        return rs._w_coefficients(nv)

    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            futures = [pool.submit(call, nv) for nv in orders]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert Counter(steps) == {n: 3 for n in range(2, 26)}
    assert all(r == results[0][: len(r)] for r in results)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=40),
    m=st.integers(min_value=2, max_value=40),
    longer_first=st.booleans(),
    cold=st.booleans(),
)
def test_series_at_lower_order_is_prefix(n, m, longer_first, cold):
    n, m = min(n, m), max(n, m)
    if cold:
        _clear_series_caches()
    if longer_first:
        longer, shorter = _four_series(m), _four_series(n)
    else:
        shorter, longer = _four_series(n), _four_series(m)
    for short, long in zip(shorter, longer):
        assert len(short) == n and len(long) == m
        assert short == long[:n]


def test_sign_alternation_breaks_at_seventh_term():
    # the displayed six r_j alternate in sign; the seventh keeps the sign of
    # the sixth, so the alternation is a finite-order observation, not a law
    signs = [1 if r > 0 else -1 for r in R_EXACT]
    assert signs[:6] == [1, -1, 1, -1, 1, -1]
    assert signs[6] == signs[5] == -1


def test_im_g_evaluation_small_tau():
    series = rs.im_g_series(6)
    for tau in (0.01, 0.1):
        val = series.evaluate(tau)
        two_terms = math.sqrt(1.5) / math.sqrt(tau) * (1.0 - tau / 35.0)
        third = abs(float(series.coeffs[2])) * tau**1.5
        assert abs(val - two_terms) <= 2.0 * third
        assert val > 0.0


def test_delta_series_evaluation():
    series = rs.delta_series(4)
    assert series.evaluate(0.1) == pytest.approx(-0.0028486803286867524, rel=1e-15)
    # leading behavior -tau/35
    assert series.evaluate(1e-4) == pytest.approx(-1e-4 / 35.0, rel=1e-4)


def test_reversion_evaluation_lands_in_fourth_quadrant():
    series = rs.invert_zeta_equation(4)
    for tau in (0.01, 0.25):
        z2 = series.evaluate(tau)
        assert isinstance(z2, complex)
        assert z2.real > 0.0 and z2.imag < 0.0
    # leading term 2*sqrt(6)*(-i sqrt(tau)); real part starts at order tau
    z2 = series.evaluate(1e-6)
    assert z2.imag == pytest.approx(-2.0 * math.sqrt(6.0) * 1e-3, rel=1e-3)
    assert abs(z2.real) < 1e-5


def test_term_magnitudes_decrease_in_truncation_range():
    theta = rs.theta_series_rho1(6)
    img = rs.im_g_series(6)
    for t in (0.1, 0.25, 0.5):
        mags = [theta.term_magnitude(t, k) for k in range(1, 6)]
        assert all(a > b for a, b in zip(mags, mags[1:])), (t, mags)
        mags = [img.term_magnitude(t, k) for k in range(6)]
        assert all(a > b for a, b in zip(mags, mags[1:])), (t, mags)


def test_theta_bracket_and_prefactor():
    theta = rs.theta_series_rho1(6)
    t = 0.2
    bracket = theta.bracket(t)
    expected = sum(float(c) * t**k for k, c in enumerate(theta.coeffs))
    assert bracket == pytest.approx(expected, rel=1e-15)
    prefactor = math.sqrt(3.0) / (2.0 * math.pi * t) * math.exp(1.0 / t)
    assert theta.evaluate(t) == pytest.approx(prefactor * bracket, rel=1e-15)


def test_partial_sums_differ_by_one_term():
    theta = rs.theta_series_rho1(6)
    t = 0.3
    for n in range(1, 6):
        gap = abs(rs.theta_series_rho1(n + 1).bracket(t) - rs.theta_series_rho1(n).bracket(t))
        assert gap == pytest.approx(theta.term_magnitude(t, n), rel=1e-12)


def test_theta_series_refuses_prefactor_beyond_double_range():
    theta = rs.theta_series_rho1(7)
    assert math.isfinite(theta.evaluate(1.4195e-3))
    for t in (1.4193e-3, 1e-3, 1e-300):
        with pytest.raises(DomainError, match="1.4195e-3"):
            theta.evaluate(t)


def test_theta_series_refuses_a_partial_sum_that_is_not_positive():
    # order 0 sums nothing; order 6 crosses zero at t = 24.3454
    cases = ((0, 0.1, "0"), (6, 24.35, "-0.00088305894710"), (6, 30.0, "-1.78559776769434"))
    for order, t, head in cases:
        with pytest.raises(DomainError) as excinfo:
            rs.theta_series_rho1(order).evaluate(t)
        message = str(excinfo.value)
        assert message.startswith(f"theta series of order {order} has partial sum {head}")
        assert message.endswith(f"at t={t!r}; theta is positive")
    assert rs.theta_series_rho1(6).evaluate(24.34) > 0.0

def test_series_routes_refuse_non_finite_arguments():
    theta = rs.theta_series_rho1(7)
    routes = (theta.evaluate, theta.bracket, rs.delta_series(4).evaluate, rs.im_g_series(4).evaluate)
    for route in routes:
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            with pytest.raises(DomainError):
                route(bad)


def test_series_powers_past_the_double_range_are_refused():
    # t^k beyond 1.8e308 raises OverflowError in floats; the series refuse it
    theta = rs.theta_series_rho1(7)
    img = rs.im_g_series(6)
    routes = (
        (theta.bracket, (), "t^4 overflows a double at t=1e+100"),
        (theta.term_magnitude, (6,), "t^6 overflows a double at t=1e+100"),
        (img.evaluate, (), "tau^3.5 overflows a double at tau=1e+100"),
        (img.term_magnitude, (5,), "tau^4.5 overflows a double at tau=1e+100"),
    )
    for route, extra, message in routes:
        with pytest.raises(DomainError) as excinfo:
            route(1e100, *extra)
        assert str(excinfo.value) == message
    # below the overflow the sums are still returned as before
    assert rs.theta_series_rho1(6).bracket(1e61) == pytest.approx(-1.7886208468042636e298, rel=1e-15)
    assert img.term_magnitude(1e62, 5) == pytest.approx(7.417919014561198e270, rel=1e-15)


def test_delta_large_tau_formula_and_guard():
    for tau in (100.0, 1e4):
        assert rs.delta_large_tau(tau) == -1.0 + math.pi * math.sqrt(
            2.0 / (3.0 * tau)
        )
    with pytest.raises(DomainError):
        rs.delta_large_tau(99.0)
    with pytest.raises(DomainError):
        rs.delta_large_tau(-5.0)


def test_order_validation():
    constructors = (
        (rs.invert_zeta_equation, 2),
        (rs.im_g_series, 1),
        (rs.delta_series, 1),
        (rs.theta_series_rho1, 0),
    )
    for build, minimum in constructors:
        # an order is an integer, never truncated from a float
        for bad in (minimum - 1, 4.7, 3.9, 4.0, math.nan, math.inf, "4", None):
            with pytest.raises(DomainError) as excinfo:
                build(bad)
            assert str(excinfo.value) == f"order must be an integer >= {minimum}, got {bad!r}"


def test_q6_arithmetic_and_rendering():
    q = rs.Q6.over_root6(F(7, 2750))
    assert float(q) == pytest.approx(7.0 / 2750.0 / math.sqrt(6.0), rel=1e-15)
    assert q.as_over_root6() == F(7, 2750)
    assert str(rs.Q6.root6(2)) == "2*sqrt(6)"
    assert str(rs.Q6.rational(F(-2, 5))) == "-2/5"
    assert rs.Q6.rational(F(1, 8)).decimal_str(6) == "0.125000"
    rendered = rs.Q6.rational(THETA_EXACT[5]).decimal_str(12)
    assert rendered.startswith("-1.7886")
    assert not rs.Q6.rational(0)
    assert -rs.Q6.root6(2) == rs.Q6.root6(-2)


@pytest.mark.parametrize(
    "a, b, text",
    [
        (F(1), F(2), "1 + 2*sqrt(6)"),
        (F(1), F(-2), "1 - 2*sqrt(6)"),
        (F(1, 2), F(-1, 3), "1/2 - (1/3)*sqrt(6)"),
        (F(-3, 4), F(-5), "-3/4 - 5*sqrt(6)"),
        (F(1, 2), F(1, 3), "1/2 + (1/3)*sqrt(6)"),
        (F(-1, 2), F(1, 3), "-1/2 + (1/3)*sqrt(6)"),
        (F(-1, 2), F(-1, 3), "-1/2 - (1/3)*sqrt(6)"),
    ],
)
def test_q6_with_both_parts_renders_its_value(a, b, text):
    # a mixed element prints its surd's sign as the operator, and a
    # fractional surd coefficient in parentheses whatever the signs; read
    # as a Python expression, the text is the element's value
    q = rs.Q6(a, b)
    assert str(q) == text
    assert eval(text, {"sqrt": math.sqrt}) == pytest.approx(float(q), rel=1e-15)
