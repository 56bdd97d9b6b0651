"""Acceptance checklist.

Each test pins one headline claim at its stated tolerance and time budget,
and prints the measured value next to the expected one on failure.  Where an
expected value was corrected after the first version of this checklist, the
old value, the new one and the independent check behind the change are
recorded next to the constant or the envelope concerned.
"""

import cmath
import math
import time
from fractions import Fraction

import pytest

import hwtheta.approximation_and_bounds as ab
import hwtheta.cli as cli
import hwtheta.descent_path as dp
import hwtheta.reference_quadrature as rq
import hwtheta.rho_one_series as rs
import hwtheta.saddle_geometry as sg

# Exact series data the checklist holds the package to.  The first five
# entries of each table are the widely tabulated values.  The sixth entries
# were first tabulated as (-96439937879/5734608285656250000)/sqrt(6) and
# -96439937879/582563381400000000; both are wrong.  The corrected values
# below are confirmed by
#   * the order-by-order solve of the reversion and the S/(S-1) Laurent
#     route to Im g, kept in tests/test_rho_one_series.py as the route
#     independent of the module's ODE recurrence, which reproduce all six
#     Im g coefficients;
#   * quadrature of the defining integral at rho = 1 (the t^5 coefficient
#     recovered from theta_direct(1/t, t) at t in {0.05, 0.08, 0.1} is
#     -1.7887e-7, within 1e-4 of the exact -1.78862e-7 and 8% from the old
#     -1.65544e-7); test_direct_evaluation_vs_truncated_series repeats this
#     recovery at t = 0.1.
IM_G_FRAGMENTS = [
    ("tau^(-1/2)", "(3)/sqrt(6)"),
    ("tau^(1/2)", "(-3/35)/sqrt(6)"),
    ("tau^(3/2)", "(7/2750)/sqrt(6)"),
    ("tau^(5/2)", "(-44081/656906250)/sqrt(6)"),
    ("tau^(7/2)", "(1495665023/1039685521875000)/sqrt(6)"),
    ("tau^(9/2)", "(-136866795413/7532521605984375000)/sqrt(6)"),
]
THETA_COEFF_TAB = [
    Fraction(1),
    Fraction(-1, 70),
    Fraction(7, 11000),
    Fraction(-44081, 1051050000),
    Fraction(1495665023, 475284810000000),
    Fraction(-136866795413, 765208544100000000),
]

RHO_GRID = [0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]
T_GRID = [0.05, 0.1, 0.2]


def test_displayed_im_g_fractions_order_six(capsys):
    start = time.perf_counter()
    code = cli.main(["series", "--order", "6"])
    out = capsys.readouterr().out
    assert code == 0
    block = out.split("\n\n")[0].splitlines()
    for exponent, tabulated in IM_G_FRAGMENTS:
        actual = next((ln for ln in block if exponent + " " in ln), "<missing>")
        assert tabulated in actual, (
            f"coefficient of {exponent}: computed line {actual.strip()!r} "
            f"does not show tabulated value {tabulated!r}"
        )
    assert time.perf_counter() - start < 1.0


def test_displayed_theta_coefficients_exact():
    start = time.perf_counter()
    series = rs.theta_series_rho1(6)
    computed = list(series.coeffs)
    assert len(computed) == len(THETA_COEFF_TAB)
    for k, (got, tab) in enumerate(zip(computed, THETA_COEFF_TAB)):
        assert got == tab, (
            f"theta coefficient c_{k}: computed {got} != tabulated {tab} "
            f"(difference {got - tab})"
        )
    assert time.perf_counter() - start < 1.0


def test_traced_slope_and_curvature_at_critical_point():
    start = time.perf_counter()
    slope = dp.delta_prime_at_zero(1.0)
    curvature = dp.delta_double_prime_at_zero(1.0)
    assert abs(slope - (-1.0 / 35.0)) <= 1e-6, (
        f"delta'(0, 1): traced {slope!r}, tabulated {-1.0 / 35.0!r}"
    )
    assert abs(curvature - 7.0 / 4125.0) <= 1e-4, (
        f"delta''(0, 1): traced {curvature!r}, tabulated {7.0 / 4125.0!r}"
    )
    assert time.perf_counter() - start < 10.0


def test_direct_evaluation_vs_truncated_series():
    start = time.perf_counter()
    series = rs.theta_series_rho1(8)
    five_terms = rs.theta_series_rho1(5)
    c = [float(ck) for ck in series.coeffs]
    c5_tab = abs(THETA_COEFF_TAB[5])
    for t in (0.1, 0.25, 0.5):
        res = rq.theta_direct(1.0 / t, t)
        assert res.precision_used_bits <= 512
        if t == 0.1:
            # the t^5 coefficient of the oracle's bracket, less c_6 t + c_7 t^2
            bracket = res.theta / (math.sqrt(3.0) / (2.0 * math.pi * t) * math.exp(1.0 / t))
            c5 = (bracket - five_terms.bracket(t)) / t**5 - c[6] * t - c[7] * t**2
            c5_exact = float(THETA_COEFF_TAB[5])
            assert abs(c5 / c5_exact - 1.0) <= 1e-3, (
                f"t^5 coefficient recovered from theta_direct at t={t}: {c5!r}, "
                f"expected c_5 = {c5_exact!r}"
            )
        five_term = five_terms.evaluate(t)
        rel = abs(res.theta / five_term - 1.0)
        allowance = 2.0 * float(c5_tab) * t**5
        assert rel <= allowance, (
            f"t={t}: |direct/series - 1| = {rel!r} exceeds twice the "
            f"sixth-term magnitude {allowance!r}"
        )
    assert time.perf_counter() - start < 60.0


def test_leading_order_relative_error_on_grid():
    start = time.perf_counter()
    report = ab.check_bound(RHO_GRID, T_GRID)
    assert not report.failures
    for row in report.rows:
        cap = row.t / 70.0 * 1.15
        assert abs(row.vartheta) <= cap, (
            f"rho={row.rho}, t={row.t}: |vartheta| = {abs(row.vartheta)!r} "
            f"exceeds 1.15 * t/70 = {cap!r}"
        )
    # the strict bound is reported separately and is expected to hold too
    assert report.all_pass_strong, (
        f"strict bound failed somewhere: max |vartheta|*70/t = "
        f"{report.max_ratio_simple!r}"
    )
    assert time.perf_counter() - start < 300.0


def test_delta_bound_certification_sweep():
    start = time.perf_counter()
    n_rho, n_tau = 25, 200
    lo, hi = math.log(0.05), math.log(10.0)
    rhos = [math.exp(lo + (hi - lo) * i / (n_rho - 1)) for i in range(n_rho)]
    taus = [50.0 * (i + 1) / n_tau for i in range(n_tau)]
    table = dp.sweep_delta(rhos, taus)
    assert not table.failures
    worst = max(table.rows, key=lambda r: r.bound_ratio)
    assert worst.bound_ratio <= 1.0 + 1e-3, (
        f"rho={worst.rho}, tau={worst.tau}: |delta|/min(tau/35, 1) = "
        f"{worst.bound_ratio!r} exceeds 1 + 1e-3"
    )
    assert time.perf_counter() - start < 300.0


def test_large_tau_asymptote_approach():
    # Remainder of delta(tau, 1) over the two-term asymptote: with
    # L = log(2 tau) it is pi*sqrt(2/3) tau^(-3/2) (3/2 L^2 - 3 L - F(1)) + ...,
    # F(1) = pi^2/2 - 1, the log^2 rate stated by rs.delta_large_tau.  The
    # envelope is its leading part, pi*sqrt(3/2) tau^(-3/2) L^2, which the
    # remainder approaches from below (ratios 0.70, 0.77, 0.82 here).  The
    # first envelope, 10 tau^(-3/2) L, had the wrong rate: the remainder
    # exceeds it by 2.0, 2.9 and 3.8.  The traced delta agrees with a
    # 50-digit mpmath continuation of the path to 2e-14 at all three tau, and
    # the remainder matches the derived term to 0.9%, 0.35% and 0.07%.
    taus = [1e3, 1e4, 1e5]
    table = dp.sweep_delta([1.0], taus)
    assert not table.failures
    f1 = math.pi**2 / 2.0 - 1.0
    measured = []
    report = []
    for row in table.rows:
        asym = -1.0 + math.pi * math.sqrt(2.0 / (3.0 * row.tau))
        remainder = row.delta - asym
        log2tau = math.log(2.0 * row.tau)
        term = (
            math.pi * math.sqrt(2.0 / 3.0) * row.tau**-1.5
            * (1.5 * log2tau**2 - 3.0 * log2tau - f1)
        )
        env = math.pi * math.sqrt(1.5) * row.tau**-1.5 * log2tau**2
        measured.append((abs(remainder), env, remainder / term))
        report.append(
            f"tau={row.tau:g}: error {abs(remainder)!r}, envelope {env!r}, "
            f"ratio {abs(remainder) / env:.3f}, derived term {term!r}"
        )
    errors = [err for err, _, _ in measured]
    assert all(a > b for a, b in zip(errors, errors[1:])), report
    for err, env, to_term in measured:
        assert env / 1.5 <= err <= env, "; ".join(report)
        assert abs(to_term - 1.0) <= 0.02, "; ".join(report)


def test_uniform_bound_profile_and_incomplete_gamma():
    import mpmath as mp

    for z, ref in ((0.5, None), (1.0, None), (5.0, None)):
        with mp.workdps(30):
            oracle = float(mp.quad(lambda u: mp.exp(-z * u) * mp.sqrt(u), [1, mp.inf]))
        got = ab.ei_half(z)
        assert abs(got / oracle - 1.0) <= 1e-12, (
            f"ei_half({z}): computed {got!r}, quadrature oracle {oracle!r}"
        )
    # vartheta_max(t) * 70/t lies in [0.99, 1] only for t up to about 9.066;
    # the first version of this check also asked it at t = 10, where the
    # defining integral gives 0.985159 (mpmath quadrature, matched by the
    # closed form to 2e-16).  At t = 10 the closed form is checked against
    # that quadrature instead.
    bounds = {t: ab.vartheta_max(t) for t in (0.1, 1.0, 10.0, 1e6)}
    for t, bound in bounds.items():
        assert bound <= t / 70.0, f"t={t:g}: vartheta_max {bound!r} exceeds t/70"
    with mp.workdps(30):
        t = mp.mpf(10)
        oracle = float(
            (
                mp.quad(lambda s: mp.exp(-s / t) * mp.sqrt(s) / 35, [0, 35])
                + mp.quad(lambda s: mp.exp(-s / t) / mp.sqrt(s), [35, mp.inf])
            )
            / mp.sqrt(mp.pi * t)
        )
    assert abs(bounds[10.0] / oracle - 1.0) <= 1e-12, (
        f"vartheta_max(10): computed {bounds[10.0]!r}, quadrature oracle {oracle!r}"
    )
    ratios = {t: bounds[t] / (t / 70.0) for t in (0.1, 1.0)}
    ratios[1e6] = bounds[1e6]
    for t, ratio in ratios.items():
        assert 0.99 <= ratio <= 1.0, (
            f"t={t:g}: vartheta_max ratio {ratio!r} outside [0.99, 1]; "
            f"all measured ratios: { {k: round(v, 12) for k, v in ratios.items()} }"
        )


def test_residual_and_convergence_properties():
    start = time.perf_counter()
    n = 25
    lo, hi = math.log(0.05), math.log(10.0)
    for i in range(n):
        rho = math.exp(lo + (hi - lo) * i / (n - 1))
        xi = sg.saddle_data(rho).xi_saddle
        residual = abs(xi + rho * cmath.sinh(xi) - 1j * math.pi)
        assert residual < 1e-12, f"rho={rho}: stationarity residual {residual!r}"
    for rho in (0.5, 1.0, 2.0):
        trace = dp.trace_path(rho, 50.0)
        for s in trace.samples:
            residual = abs(sg.h(s.xi, rho) - (trace.saddle.F + s.tau))
            assert residual < 1e-10, (
                f"rho={rho}, tau={s.tau}: path residual {residual!r}"
            )
    base = rq.theta_direct(2.0, 0.5)
    doubled = rq.theta_direct(2.0, 0.5, 2 * base.precision_used_bits)
    rel = abs(base.theta / doubled.theta - 1.0)
    assert rel < 1e-12, f"self-convergence under precision doubling: {rel!r}"
    assert time.perf_counter() - start < 300.0


def test_slope_minimum_at_critical_point():
    center = dp.delta_prime_at_zero(1.0)
    for rho in (0.8, 0.9, 1.1, 1.25):
        other = dp.delta_prime_at_zero(rho)
        assert other > center, (
            f"delta'(0, {rho}) = {other!r} is not above delta'(0, 1) = {center!r}"
        )
