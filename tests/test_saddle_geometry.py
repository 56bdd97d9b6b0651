"""Saddle location, regime classification, and the derived g0/F/G.

Frozen reference roots below come from 50-digit mpmath.findroot solves of
rho*sinh(x) = x and y + rho*sin(y) = pi, rounded to the nearest double.
"""

import cmath
import math

import mpmath as mp
import pytest

import hwtheta.saddle_geometry as sg
from hwtheta.errors import DomainError

HALF_PI_SQ = 0.5 * math.pi * math.pi

# rho -> x1, 50-digit root solve
X1_REF = {
    0.1: 4.499913997027289,
    0.25: 3.263796101543647,
    0.5: 2.1773189849653067,
    0.9: 0.8034360280046308,
    0.99: 0.2458114100475715,
}

# rho -> y1, 50-digit root solve
Y1_REF = {
    1.1: 2.392606010892453,
    2.0: 1.2460983865558124,
    4.0: 0.6670158662199642,
    10.0: 0.2892507591397016,
    1000.0: 0.003138459346506695,
}

# rho -> (g0, F, G), closed forms evaluated on the 50-digit roots
DERIVED_REF = {
    0.5: (2.771921809262759, 5.07116969506992, 1.9600447082485806),
    2.0: (0.5236179922696664, 3.776397990650573, 1.4810153323406656),
    4.0: (0.21492403413631858, 5.015722175876516, 1.215793935822079),
}


def test_x1_matches_reference_roots():
    for rho, ref in X1_REF.items():
        got = sg._solve_x1(rho)
        assert got == pytest.approx(ref, rel=1e-14)


def test_y1_matches_reference_roots():
    for rho, ref in Y1_REF.items():
        got = sg._solve_y1(rho)
        assert got == pytest.approx(ref, rel=1e-14)


def test_x1_residuals_on_log_grid():
    for i in range(40):
        rho = 0.01 * (0.999 / 0.01) ** (i / 39)
        x1 = sg._solve_x1(rho)
        assert abs(rho * math.sinh(x1) - x1) <= 1e-12 * max(1.0, x1)


def test_y1_residuals_on_log_grid():
    for i in range(40):
        rho = 1.001 * (1000.0 / 1.001) ** (i / 39)
        y1 = sg._solve_y1(rho)
        assert 0.0 < y1 < math.pi
        assert abs(y1 + rho * math.sin(y1) - math.pi) <= 1e-12 * math.pi


def test_y1_critical_is_exactly_pi():
    assert sg.saddle_data(1.0).y1 == math.pi


def test_y1_monotone_decreasing():
    rhos = [1.0 + 0.25 * k for k in range(1, 30)]
    values = [sg._solve_y1(r) for r in rhos]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_y1_large_rho_scaling():
    # y + rho*sin(y) = pi linearizes to y ~ pi/(1 + rho) for large rho
    y1 = sg._solve_y1(1000.0)
    assert y1 == pytest.approx(math.pi / 1001.0, rel=1e-3)


def test_classify_regimes_and_band_edges():
    def regime(rho):
        return sg.saddle_data(rho).regime

    assert regime(0.5) is sg.Regime.SUB_CRITICAL
    assert regime(2.0) is sg.Regime.SUPER_CRITICAL
    assert regime(1.0) is sg.Regime.CRITICAL
    # probes clearly inside/outside; the exact edge |rho-1| == EPS_CRIT is
    # one ulp away from representable for 1 - 1e-6
    assert regime(1.0 + 9e-7) is sg.Regime.CRITICAL
    assert regime(1.0 - 9e-7) is sg.Regime.CRITICAL
    assert regime(1.0 + 2e-6) is sg.Regime.SUPER_CRITICAL
    assert regime(1.0 - 2e-6) is sg.Regime.SUB_CRITICAL


def test_saddle_is_stationary_and_on_level_set():
    # h'(saddle) = 0 and h(saddle) = F (exactly real) in every regime
    for i in range(25):
        rho = 0.05 * (10.0 / 0.05) ** (i / 24)
        sd = sg.saddle_data(rho)
        xi = sd.xi_saddle
        hprime = xi + rho * cmath.sinh(xi) - 1j * math.pi
        assert abs(hprime) <= 1e-12 * max(1.0, abs(xi))
        hval = sg.h(xi, rho)
        assert abs(hval.imag) <= 1e-12 * max(1.0, abs(hval))
        assert abs(hval.real - sd.F) <= 1e-12 * max(1.0, abs(sd.F))


def test_critical_closed_forms():
    assert sg.g0(1.0) == math.sqrt(1.5)
    assert sg.F(1.0) == HALF_PI_SQ - 1.0
    assert sg.G(1.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    sd = sg.saddle_data(1.0)
    assert sd.regime is sg.Regime.CRITICAL
    assert sd.xi_saddle == complex(0.0, math.pi)
    assert sd.x1 is None and sd.y1 == math.pi


def test_derived_quantities_match_reference():
    for rho, (g0_ref, f_ref, g_ref) in DERIVED_REF.items():
        assert sg.g0(rho) == pytest.approx(g0_ref, rel=1e-13)
        assert sg.F(rho) == pytest.approx(f_ref, rel=1e-13)
        assert sg.G(rho) == pytest.approx(g_ref, rel=1e-13)


def test_saddle_data_is_consistent_with_scalar_functions():
    for rho in (0.3, 0.9, 1.0, 1.5, 7.0):
        sd = sg.saddle_data(rho)
        assert sd.rho == rho
        assert sd.g0 == sg.g0(rho)
        assert sd.F == sg.F(rho)
        assert sd.G == sg.G(rho)
        assert sd.G == pytest.approx(math.sqrt(2.0) * rho * sd.g0, rel=1e-15)
        if sd.regime is sg.Regime.SUB_CRITICAL:
            assert sd.x1 is not None and sd.y1 is None
            assert sd.xi_saddle == complex(sd.x1, math.pi)
        elif sd.regime is sg.Regime.SUPER_CRITICAL:
            assert sd.x1 is None and sd.y1 is not None
            assert sd.xi_saddle == complex(0.0, sd.y1)


def test_continuity_across_the_critical_band():
    # g0, F, G approach their rho=1 values linearly; no jump at the band edge
    for eps in (1e-2, 1e-3, 1e-4):
        for rho in (1.0 + eps, 1.0 - eps):
            assert abs(sg.g0(rho) - math.sqrt(1.5)) <= 2.0 * eps
            assert abs(sg.F(rho) - (HALF_PI_SQ - 1.0)) <= 2.0 * eps
            assert abs(sg.G(rho) - math.sqrt(3.0)) <= 1.0 * eps


def test_domain_errors():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            sg.saddle_data(bad)


def _mp_saddle(rho):
    """(root, g0, F) from a 40-digit mpmath root of the saddle equation."""
    with mp.workdps(40):
        r = mp.mpf(rho)
        if rho < 1.0:
            big = mp.log(2 / r)
            guess = big + mp.log(big) if big > 2 else mp.sqrt(6 * (1 - r))
            x = mp.findroot(lambda x: r * mp.sinh(x) - x, guess)
            g0 = mp.sinh(x) / mp.sqrt(2 * (r * mp.cosh(x) - 1))
            f = x * x / 2 - r * mp.cosh(x) + mp.pi**2 / 2
        else:
            x = mp.findroot(lambda y: y + r * mp.sin(y) - mp.pi, mp.pi / (1 + r))
            g0 = mp.sin(x) / mp.sqrt(2 * (r * mp.cos(x) + 1))
            f = -x * x / 2 + r * mp.cos(x) + mp.pi * x
        return x, g0, f


def test_saddle_data_accurate_or_refused_over_the_double_range():
    # every quarter decade of [1e-300, 1e300]: the root within 1e-13 of a
    # 40-digit root, g0 and F within the module's 1e-12 (g0 picks up the
    # root's rounding times x1, up to 710), or a DomainError
    refused = []
    for k in range(-1200, 1201):
        rho = 10.0 ** (k / 4)
        try:
            sd = sg.saddle_data(rho)
        except DomainError:
            refused.append(rho)
            continue
        if sd.regime is sg.Regime.CRITICAL:
            continue
        root, g0, f = _mp_saddle(rho)
        got = sd.x1 if rho < 1.0 else sd.y1
        assert abs(got - root) <= 1e-13 * root, rho
        assert abs(sd.g0 - g0) <= 1e-12 * g0, rho
        assert abs(sd.F - f) <= 1e-12 * abs(f), rho
    # g0 ~ pi/(sqrt(2) rho^1.5) leaves the normal range near rho = 2e205
    assert refused and min(refused) > 1e205
    assert all(rho >= min(refused) for rho in refused)


def test_extreme_rho_refused_not_crashed():
    # a bracket [1e-8, 3 log(2/rho)] bisects past sinh's overflow below
    # rho = 1e-205, and [1e-8, pi) misses y1 ~ pi/(1+rho) above 3.146e8
    for rho in (1e300, 3e205, 1.7e308, 1e-307, 5e-324):
        with pytest.raises(DomainError):
            sg.saddle_data(rho)
    # the root itself is refused, before g0 is formed
    with pytest.raises(DomainError, match="x1 at rho=1e-307 "):
        sg.saddle_data(1e-307)
    with pytest.raises(DomainError, match="y1 at rho=1.7e[+]308 "):
        sg.saddle_data(1.7e308)
    assert sg.saddle_data(1e100).y1 == pytest.approx(math.pi / (1.0 + 1e100), rel=1e-15)
    assert sg.saddle_data(1e-300).x1 == pytest.approx(float(_mp_saddle(1e-300)[0]), rel=1e-15)
