"""Descent-path tracing, delta, its small-tau derivatives, and the sweep."""

import bisect
import cmath
import math
import re
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwtheta._descent_py as kernel
import hwtheta.descent_path as dp
import hwtheta.rho_one_series as rs
import hwtheta.saddle_geometry as sg
from hwtheta._descent_py import _MAX_DXI, _QUARTER_TURN, _RTOL
from hwtheta.errors import DomainError, ExtrapolationError, PathError

HALF_PI_SQ = 0.5 * math.pi * math.pi

def _g_of_xi(xi, rho):
    """g(xi) = sinh(xi)/(xi + rho*sinh(xi) - i*pi) evaluated directly, to
    check the kernel's g, which it carries in difference form around the
    saddle; the denominator is h'(xi), so the direct form loses its digits
    near the saddle, where g has its pole."""
    s = cmath.sinh(xi)
    return s / (xi + rho * s - 1j * math.pi)


# regression anchors from the current tracer, cross-validated against the
# exact critical-point series (rho = 1) and the sample residual invariants;
# loose tolerance absorbs step-history differences
DELTA_ANCHORS = [
    (1.0, 1.0, -0.027744838338219946),
    (0.5, 0.5, None),  # value asserted via bound and series only
]
DPRIME_ANCHORS = {
    0.5: -0.027740755694264794,
    10.0: -0.015320588904117676,
}


def test_samples_satisfy_defining_equation():
    # h(xi(tau)) - h(saddle) = tau, exactly real, on every emitted sample
    for rho in (0.5, 1.0, 2.0):
        trace = dp.trace_path(rho, 50.0)
        assert trace.samples[-1].tau == 50.0
        for s in trace.samples:
            hval = sg.h(s.xi, rho)
            assert abs(hval - (trace.saddle.F + s.tau)) <= 1e-10 * max(1.0, s.tau)


def test_path_stays_on_descending_branch():
    # fourth-quadrant branch relative to the saddle at rho = 1; elsewhere the
    # path leaves the saddle with increasing real part
    trace = dp.trace_path(1.0, 10.0)
    for s in trace.samples:
        d = s.xi - trace.saddle.xi_saddle
        assert d.real > 0.0 and d.imag < 0.0
    for rho in (0.5, 1.0, 2.0):
        trace = dp.trace_path(rho, 50.0)
        reals = [s.xi.real for s in trace.samples]
        assert all(a < b for a, b in zip(reals, reals[1:]))


def test_sampling_is_dense_and_anchored():
    for rho in (0.5, 1.0, 2.0):
        trace = dp.trace_path(rho, 50.0)
        assert trace.samples[0].tau <= 5e-3
        assert trace.samples[-1].tau == 50.0
        taus = [s.tau for s in trace.samples]
        assert all(a < b for a, b in zip(taus, taus[1:]))
        steps = [
            abs(b.xi - a.xi) for a, b in zip(trace.samples, trace.samples[1:])
        ]
        assert max(steps) <= 0.1 + 1e-12


def test_sample_g_matches_direct_evaluation():
    # the kernel carries g in cancellation-free difference form; away from
    # the saddle it must agree with the plain formula
    for rho in (0.5, 1.0, 2.0):
        trace = dp.trace_path(rho, 50.0)
        for s in trace.samples:
            if s.tau < 0.5:
                continue
            direct = _g_of_xi(s.xi, rho)
            assert abs(s.g - direct) <= 1e-12 * abs(direct)


def test_delta_is_negative_bounded_and_monotone():
    for rho in (0.3, 1.0, 3.0):
        trace = dp.trace_path(rho, 50.0)
        deltas = [s.delta for s in trace.samples]
        assert all(-1.0 <= d < 0.0 for d in deltas)
        assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))
        for s in trace.samples:
            assert abs(s.delta) <= min(s.tau / 35.0, 1.0) * (1.0 + 1e-3)


def test_delta_vanishes_at_small_tau():
    for rho in (0.5, 1.0, 2.0):
        assert abs(dp.delta(1e-4, rho)) < 1e-3


def test_delta_anchor_at_unit_tau():
    assert dp.delta(1.0, 1.0) == pytest.approx(-0.027744838338219946, abs=1e-9)


def test_delta_matches_critical_series():
    series = rs.delta_series(5)
    four_terms = rs.delta_series(4)
    for tau in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0):
        traced = dp.delta(tau, 1.0)
        summed = four_terms.evaluate(tau)
        allowance = 2.0 * series.term_magnitude(tau, 4) + 1e-11
        assert abs(traced - summed) <= allowance, (tau, traced, summed)


def test_delta_prime_at_zero():
    assert dp.delta_prime_at_zero(1.0) == pytest.approx(-1.0 / 35.0, abs=1e-9)
    for rho, anchor in DPRIME_ANCHORS.items():
        slope = dp.delta_prime_at_zero(rho)
        assert -1.0 / 35.0 < slope < 0.0
        assert slope == pytest.approx(anchor, abs=1e-9)


def test_delta_prime_is_smallest_at_the_critical_point():
    center = dp.delta_prime_at_zero(1.0)
    for rho in (0.5, 0.8, 0.9, 1.1, 1.25, 2.0):
        assert dp.delta_prime_at_zero(rho) > center


def test_delta_double_prime_at_zero():
    got = dp.delta_double_prime_at_zero(1.0)
    assert got == pytest.approx(7.0 / 4125.0, abs=1e-5)


def test_slope_and_curvature_share_one_extrapolation_gate():
    # just outside the critical band the slope extrapolation does not
    # converge; the curvature, which needs that slope, refuses identically
    rho = 1.0 + 2e-6
    with pytest.raises(ExtrapolationError) as slope_err:
        dp.delta_prime_at_zero(rho)
    with pytest.raises(ExtrapolationError) as curvature_err:
        dp.delta_double_prime_at_zero(rho)
    assert str(curvature_err.value) == str(slope_err.value)
    assert curvature_err.value.estimate == slope_err.value.estimate
    assert curvature_err.value.convergence == slope_err.value.convergence
    assert slope_err.value.estimate == pytest.approx(-0.028433383778137564, abs=1e-12)
    assert slope_err.value.convergence > 1e-6


def test_derivatives_continuous_at_band_edge():
    # entering the critical band must not kink the extrapolated slope; just
    # outside the band the saddle pair is nearly degenerate, so hold the
    # outside probe to a looser tolerance
    inside = dp.delta_prime_at_zero(1.0 + 5e-7)
    outside = dp.delta_prime_at_zero(1.0 + 5e-6)
    assert inside == pytest.approx(-1.0 / 35.0, abs=1e-6)
    assert outside == pytest.approx(-1.0 / 35.0, abs=1e-4)


def test_g_of_xi_pole_and_asymptote():
    # the saddle is a zero of h', so g's pole: the direct form blows up there
    sd = sg.saddle_data(0.5)
    assert abs(_g_of_xi(sd.xi_saddle, 0.5)) > 1e14
    # far along the real axis h' ~ rho*sinh, so g -> 1/rho
    assert _g_of_xi(20.0 + 0.0j, 2.0) == pytest.approx(0.5, rel=1e-6)
    assert _g_of_xi(25.0 + 0.5j, 0.5) == pytest.approx(2.0, rel=1e-6)


def test_quartic_local_structure_at_critical_point():
    # near the degenerate saddle, (g - 1)^2 * (-(h - F)) -> 3/2 like s^2
    errors = []
    for s in (0.1, 0.05, 0.01):
        xi = 1j * math.pi + s * cmath.exp(-1j * math.pi / 4.0)
        tau = sg.h(xi, 1.0) - (HALF_PI_SQ - 1.0)
        w = (_g_of_xi(xi, 1.0) - 1.0) ** 2 * (-tau)
        errors.append(abs(w - 1.5))
        assert abs(w - 1.5) <= s * s
    assert errors[0] > errors[-1]


def test_sweep_table_values_and_csv():
    rhos = [0.5, 1.0, 2.0]
    taus = [1.0, 2.0, 5.0, 35.0, 50.0]
    table = dp.sweep_delta(rhos, taus)
    assert not table.failures
    assert len(table.rows) == len(rhos) * len(taus)
    for row in table.rows:
        assert row.delta == pytest.approx(dp.delta(row.tau, row.rho), abs=1e-9)
        assert row.bound_ratio == abs(row.delta) / min(row.tau / 35.0, 1.0)
        assert row.bound_ratio <= 1.0 + 1e-3
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "rho,tau,delta,bound_ratio"
    assert len(lines) == 1 + len(table.rows)
    assert csv.endswith("\n") and "\r" not in csv
    # 17 significant digits survive a round trip
    first = lines[1].split(",")
    assert float(first[2]) == table.rows[0].delta


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        dp.sweep_delta([], [1.0])
    with pytest.raises(DomainError):
        dp.sweep_delta([1.0], [])
    with pytest.raises(DomainError):
        dp.sweep_delta([2.0, 1.0], [1.0])  # unsorted
    with pytest.raises(DomainError):
        dp.sweep_delta([1.0], [1.0, 1.0])  # duplicate tau
    with pytest.raises(DomainError):
        dp.sweep_delta([-1.0, 1.0], [1.0])
    with pytest.raises(DomainError):
        dp.sweep_delta([1.0], [0.0, 1.0])


def test_kernel_failures_surface_as_path_errors(monkeypatch):
    def boom(*args, **kwargs):
        raise PathError("synthetic stall", last_good_tau=0.123)

    monkeypatch.setattr(dp._kernel, "trace", boom)
    with pytest.raises(PathError) as excinfo:
        dp.delta(1.0, 1.0)
    assert excinfo.value.last_good_tau == 0.123
    # the sweep records the failed cells instead of raising
    table = dp.sweep_delta([1.0], [1.0, 2.0])
    assert not table.rows
    assert len(table.failures) == 2
    assert all("synthetic stall" in msg for _, _, msg in table.failures)


def test_non_finite_delta_at_tiny_rho_is_refused():
    # at rho = 1e-300 (x1 = 698) the kernel's sinh(X + d) overflows once
    # Re xi passes asinh(DBL_MAX), and g comes back inf - inf j: delta
    # refuses the point, and the sweep lists the cell as failed
    ((_, _, g),) = dp._run_kernel(sg.saddle_data(1e-300), [3.16e8])
    assert g.real == math.inf and g.imag == -math.inf
    message = r"delta\(tau=316000000\.0, rho=1e-300\) is not finite"
    with pytest.raises(PathError, match=message) as excinfo:
        dp.delta(3.16e8, 1e-300)
    assert excinfo.value.last_good_tau == 3.16e8
    with pytest.raises(PathError, match="not finite"):
        dp.trace_path(1e-300, 3.2e8)
    table = dp.sweep_delta([1e-300], [1e8, 3.2e8])
    assert [(row.tau, row.delta, row.bound_ratio) for row in table.rows] == [
        (1e8, -0.9999831098332946, 0.9999831098332946)  # the bytes it had
    ]
    assert [(rho, tau) for rho, tau, _ in table.failures] == [(1e-300, 3.2e8)]
    assert "is not finite: g overflows" in table.failures[0][2]
    table = dp.sweep_delta([1e-300], [3.2e8])
    assert not table.rows and len(table.failures) == 1


@pytest.mark.parametrize("rho", [1e-6, 0.05, 0.5, 0.999, 1.001, 2.0, 10.0, 1e6])
def test_first_point_lies_on_its_modes_branch(rho):
    # h2 is real, negative in mode 0 and positive in mode 1, so the principal
    # root sqrt(2 tau/h2) is the documented branch without a sign flip
    rho_, sx, cx, h2, h3, mode = dp._expansion_data(sg.saddle_data(rho))
    assert h2.imag == 0.0 and (h2.real < 0.0) == (mode == 0) == (rho < 1.0)
    ((_, d, _), *_) = kernel.trace(rho_, sx, cx, h2, h3, mode, [1.0], True)
    assert d.imag < 0.0 if mode == 0 else d.real > 0.0


@pytest.mark.parametrize(
    "tau, rho",
    [(5e-324, rho) for rho in (1e-3, 0.05, 2.0, 4.0, 10.0, 1e3)] + [(1e-320, 0.5), (1e-315, 2.0)],
)
def test_subnormal_tau_is_refused(tau, rho):
    # a subnormal tau left the kernel too few bits: delta(5e-324, 2) read
    # 0.105, delta(1e-320, 0.5) 6.3e-5 and delta(1e-315, 2) -8.7e-10, and
    # delta(5e-324, rho) divided by zero at the other rho
    message = f"tau must be at least the least normal double {sys.float_info.min!r}, got {tau!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        dp.delta(tau, rho)
    with pytest.raises(DomainError, match="tau_max must be at least the least normal double"):
        dp.trace_path(rho, tau)
    with pytest.raises(DomainError, match="tau grid entry must be at least the least normal double"):
        dp.sweep_delta([rho], [tau, 1.0])


@pytest.mark.parametrize("rho", [1e-3, 0.5, 1.0, 2.0, 1e3])
def test_least_normal_tau_answers(rho):
    # delta tends to 0 with tau: at the least normal double it is rounding
    assert abs(dp.delta(sys.float_info.min, rho)) <= 1e-13


@pytest.mark.parametrize("tau, rho", [(1e-250, 1e100), (1e-200, 1e200)])
def test_underflowing_first_step_is_a_path_error(tau, rho):
    # sqrt(2 tau/h2) underflows to 0 with h2 about rho, and Newton divides
    # by zero; the kernel's ZeroDivisionError surfaces as a PathError
    with pytest.raises(PathError, match=r"divided by zero .* underflows") as excinfo:
        dp.delta(tau, rho)
    assert excinfo.value.last_good_tau == 0.0
    table = dp.sweep_delta([rho], [tau, 1.0])
    assert [(row.tau, row.delta) for row in table.rows] == [(1.0, dp.delta(1.0, rho))]
    assert [(r, t) for r, t, _ in table.failures] == [(rho, tau)]


@pytest.mark.parametrize("rho", [1e-305, 5e-306, 4.5e-306, 4.2e-306])
def test_slope_where_im_g_overflows_is_a_path_error(rho):
    # Im g, about g0/sqrt(tau) with g0 near 1.9e306, overflows at the slope's
    # tau = 1e-4 and 1e-3: refused as delta refuses it, where the gap was nan
    with pytest.raises(PathError, match=r"delta\(tau=0\.0001, rho=.*\) is not finite: g overflows"):
        dp.delta(1e-4, rho)
    for slope in (dp.delta_prime_at_zero, dp.delta_double_prime_at_zero):
        with pytest.raises(PathError, match=r"delta\(tau=0\.0001, rho=.*\) is not finite"):
            slope(rho)


# The kernel before each series remainder was shared within a Newton point,
# kept verbatim as the reference with its three remainder helpers: the
# kernel, which evaluates them inline, must give the same bits.
_MAX_NEWTON = kernel._MAX_NEWTON
_SINHM = id(kernel._SINHM_SKIP)
_COSHM1Q = id(kernel._COSHM1Q_SKIP)


def _sinhm(d):
    """sinh(d) - d, by the odd tail series for small |d|."""
    if abs(d) < 1.0:
        s = 0j
        term = d
        k = 1
        while True:
            term = term * d * d / ((2 * k) * (2 * k + 1))
            s += term
            if abs(term) < 1e-20 * (abs(s) + 1e-300):
                return s
            k += 1
    return cmath.sinh(d) - d


def _coshm1(d):
    """cosh(d) - 1 = 2*sinh(d/2)^2, exact-cancellation-free at any d."""
    hs = cmath.sinh(0.5 * d)
    return 2.0 * hs * hs


def _coshm1q(d):
    """cosh(d) - 1 - d^2/2, by the even tail series for small |d|."""
    if abs(d) < 2.0:
        s = 0j
        term = d * d / 2.0
        k = 1
        while True:
            term = term * d * d / ((2 * k + 1) * (2 * k + 2))
            s += term
            if abs(term) < 1e-20 * (abs(s) + 1e-300):
                return s
            k += 1
    return cmath.cosh(d) - 1.0 - 0.5 * d * d


def _trace_reference(rho, sx, cx, h2, h3, mode, targets, record_all=False):
    """Continue the path Dh(d) = tau through the given tau targets.

    Parameters
    ----------
    rho : float
        Similarity variable (exactly 1.0 in mode 2).
    sx, cx, h2, h3 : complex
        sinh/cosh at the saddle, 1 + rho*cx, and rho*sx.
    mode : int
        0: branch with Im d < 0 off a saddle at x1 + i*pi;
        1: branch with Re d > 0 off a saddle at i*y1;
        2: degenerate saddle, fourth-quadrant quartic branch.
    targets : sequence of float
        Strictly increasing positive tau values to report.
    record_all : bool
        Also report every accepted continuation step between targets.

    Returns
    -------
    list of (tau, d, g)
        tau float, d = xi - X complex, g = sinh(xi)/h'(xi) complex.

    Raises
    ------
    PathError
        last_good_tau = the last tau reached, when Newton fails to converge.
    """
    rho_cx = rho * cx
    rho_sx = rho * sx

    def dh(d):
        return 0.5 * h2 * d * d + rho_cx * _coshm1q(d) + rho_sx * _sinhm(d)

    def dhp(d):
        return h2 * d + rho_sx * _coshm1(d) + rho_cx * _sinhm(d)

    def g_at(d):
        return (sx + sx * _coshm1(d) + cx * cmath.sinh(d)) / dhp(d)

    if mode == 2:
        tau_init_cap = 1e-6
    else:
        # keep the seed inside the quadratic trust region |h3 d| << |h2|
        d_trust = min(0.05, 0.1 * abs(h2) / abs(h3)) if h3 != 0 else 0.05
        tau_init_cap = 0.5 * abs(h2) * d_trust * d_trust

    out = []
    d = 0j
    tau_cur = 0.0
    for tau_target in targets:
        while tau_cur < tau_target:
            if d == 0j:
                tau_try = min(tau_target, tau_init_cap)
                if mode == 2:
                    dn = (24.0 * tau_try / rho) ** 0.25 * _QUARTER_TURN
                else:
                    dn = cmath.sqrt(2.0 * tau_try / h2)
                    if mode == 0:
                        if dn.imag >= 0.0:
                            dn = -dn
                    elif dn.real <= 0.0:
                        dn = -dn
            else:
                hp = dhp(d)
                step = min(tau_target - tau_cur,
                           abs(hp) * min(_MAX_DXI, 0.5 * abs(d)))
                tau_try = tau_cur + step
                dn = d + step / hp
            converged = False
            for _ in range(_MAX_NEWTON):
                resid = dh(dn) - tau_try
                if abs(resid) <= _RTOL * tau_try:
                    converged = True
                    break
                dn = dn - resid / dhp(dn)
            if not converged:
                raise PathError(
                    f"path continuation stalled at tau={tau_try!r} (rho={rho!r})",
                    last_good_tau=tau_cur,
                )
            d = dn
            tau_cur = tau_try
            if record_all and tau_cur < tau_target:
                out.append((tau_cur, d, g_at(d)))
        out.append((tau_cur, d, g_at(d)))
    return out


# sweep-delta's 200-point grid to tau = 50; the rho set covers modes 0, 1, 2
TAU_GRID = [50.0 * (i + 1) / 200 for i in range(200)]
REFERENCE_RHOS = (0.05, 0.5, 1.0, 2.0, 10.0, 1.0 + 1e-6)


def _outcome(fn, args, targets, record_all):
    """fn's points, or the PathError it raised as (message, last_good_tau)."""
    try:
        return fn(*args, list(targets), record_all)
    except PathError as exc:
        return str(exc), exc.last_good_tau


def test_reference_rhos_cover_every_mode():
    modes = {dp._expansion_data(sg.saddle_data(rho))[5] for rho in REFERENCE_RHOS}
    assert modes == {0, 1, 2}


@pytest.mark.parametrize("record_all", [False, True])
@pytest.mark.parametrize("targets", [TAU_GRID, dp._RICHARDSON_TAUS], ids=["grid", "richardson"])
@pytest.mark.parametrize("rho", REFERENCE_RHOS)
def test_kernel_matches_reference_bit_for_bit(rho, targets, record_all):
    args = dp._expansion_data(sg.saddle_data(rho))
    got = kernel.trace(*args, list(targets), record_all)
    want = _trace_reference(*args, list(targets), record_all)
    assert len(got) >= len(targets)
    assert got == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rho=st.floats(min_value=1e-3, max_value=1e3),
    targets=st.lists(
        st.floats(min_value=1e-300, max_value=50.0), min_size=1, max_size=6, unique=True
    ).map(sorted),
    record_all=st.booleans(),
)
def test_kernel_matches_reference_on_random_paths(rho, targets, record_all):
    args = dp._expansion_data(sg.saddle_data(rho))
    got = _outcome(kernel.trace, args, targets, record_all)
    assert got == _outcome(_trace_reference, args, targets, record_all)


# (skip table, divisors, plans, power of d in the first term, |d| limit of
# the series) for sinh d - d and cosh d - 1 - d^2/2
SERIES = {
    "sinhm": (kernel._SINHM_SKIP, kernel._SINHM_DIV, kernel._SINHM_PLAN, 3, 1),
    "coshm1q": (kernel._COSHM1Q_SKIP, kernel._COSHM1Q_DIV, kernel._COSHM1Q_PLAN, 4, 2),
}


def _term_magnitudes(d, first, count):
    """Exact |t_k| = |d|^n/n! with n = 2k + first - 2, for k = 1..count."""
    return [d ** (2 * k + first - 2) / math.factorial(2 * k + first - 2) for k in range(1, count + 1)]


@pytest.mark.parametrize("name", SERIES)
def test_skipped_stop_tests_cannot_pass(name):
    # at half an entry's |d| bound (the table keeps that factor to spare),
    # every skipped term k is exactly at least twice its stop test's right
    # side 1e-20*(|s_k| + 1e-300), with |s_k| at most |t_1| + ... + |t_k|,
    # and at least 1e-290, so far above underflow that each is computed to a
    # few ulps; both margins only grow with |d|
    table, divisors, plans, first, limit = SERIES[name]
    stop, floor = Fraction(1e-20), Fraction(1e-300)
    assert list(table) == sorted(table) and table[-1] < limit
    for j, bound in enumerate(table, start=1):
        partial = Fraction(0)
        for t_k in _term_magnitudes(Fraction(bound) / 2, first, j):
            partial += t_k
            assert t_k >= 2 * stop * (partial + floor)
            assert t_k >= Fraction(1e-290)
    # below the first bound nothing is skipped, and each plan splits the
    # same divisors
    assert all(plans[j] == (divisors[:j], divisors[j:]) for j in range(len(table) + 1))


@pytest.mark.parametrize("name", SERIES)
def test_remainder_series_stop_within_their_divisors(name):
    # at the series' |d| limit the last divisor's term is below 1e-30 of
    # the first, while |s| stays above half the first term: the stop test
    # has passed before the divisors run out, at every smaller |d| too
    _, divisors, _, first, limit = SERIES[name]
    terms = _term_magnitudes(Fraction(limit), first, len(divisors))
    assert terms[-1] < Fraction(1, 10**30) * terms[0]
    assert sum(terms[1:]) < terms[0] / 2


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_kernel_stalls_like_reference(rho, monkeypatch):
    # four Newton iterations are too few a few steps out: both copies stall
    # at the same tau after the same last accepted point
    monkeypatch.setattr(kernel, "_MAX_NEWTON", 4)
    monkeypatch.setattr(sys.modules[__name__], "_MAX_NEWTON", 4)
    args = dp._expansion_data(sg.saddle_data(rho))
    got = _outcome(kernel.trace, args, TAU_GRID, False)
    assert isinstance(got[0], str) and got[1] > 0.0
    assert got == _outcome(_trace_reference, args, TAU_GRID, False)


def test_each_newton_iterate_evaluates_sinh_remainder_once(monkeypatch):
    # The reference's Dh takes cosh d - 1 - d^2/2 once per Newton iterate, so
    # its _coshm1q arguments are the iterates.  The kernel must evaluate each
    # remainder once per iterate: sinh d - d by the series (one skip-table
    # lookup) below |d| = 1 and from cmath.sinh(d) above, cosh d - 1 - d^2/2
    # by the series below |d| = 2 and from cmath.cosh(d) above; and g at an
    # accepted point must reuse that sinh(d) rather than take it again.
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args[-1])
            return fn(*args)

        return wrapper

    reference_coshm1q = _coshm1q
    monkeypatch.setattr(sys.modules[__name__], "_coshm1q", counted("iterate", reference_coshm1q))
    monkeypatch.setattr(kernel, "cmath", types.SimpleNamespace(
        sqrt=cmath.sqrt, sinh=counted("sinh", cmath.sinh), cosh=counted("cosh", cmath.cosh)
    ))
    monkeypatch.setattr(kernel, "bisect", lambda table, x: counted(id(table), bisect.bisect)(table, x))
    for rho in (0.5, 2.0):
        args = dp._expansion_data(sg.saddle_data(rho))
        calls.update({"iterate": [], "sinh": [], "cosh": [], _SINHM: [], _COSHM1Q: []})
        want = _trace_reference(*args, TAU_GRID, True)
        iterates = Counter(calls["iterate"])
        assert kernel.trace(*args, TAU_GRID, True) == want

        assert sum(n for d, n in iterates.items() if abs(d) >= 2.0) > len(TAU_GRID)
        assert Counter(calls["cosh"]) == Counter({d: n for d, n in iterates.items() if abs(d) >= 2.0})
        for table, bound in ((_COSHM1Q, 2.0), (_SINHM, 1.0)):
            assert Counter(calls[table]) == Counter(abs(d) for d in calls["iterate"] if abs(d) < bound)
        # above |d| = 1 the sinh remainder's sinh, once per iterate; below it
        # g's, once per accepted point
        taken = Counter(z for z in calls["sinh"] if z in iterates)
        assert all(taken[d] == n for d, n in iterates.items() if abs(d) >= 1.0)
        assert all(taken[d] <= 1 for d in iterates if abs(d) < 1.0)
