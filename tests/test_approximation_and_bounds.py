"""Leading-order approximation, measured correction, and the uniform bound."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hwtheta.approximation_and_bounds as ab
import hwtheta.reference_quadrature as rq
import hwtheta.saddle_geometry as sg
from hwtheta.errors import DomainError

# tabulated reference values, 50-digit independent quadrature rounded to double
EI_HALF_REF = {
    0.5: 2.0084408102719697,
    1.0: 0.5072822338117733,
    5.0: 0.0014716734298346054,
}
VARTHETA_MAX_REF = {
    0.1: 0.0014285714285714286,
    1.0: 0.014285714285714284,
    10.0: 0.1407370040940077,
    35.0: 0.3710958548148452,
    1e6: 0.9955496437003954,
}

C2 = 7.0 / 11000.0
C3 = 44081.0 / 1051050000.0


def test_ei_half_reference_values():
    for z, ref in EI_HALF_REF.items():
        assert ab.ei_half(z) == pytest.approx(ref, rel=1e-12)


def test_ei_half_large_argument_asymptote():
    # integral of exp(-z*u) sqrt(u) over [1, inf) behaves like exp(-z)/z;
    # z stays below ~700 so exp(z) is representable in a double
    for z in (50.0, 100.0, 500.0):
        scaled = z * math.exp(z) * ab.ei_half(z)
        assert abs(scaled - 1.0) <= 2.0 / z


def test_ei_half_rejects_nonpositive():
    for z in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            ab.ei_half(z)


def test_ei_half_overflow_is_refused_naming_z():
    # ei_half(z) is about sqrt(pi)/2 z^(-3/2), past the doubles for z below
    # about 3.1e-206
    for z in (1e-300, 3e-206, 5e-324):
        with pytest.raises(DomainError, match=re.escape(f"ei_half(z={z!r}) is about")):
            ab.ei_half(z)
    assert ab.ei_half(1e-205) == pytest.approx(0.5 * math.sqrt(math.pi) * 1e-205**-1.5, rel=1e-12)


def test_vartheta_max_where_35_over_t_overflows_is_refused_naming_t():
    for t in (5e-324, 1e-320, 1.9e-307):
        with pytest.raises(DomainError, match=re.escape(f"vartheta_max(t={t!r})")):
            ab.vartheta_max(t)


def test_ei_half_underflow_is_refused_naming_z():
    # e^-z takes the value below the normal doubles from z about 701.85 and
    # to 0.0 from about 738.53
    for z in (701.9, 738.5, 745.0):
        with pytest.raises(DomainError, match=re.escape(f"ei_half(z={z!r}) is ")):
            ab.ei_half(z)
    assert ab.ei_half(701.8) == pytest.approx(2.323958247145825e-308, rel=1e-12)


def test_vartheta_max_is_t_over_70_where_the_rest_is_below_its_last_bit():
    # the full formula is t/70 to the bit from z = 35/t = 40 on, so from
    # z = 700 on, where ei_half underflows, t/70 is returned without it
    for i in range(20001):
        t = 35.0 / (40.0 + 0.05 * i)
        assert ab.vartheta_max(t) == t / 70.0, t
    assert ab.vartheta_max(1e-300) == 1e-300 / 70.0
    # below t = 1.56e-306, t/70 is below the normal doubles
    with pytest.raises(DomainError, match=re.escape("vartheta_max(t=2e-307) = t/70 is ")):
        ab.vartheta_max(2e-307)


def test_vartheta_max_reference_values():
    for t, ref in VARTHETA_MAX_REF.items():
        assert ab.vartheta_max(t) == pytest.approx(ref, rel=1e-14), t


def test_vartheta_max_limits_and_bounds():
    assert 1.0 - 1e-4 < ab.vartheta_max(1e12) < 1.0
    assert 0.2 < ab.vartheta_max(35.0) < 1.0
    n = 120
    lo, hi = math.log(0.01), math.log(1e4)
    for i in range(n + 1):
        t = math.exp(lo + (hi - lo) * i / n)
        v = ab.vartheta_max(t)
        assert 0.0 < v <= min(t / 70.0, 1.0) + 1e-12, t


def test_vartheta_max_ratio_saturates_for_small_t():
    for t in (0.1, 1.0, 5.0, 8.0):
        ratio = ab.vartheta_max(t) / (t / 70.0)
        assert 0.99 <= ratio <= 1.0 + 1e-15, t


def test_vartheta_max_rejects_nonpositive():
    for t in (0.0, -2.0, math.nan):
        with pytest.raises(DomainError):
            ab.vartheta_max(t)


def test_theta_leading_critical_closed_form():
    for t in (0.1, 0.5, 1.0):
        ref = math.sqrt(3.0) / (2.0 * math.pi * t) * math.exp(1.0 / t)
        assert ab.theta_leading(1.0, t) == pytest.approx(ref, rel=1e-14)


def test_measured_correction_matches_critical_series_tail():
    # vartheta(t, 1) = -t/70 + c2*t^2 - c3*t^3 + ...; the first two terms
    # must explain the measurement up to twice the third term
    for t in (0.1, 0.2, 0.3, 0.5):
        v = ab.measure_vartheta(1.0, t)
        assert v < 0.0
        assert abs(v + t / 70.0 - C2 * t * t) <= 2.0 * C3 * t**3, (t, v)


def test_measure_vartheta_solves_the_saddle_once(monkeypatch):
    calls = []
    solve = sg.saddle_data

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sg, "saddle_data", counting)
    for rho in (0.5, 1.0, 2.0):
        calls.clear()
        ab.measure_vartheta(rho, 0.5)
        assert len(calls) == 1, (rho, calls)


DEFAULT_RHO = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)
DEFAULT_T = (0.05, 0.1, 0.2)


def _cancel(rho, t):
    """The bits the theta integral cancels, max(pi^2/2, F - rho)/t in nats:
    the panels peak near e^(-rho/t) and sum to about e^(-F/t), and the
    pi^2/(2t) prefactor is the floor."""
    sd = sg.saddle_data(rho)
    return max(ab._HALF_PI_SQ, sd.F - rho) / t * math.log2(math.e)


def _vartheta_at_doubled_bits(rho, t):
    """vartheta from the oracle at 2*(ceil(cancel) + 32) bits, where even a
    check at half the bits stays above the cancellation."""
    bits = 2 * (math.ceil(_cancel(rho, t)) + 32)
    return rq.theta_direct(rho / t, t, bits).theta / ab.theta_leading(rho, t) - 1.0


def test_measure_vartheta_hands_the_oracle_cancel_plus_64_bits(monkeypatch):
    seen = []

    def record(r, t, bits, estimate):
        seen.append((r, t, bits, estimate))
        return 1.0

    monkeypatch.setattr(rq, "_theta_fixed", record)
    for rho in DEFAULT_RHO:
        for t in DEFAULT_T:
            seen.clear()
            ab.measure_vartheta(rho, t)
            # the accumulator is sized by the leading term
            bits = math.ceil(_cancel(rho, t)) + 64
            assert seen == [(rho / t, t, bits, ab.theta_leading(rho, t))], (rho, t)
            # theta_direct's default: one rule sizes both
            assert bits == rq._cancellation_bits(sg.saddle_data(rho), t), (rho, t)
    # the panels peak at e^(-rho/t), not at 1: rho/t = 5 nats fewer than F/t
    assert math.ceil(_cancel(0.25, 0.05)) + 64 == 259


def test_measure_vartheta_equals_the_doubled_bits_on_the_default_grid():
    # verify-bound's default grid: the same doubles, so the same CSV bytes
    for rho in DEFAULT_RHO:
        for t in DEFAULT_T:
            assert ab.measure_vartheta(rho, t) == _vartheta_at_doubled_bits(rho, t), (rho, t)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(rho=st.floats(min_value=0.25, max_value=4.0), t=st.floats(min_value=0.05, max_value=0.5))
def test_measure_vartheta_agrees_with_the_doubled_bits(rho, t):
    # off the default grid the two sizings may round theta differently: the
    # panel loop stops on a tail below 2^-(bits/2) of the partial sum, which
    # at cancel + 64 bits can leave a few 1e-15 of theta near t = 0.5 (up to
    # 3.2e-15 on 40 random cells; the doubled run is good to 1e-22 there)
    new = ab.measure_vartheta(rho, t)
    old = _vartheta_at_doubled_bits(rho, t)
    assert abs(new - old) <= 1e-14 * (1.0 + old), (rho, t, new, old)


def test_measured_correction_respects_uniform_bound():
    for rho in (0.25, 1.0, 4.0):
        for t in (0.05, 0.2, 0.5):
            v = ab.measure_vartheta(rho, t)
            assert abs(v) <= t / 70.0 + 1e-12, (rho, t, v)


def test_leading_order_agrees_with_direct_evaluation():
    for rho in (0.5, 1.0, 2.0):
        for t in (0.25, 0.5):
            direct = rq.theta_direct(rho / t, t).theta
            lead = ab.theta_leading(rho, t)
            assert abs(direct / lead - 1.0) <= 2.0 * t / 70.0, (rho, t)


def test_correction_integral_chain():
    # |vartheta| is controlled by the weighted path integral of |delta|:
    # integral of exp(-tau/t) g0 |delta| / sqrt(tau) dtau <= (t/70) g0 sqrt(pi t).
    # The true margin is only ~9% of t, so integrate carefully: substitute
    # tau = u^2 (the integrand becomes smooth at 0) and apply Simpson's rule
    import hwtheta.descent_path as dp
    import hwtheta.saddle_geometry as sg

    g0 = sg.saddle_data(1.0).g0
    for t in (0.1, 0.5):
        n = 800
        umax = math.sqrt(40.0 * t)
        h = umax / n
        taus = [(h * j) ** 2 for j in range(1, n + 1)]
        table = dp.sweep_delta([1.0], taus)
        assert not table.failures
        f = [0.0] + [
            math.exp(-row.tau / t) * abs(row.delta) for row in table.rows
        ]
        simpson = f[0] + f[n] + 4.0 * sum(f[1:n:2]) + 2.0 * sum(f[2 : n - 1 : 2])
        integral = 2.0 * g0 * (h / 3.0) * simpson
        cap = (t / 70.0) * g0 * math.sqrt(math.pi * t)
        assert integral <= cap * (1.0 + 1e-6), (t, integral, cap)
        # the cap is tight at small t: the integral must reach most of it
        assert integral >= 0.8 * cap, (t, integral, cap)


def test_theta_approx_bound_invariant_across_scales():
    # the strong bound never exceeds the simple one, nor 1
    for t in (0.01, 0.5, 10.0, 1e3):
        strong = ab.vartheta_max(t)
        assert 0.0 < strong <= min(t / 70.0 + 1e-15, 1.0 + 1e-15)


def test_check_bound_small_grid():
    report = ab.check_bound([0.5, 1.0], [0.1, 0.2])
    assert not report.failures
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.pass_simple and row.pass_strong
        assert abs(row.vartheta) <= row.bound_strong + 1e-6
        assert row.bound_simple == row.t / 70.0
        # the adjusted flag allows for the known quadratic term on top of t/70
        assert row.pass_adjusted == (abs(row.vartheta) <= row.bound_simple + C2 * row.t**2)
        assert row.pass_adjusted or not row.pass_simple
    assert report.all_pass_strong
    assert 0.0 < report.max_ratio_simple <= 1.0
    csv = report.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "rho,t,vartheta,bound_simple,bound_strong,pass_simple,pass_adjusted,pass_strong"
    assert len(lines) == 5
    assert "true" in lines[1] and "True" not in csv
    assert csv.endswith("\n") and "\r" not in csv


def test_check_bound_past_rho_10_passes_all_three_flags():
    # an accumulator too coarse for these panels once summed them to a
    # negative theta here, vartheta -5.98 and every flag false (ROADMAP
    # Found 11); the mpf loop's vartheta is -1.3676e-4
    report = ab.check_bound([12.0], [0.02])
    (row,) = report.rows
    assert not report.failures
    assert row.pass_simple and row.pass_adjusted and row.pass_strong
    assert row.vartheta == pytest.approx(-1.3676e-4, rel=1e-4)


def test_check_bound_records_precision_failures(monkeypatch):
    monkeypatch.setenv("HW_MAX_BITS", "150")
    report = ab.check_bound([1.0], [0.05, 0.2])
    # the t = 0.2 cell fits under the ceiling, the t = 0.05 cell cannot
    assert len(report.rows) == 1
    assert report.rows[0].t == 0.2
    assert len(report.failures) == 1
    assert report.failures[0][1] == 0.05
    assert not report.all_pass_strong


@pytest.mark.parametrize(
    "rho, t, lead",
    [(0.01, 0.025, 0.0), (1.0, 1e-3, math.inf)],
    ids=["underflow", "overflow"],
)
def test_check_bound_refuses_leading_term_outside_double_range(monkeypatch, rho, t, lead):
    def oracle_must_not_run(*args, **kwargs):
        raise AssertionError("theta_direct called for an unusable leading term")

    monkeypatch.setattr(rq, "theta_direct", oracle_must_not_run)
    with pytest.raises(DomainError, match=re.escape(f"is {lead!r}, outside the range of a double")):
        ab.theta_leading(rho, t)
    with pytest.raises(DomainError):
        ab.measure_vartheta(rho, t)
    report = ab.check_bound([rho], [t])
    assert report.rows == ()
    assert len(report.failures) == 1
    assert report.failures[0][:2] == (rho, t)
    with pytest.raises(DomainError, match="no cell was measured"):
        report.max_ratio_simple


def test_check_bound_records_a_cell_with_panels_past_the_double_range():
    # refused before any quadrature, where mpmath used to hang on the
    # envelope of a panel edge far past asinh(DBL_MAX)
    report = ab.check_bound([1.0], [1e4])
    assert report.rows == ()
    ((rho, t, message),) = report.failures
    assert (rho, t) == (1.0, 1e4)
    assert message.endswith("where cosh(xi) leaves the double range")


def test_check_bound_grid_validation():
    with pytest.raises(DomainError):
        ab.check_bound([], [0.1])
    with pytest.raises(DomainError):
        ab.check_bound([1.0], [])
    with pytest.raises(DomainError):
        ab.check_bound([-1.0], [0.1])
    with pytest.raises(DomainError):
        ab.check_bound([1.0], [0.0])
