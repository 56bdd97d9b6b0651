"""Extended-precision direct evaluation of theta(r, t)."""

import inspect
import math
import os
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_float,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_exp,
    mpf_le,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
)
from mpmath.libmp.libelefun import exp_basecase, ln2_fixed

import hwtheta.approximation_and_bounds as ab
import hwtheta.reference_quadrature as rq
import hwtheta.saddle_geometry as sg
from hwtheta.errors import DomainError, PrecisionOverflowError
from hwtheta.reference_quadrature import _EXP_BUILD_GUARD, _RND, Method, _fixed

# tabulated reference values, 50-digit independent quadrature rounded to double
THETA_REF = [
    (10.0, 0.1, 60632.777528586616),
    (4.0, 0.25, 59.99042023377685),
    (2.0, 0.5, 4.045329090148301),
    (2.5, 0.2, 0.7865756755213369),
    (8.0, 0.25, 96.67701245077069),
    (1.0, 0.5, 0.4717399439133017),
]


# perfbench/reference.py's theta_path at ROADMAP item 4's cells: the leading
# term times 1 + vartheta from the path representation, traced in mpmath at
# 30-60 digits by code that shares nothing with the package.  The first two
# cancel far more than pi^2/(2t); at the third (r = 200) the envelope starts
# at e^-200, below any truncation budget not counted from that floor.
THETA_PATH_REF = [
    (0.05, 0.1, 265, 2.0964323407950405e-39),
    (0.01, 0.2, 239, 3.756607019709245e-42),
    (10.0, 0.05, 207, 3.376942208436934e-48),
]


def _serial(r, t, bits):
    """The serial run at (r, t, bits) over its own panel count."""
    return rq._integrate_panels(r, t, bits, rq._panel_count(r, t, bits))


def test_required_bits_reference_points():
    assert rq._required_bits(0.1) == 136
    assert rq._required_bits(math.pi * math.pi / 2.0) == 66


def test_required_bits_grows_like_one_over_t():
    ts = [1.6, 0.8, 0.4, 0.2, 0.1, 0.05]
    bits = [rq._required_bits(t) for t in ts]
    assert all(a < b for a, b in zip(bits, bits[1:]))
    # halving t roughly doubles the exponent budget above the fixed floor
    for t, b in zip(ts, bits):
        predicted = math.ceil(math.pi * math.pi / (2.0 * t) * math.log2(math.e)) + 64
        assert b == predicted


def test_required_bits_beyond_the_double_range_is_refused(monkeypatch):
    # pi^2/(2t) log2 e overflows a double below t = 3.96e-308
    monkeypatch.delenv("HW_MAX_BITS", raising=False)
    assert rq._required_bits(4e-308) > 1.7e308
    for t in (3.9e-308, 1e-320, 5e-324):
        with pytest.raises(PrecisionOverflowError) as excinfo:
            rq._required_bits(t)
        assert excinfo.value.required_bits > 2**1024
        assert excinfo.value.ceiling_bits == rq.DEFAULT_BITS_CEILING
        with pytest.raises(PrecisionOverflowError):
            rq.theta_direct(1e20, t)


def test_theta_direct_matches_reference_values():
    for r, t, ref in THETA_REF:
        res = rq.theta_direct(r, t)
        assert res.method is Method.DIRECT
        assert res.precision_used_bits >= rq._required_bits(t)
        assert res.theta == pytest.approx(ref, rel=1e-14), (r, t, res.theta, ref)
        assert res.theta > 0.0


@pytest.mark.parametrize("rho, t, bits, ref", THETA_PATH_REF)
def test_default_bits_resolve_the_saddle_cancellation(rho, t, bits, ref):
    # (F - rho)/t nats cancel: 265 bits at (0.05, 0.1) where pi^2/(2t) asks 136
    result = rq.theta_direct(rho / t, t)
    assert result.precision_used_bits == bits
    assert result.theta == pytest.approx(ref, rel=1e-13), (rho, t, result)


def test_self_convergence_under_precision_doubling():
    base = rq.theta_direct(2.0, 0.5)
    doubled = rq.theta_direct(2.0, 0.5, 2 * base.precision_used_bits)
    rel = abs(base.theta / doubled.theta - 1.0)
    assert rel < 1e-12
    assert base.error_estimate < 1e-12
    assert rel <= 10.0 * max(base.error_estimate, 1e-16)


def test_panel_count_doubling_is_within_error_estimate(monkeypatch):
    for r, t in ((2.0, 0.5), (10.0, 0.1)):
        base = rq.theta_direct(r, t)
        with monkeypatch.context() as m:
            m.setattr(rq, "_PANEL_POINTS", 48)
            fine = rq.theta_direct(r, t)
        rel = abs(base.theta / fine.theta - 1.0)
        assert rel <= max(10.0 * base.error_estimate, 1e-14), (r, t, rel)


def test_truncation_point_is_conservative(monkeypatch, tmp_path):
    # at small r the envelope decays slowly and the panel loop runs to the
    # computed cap (at (2, 0.5) it stops on the tail threshold, 7 panels of
    # 10); with the cap doubled it sums more panels, which must not move theta
    log = tmp_path / "cap_calls"
    cap = rq._truncation_cap

    def doubled_cap(r, t, bits):
        # appended from every process that runs the patched cap
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {bits}\n")
        return 2.0 * cap(r, t, bits)

    sized = []
    for r, t in ((0.01, 1.0), (0.005, 2.0), (0.002, 5.0)):
        base = rq.theta_direct(r, t)
        bits = base.precision_used_bits
        sized.append(bits)
        _, panels = _serial(r, t, bits)
        with monkeypatch.context() as m:
            m.setattr(rq, "_truncation_cap", doubled_cap)
            _, wide_panels = _serial(r, t, bits)
            log.write_text("")
            wide = rq.theta_direct(r, t)
        assert len(wide_panels) > len(panels), (r, t)
        rel = abs(wide.theta / base.theta - 1.0)
        assert rel <= max(10.0 * base.error_estimate, 1e-14), (r, t, rel)
        # the self-check saw the patch too, in the forked child
        calls = {tuple(map(int, line.split())) for line in log.read_text().splitlines()}
        (check_pid,) = {pid for pid, b in calls if b == max(64, bits - 32)}
        assert (os.getpid(), bits) in calls, (r, t)
        assert check_pid != os.getpid(), (r, t)
    assert sized == [99, 82, 71]


def test_panel_contributions_alternate_past_the_peak():
    _, panels = _serial(2.0, 0.5, 79)
    # oscillation from sin(pi*xi/t) makes consecutive panels alternate in
    # sign once past the integrand peak; ignore dust below cutoff
    live = [p for p in panels[3:] if abs(p) > 1e-30]
    assert len(live) >= 2
    for a, b in zip(live, live[1:]):
        assert (a > 0) != (b > 0)


def test_precision_ceiling_env_var(monkeypatch):
    monkeypatch.setenv("HW_MAX_BITS", "100")
    with pytest.raises(PrecisionOverflowError) as excinfo:
        rq.theta_direct(1.0, 0.1)
    # rho = 0.1: (F - rho)/t, not pi^2/(2t) (136 bits), sizes the run
    assert excinfo.value.required_bits == 215
    assert excinfo.value.ceiling_bits == 100
    monkeypatch.setenv("HW_MAX_BITS", "200")
    res = rq.theta_direct(10.0, 0.1)
    assert res.theta == pytest.approx(60632.777528586616, rel=1e-12)
    for bad in ("abc", "32"):
        monkeypatch.setenv("HW_MAX_BITS", bad)
        with pytest.raises(DomainError):
            rq.theta_direct(1.0, 0.5)


def test_explicit_working_bits_is_respected():
    res = rq.theta_direct(2.0, 0.5, 256)
    assert res.precision_used_bits == 256
    # bits is an integer, never converted from a float
    with pytest.raises(DomainError) as excinfo:
        rq.theta_direct(2.0, 0.5, 256.0)
    assert str(excinfo.value) == "bits must be an integer >= 64, got 256.0"


def test_bits_validation():
    for bad in (32, 63, 0, -64, 100.5, math.nan, math.inf, -math.inf, "100"):
        with pytest.raises(DomainError):
            rq.theta_direct(2.0, 0.5, bad)
    assert rq.theta_direct(2.0, 0.5, 64).precision_used_bits == 64


def test_panel_count_above_the_cap_is_refused_before_any_work(monkeypatch, forks):
    # the truncation cap at (1e20, 1e-320, 100 bits) is 1.48e-159: 1.48e161 panels
    def must_not_run(*args):
        raise AssertionError("quadrature started for a refused panel count")

    monkeypatch.setattr(rq, "_integrate_panels", must_not_run)
    monkeypatch.setattr(rq, "_gl_nodes", must_not_run)
    with pytest.raises(DomainError, match="about 1.48e\\+161 quadrature panels, above the cap of 1000000"):
        rq.theta_direct(1e20, 1e-320, 100)
    assert forks == []


def test_default_bits_stay_far_below_the_panel_cap():
    # r in [1e-3, 1e3], t in [1.7e-3, 100] on log grids: at most 1,876 panels
    # at the prefactor floor _required_bits(t), and 1,104 at the rule's bits
    # on the 528 cells within the default ceiling
    floor = rule = 0
    for i in range(25):
        r = 10.0 ** (-3.0 + 6.0 * i / 24)
        for j in range(25):
            t = 1.7e-3 * (100.0 / 1.7e-3) ** (j / 24)
            floor = max(floor, rq._panel_count(r, t, rq._required_bits(t)))
            bits = rq._cancellation_bits(sg.saddle_data(r * t), t)
            if bits <= rq.DEFAULT_BITS_CEILING:
                rule = max(rule, rq._panel_count(r, t, bits))
    assert 1000 < rule <= floor < rq._MAX_PANELS / 100


def _truncation_cap_from_one(r, t, bits):
    """_truncation_cap as it was bracketed from hi >= 1 alone, kept verbatim
    as the reference: 200 bisections from there reach no cap below about
    1e-60."""
    budget = bits * math.log(2.0) + 40.0
    # r*(cosh(hi) - 1) alone already exceeds the budget at this hi
    hi = max(1.0, math.log(2.0 * (budget + r + 1.0) / r) + 1.0)
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * r * math.sinh(0.5 * mid) ** 2 + mid * mid / (2.0 * t) < budget:
            lo = mid
        else:
            hi = mid
    return hi


def _over_budget(r, t, bits, xi):
    return 2.0 * r * math.sinh(0.5 * xi) ** 2 + xi * xi / (2.0 * t) >= bits * math.log(2.0) + 40.0


def test_truncation_cap_reaches_the_root_at_tiny_t():
    # xi^2/(2t) alone meets the budget near sqrt(2 t budget) = 1.48e-159;
    # bracketed from 1, the cap stopped at 1.05e-60
    cap = rq._truncation_cap(1e20, 1e-320, 100)
    assert cap == 1.478603278928475e-159
    assert _over_budget(1e20, 1e-320, 100, cap)
    assert not _over_budget(1e20, 1e-320, 100, math.nextafter(cap, 0.0))
    assert _truncation_cap_from_one(1e20, 1e-320, 100) == 1.0536480772292057e-60


def test_truncation_cap_is_unchanged_where_the_bracket_from_one_reached_the_root():
    # the Gaussian bound sqrt(2 t budget) is the tighter bracket on a fifth
    # of these cells; the bisection still ends on the same double
    rng = random.Random(20)
    for _ in range(5000):
        r = 10.0 ** rng.uniform(-3.0, 4.0)
        t = 10.0 ** rng.uniform(-3.0, math.log10(400.0))
        bits = rng.randint(64, 4096)
        assert rq._truncation_cap(r, t, bits) == _truncation_cap_from_one(r, t, bits), (r, t, bits)


def _truncation_cap_200(r, t, bits):
    """_truncation_cap as it bisected a fixed 200 times, kept verbatim as the
    reference."""
    budget = bits * math.log(2.0) + 40.0
    # r*(cosh(hi) - 1) alone already exceeds the budget at the first hi, and
    # hi^2/(2t) alone reaches it at the second
    hi = min(
        max(1.0, math.log(2.0 * (budget + r + 1.0) / r) + 1.0),
        math.sqrt(2.0 * budget * t),
    )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * r * math.sinh(0.5 * mid) ** 2 + mid * mid / (2.0 * t) < budget:
            lo = mid
        else:
            hi = mid
    return hi


def test_truncation_cap_stops_bisecting_where_200_bisections_end():
    # the bisection stops once the bracket holds two adjacent doubles, where
    # no further step moves hi; 200 fixed steps reach that on every cell here
    rng = random.Random(28)
    cells = [(1e20, 1e-320, 100), (2.0, 0.5, 79), (1e-3, 400.0, 4096), (1e4, 1e-3, 64)]
    for _ in range(5000):
        r = 10.0 ** rng.uniform(-6.0, 8.0)
        t = 10.0 ** rng.uniform(-4.0, math.log10(700.0))
        cells.append((r, t, rng.randint(64, 4096)))
    for r, t, bits in cells:
        assert rq._truncation_cap(r, t, bits) == _truncation_cap_200(r, t, bits), (r, t, bits)


# The mpf-level loops that _gl_nodes and _integrate_panels replaced, kept
# verbatim as the reference: the libmp panel loop must give the same bits.
_gl_cache_mpf: dict = {}


def _gl_nodes_mpf(n: int, prec: int):
    """Gauss-Legendre nodes and weights on [-1, 1] at `prec` bits, cached.

    Newton iteration on the Legendre three-term recurrence from Chebyshev
    initial guesses; standard and stable for the modest n used here.
    """
    key = (n, prec)
    cached = _gl_cache_mpf.get(key)
    if cached is not None:
        return cached
    with mp.workprec(prec + 30):
        xs, ws = [], []
        for i in range(n):
            x = mp.mpf(math.cos(math.pi * (i + 0.75) / (n + 0.5)))
            for _ in range(100):
                p0, p1 = mp.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mp.mpf(2) ** (-prec - 10):
                    break
            p0, p1 = mp.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
    _gl_cache_mpf[key] = (xs, ws)
    return xs, ws


def _integrate_panels_mpf(r: float, t: float, bits: int, panel_points: int):
    """Panel-by-panel quadrature; returns (theta as mpf, signed panel list).

    Exposed separately so tests can inspect the alternation of consecutive
    half-period contributions.
    """
    with mp.workprec(bits):
        rr = mp.mpf(r)
        tt = mp.mpf(t)
        xs, ws = _gl_nodes_mpf(panel_points, bits)
        cap = rq._truncation_cap(r, t, bits)
        kmax = int(math.ceil(cap / t)) + 1
        # envelope maximum: cap of the Gaussian-free stationary points
        peak = max(1.0 / math.sqrt(r), math.asinh(1.0 / r))
        thresh_scale = mp.mpf(2) ** (-(bits // 2)) * mp.mpf(rq._TAIL_TOLERANCE)
        total = mp.mpf(0)
        panels = []
        half = tt / 2
        k = 0
        while k < kmax:
            a = k * tt
            mid = a + half
            sign = -1 if (k % 2) else 1
            acc = mp.mpf(0)
            for x, w in zip(xs, ws):
                xi = mid + half * x
                osc = mp.sin(mp.pi * (xi - a) / tt)  # local phase, exact zeros
                acc += w * mp.e ** (-xi * xi / (2 * tt) - rr * mp.cosh(xi)) * mp.sinh(xi) * osc
            contribution = sign * half * acc
            panels.append(contribution)
            total += contribution
            k += 1
            edge = k * tt
            if float(edge) > peak + float(tt):
                envelope = mp.e ** (-edge * edge / (2 * tt) - rr * mp.cosh(edge)) * mp.sinh(edge)
                if envelope < thresh_scale * abs(total):
                    break
        prefactor = rr / mp.sqrt(2 * mp.pi**3 * tt) * mp.e ** (mp.pi**2 / (2 * tt))
        return prefactor * total, panels


DEFAULT_RHO = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)


def _assert_same_panels(r, t, bits):
    value, panels = _serial(r, t, bits)
    ref_value, ref_panels = _integrate_panels_mpf(r, t, bits, rq._PANEL_POINTS)
    assert isinstance(value, mp.mpf)
    assert all(isinstance(p, mp.mpf) for p in panels)
    assert value._mpf_ == ref_value._mpf_, (r, t, bits)
    assert [p._mpf_ for p in panels] == [p._mpf_ for p in ref_panels], (r, t, bits)


def _oracle_args(rho, t, monkeypatch):
    """(r, t, bits, estimate) that measure_vartheta hands to the oracle's
    fixed-point run."""
    seen = []

    def record(r, t, bits, estimate):
        seen.append((r, t, bits, estimate))
        return 1.0

    with monkeypatch.context() as m:
        m.setattr(rq, "_theta_fixed", record)
        ab.measure_vartheta(rho, t)
    (args,) = seen
    return args


def test_panels_match_mpf_loop_on_default_rho_at_measured_bits(monkeypatch):
    for rho in DEFAULT_RHO:
        r, t, bits, _ = _oracle_args(rho, 0.1, monkeypatch)
        _assert_same_panels(r, t, bits)


def test_panels_match_mpf_loop_on_readme_cells_and_config_variants(monkeypatch):
    for r in (2.0, 1.0):
        _assert_same_panels(r, 0.5, 79)
    for n in (8, 9, 25, 48):
        with monkeypatch.context() as m:
            m.setattr(rq, "_PANEL_POINTS", n)
            _assert_same_panels(2.0, 0.5, 79)
            _assert_same_panels(10.0, 0.1, 136)
    # a cap below the computed one (both loops read rq._truncation_cap)
    cap = rq._truncation_cap
    with monkeypatch.context() as m:
        m.setattr(rq, "_truncation_cap", lambda *args: min(cap(*args), 2.0))
        _assert_same_panels(2.0, 0.5, 79)
        _assert_same_panels(10.0, 0.1, 136)


def test_tail_test_where_the_envelopes_log_leaves_the_doubles():
    # at the last edge, 710, the envelope is about e^(-100 cosh 710): its
    # binary exponent lies beyond the doubles; the mpf loop stops where its
    # exact test stops.  The fixed-point run compares G - r C in integers,
    # about -1e156 nats at the first edge, and stops there
    r, t, bits = 100.0, 355.0, 64
    _assert_same_panels(r, t, bits)
    assert len(_serial(r, t, bits)[1]) == 2
    assert len(_fixed_serial(r, t, bits, 1.0)[1][1]) == 1


def _default_bits(r, t):
    """theta_direct's bits at (r, t) when it sizes its own."""
    return rq._cancellation_bits(sg.saddle_data(r * t), t)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    r=st.floats(min_value=0.1, max_value=200.0),
    t=st.floats(min_value=0.1, max_value=1.0),
    bits=st.integers(min_value=64, max_value=300),
)
# point-eval's lowest t, at rho = 0.05, 1 and 10, at theta_direct's own bits
@example(r=1.0, t=0.05, bits=_default_bits(1.0, 0.05))
@example(r=20.0, t=0.05, bits=_default_bits(20.0, 0.05))
@example(r=200.0, t=0.05, bits=_default_bits(200.0, 0.05))
def test_panels_match_mpf_loop_on_random_cells(r, t, bits):
    _assert_same_panels(r, t, bits)


@pytest.fixture
def cold_tables(monkeypatch):
    """No node table, for one test: every run's first sight of its key
    computes every node value.  The process's own come back after it."""
    monkeypatch.setattr(rq, "_node_tables", OrderedDict())


@pytest.mark.parametrize(
    "r, t, bits, nodes_summed, sines",
    [(4.0, 0.5, 79, 144, 57), (5.0, 0.05, 266, 1776, 90)],
)
def test_one_sine_per_distinct_phase_offset(monkeypatch, cold_tables, r, t, bits, nodes_summed, sines):
    # the phase depends on the panel only through the rounding of xi - k*t,
    # so a run takes one sine per distinct offset, not one per node
    calls = []
    sin = rq.mpf_sin

    def counted(*args):
        calls.append(args)
        return sin(*args)

    monkeypatch.setattr(rq, "mpf_sin", counted)
    _, panels = _serial(r, t, bits)
    with mp.workprec(bits):
        tt = mp.mpf(t)
        half = tt / 2
        xs = [mp.make_mpf(x) for x, _ in rq._gl_nodes(rq._PANEL_POINTS, bits)]
        offsets = {k * tt + half + half * x - k * tt for k in range(len(panels)) for x in xs}
    assert len(panels) * len(xs) == nodes_summed
    # two offsets can still round to one argument pi*off/t (88 distinct
    # arguments at t = 0.05), so the count is of offsets, not of arguments
    assert len(calls) == len(offsets) == sines


@pytest.fixture
def cold_nodes(monkeypatch, cold_tables):
    """No held Gauss-Legendre solve and no node table for one test; the
    process's own come back after it.  A node table is built from
    _gl_nodes(n, bits), so it goes with the solves."""
    monkeypatch.setattr(rq, "_gl_held", {})


def test_panels_match_mpf_loop_with_bits_falling_then_rising(cold_nodes, monkeypatch):
    # each order is solved once at the highest bits yet and rounded or
    # refined for the others; the panels must not see which came first
    for n in (24, 9, 25):
        monkeypatch.setattr(rq, "_PANEL_POINTS", n)
        for bits in (257, 136, 79, 64, 100, 200, 320):
            _assert_same_panels(2.0, 0.5, bits)


def test_gl_nodes_match_mpf_loop(cold_nodes):
    # one solve per n, rounded to each prec, differs from the per-(n, prec)
    # Newton of the mpf loop in the last guard bits, so the check is
    # symmetry and accuracy against the mpf loop at 100 more bits
    precs = (64, 79, 136, 257, 512, 1000)
    for order in (precs, precs[::-1]):
        rq._gl_held.clear()
        for n in (8, 9, 24, 25, 48):
            for prec in order:
                nodes = rq._gl_nodes(n, prec)
                ref_xs, ref_ws = _gl_nodes_mpf(n, prec + 100)
                assert len(nodes) == n
                xs = [x for x, _ in nodes]
                ws = [w for _, w in nodes]
                for i in range(n):
                    assert xs[n - 1 - i] == mpf_neg(xs[i]), (n, prec, i)
                    assert ws[n - 1 - i] == ws[i], (n, prec, i)
                if n % 2:
                    assert xs[n // 2] == fzero
                tol = from_man_exp(1, -prec - 20)
                for v, ref in zip(xs + ws, ref_xs + ref_ws):
                    assert mpf_le(mpf_abs(mpf_sub(v, ref._mpf_)), tol), (n, prec, order[0])


def test_larger_t_reuses_the_nodes_of_a_smaller_t(monkeypatch):
    # from no held solve: the smaller t's solve answers every larger t
    monkeypatch.setattr(rq, "_gl_held", {})
    rq.theta_direct(2.0, 0.05)
    calls = []
    legendre = rq._legendre

    def counted(*args):
        calls.append(args[1:])
        return legendre(*args)

    monkeypatch.setattr(rq, "_legendre", counted)
    for t in (0.0613, 0.1, 0.29, 1.0, 4.0):
        rq.theta_direct(2.0, t)
    assert calls == []


# theta_direct's self-check rerun, 32 bits below the full run, runs in a
# forked child beside this process when it can; in process otherwise.  Both
# must give the same bits.
@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned in this process during one test."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _fork_fails():
    raise OSError("fork refused")


def _pipe_fails():
    raise OSError(24, "Too many open files")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _both_paths(monkeypatch, cells):
    """theta_direct and the fixed-point run on each (r, t, bits, estimate),
    with theta_direct's child, then with every child refused."""

    def run():
        return [
            (rq.theta_direct(r, t, bits), rq._theta_fixed(r, t, bits, estimate))
            for r, t, bits, estimate in cells
        ]

    forked = run()
    with monkeypatch.context() as m:
        m.setattr(os, "fork", _fork_fails)
        in_process = run()
    return forked, in_process


def test_check_runs_32_bits_below_the_full_run(monkeypatch, tmp_path):
    # the serial runs, logged from every process: theta_direct's full run
    # here and its check in the child; measure_vartheta runs neither
    log = tmp_path / "runs"
    integrate = rq._integrate_panels

    def logged(r, t, bits, kmax):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {bits}\n")
        return integrate(r, t, bits, kmax)

    monkeypatch.setattr(rq, "_integrate_panels", logged)
    runs = []
    for call in (
        lambda: rq.theta_direct(2.0, 0.5),  # default bits
        lambda: rq.theta_direct(10.0, 0.05),
        lambda: rq.theta_direct(2.0, 0.5, 64),  # explicit bits
        lambda: rq.theta_direct(2.0, 0.5, 97),
        lambda: rq.theta_direct(2.0, 0.5, 256),
        lambda: ab.measure_vartheta(0.25, 0.1),
        lambda: ab.measure_vartheta(2.0, 0.05),
    ):
        log.write_text("")
        call()
        runs.append([tuple(map(int, line.split())) for line in log.read_text().splitlines()])
    here = os.getpid()
    full = [[bits for pid, bits in run if pid == here] for run in runs]
    checks = [[bits for pid, bits in run if pid != here] for run in runs]
    assert full == [[79], [207], [64], [97], [256], [], []]
    assert checks == [[max(64, bits - 32)] for (bits,) in full[:5]] + [[], []]


@pytest.mark.parametrize("r, t", [(10.0, 0.05), (20.0, 0.05)])
def test_default_check_stays_above_the_cancellation(r, t):
    # at t = 0.05 the pi^2/(2t) cancellation is 143 bits: a check at half of
    # the default 207 bits fell below it and reported 1.6e7 at r = 10 (rho =
    # 0.5) and 9.3e-8 at r = 20 for a correct theta; 32 bits below runs at 175
    result = rq.theta_direct(r, t)
    assert result.precision_used_bits == 207
    assert result.error_estimate < 1e-12, result


def test_worker_and_in_process_check_agree_on_readme_cells(monkeypatch, forks):
    cells = [
        (2.0, 0.5, None, 4.0),
        _oracle_args(1.0, 0.5, monkeypatch),
        (2.0, 0.5, 256, 4.0),
        (1.0, 0.5, None, 0.5),
    ]
    forked, in_process = _both_paths(monkeypatch, cells)
    assert forked == in_process
    assert len(forks) == len(cells)
    assert forked[0][0].error_estimate == 7.138014541268517e-19


def test_worker_and_in_process_check_agree_on_default_grid(monkeypatch, forks):
    cells = [_oracle_args(rho, t, monkeypatch) for rho in DEFAULT_RHO for t in (0.05, 0.1, 0.2)]
    forked, in_process = _both_paths(monkeypatch, cells)
    assert forked == in_process
    assert len(forks) == 21


@settings(max_examples=15, deadline=None, derandomize=True)
@given(r=st.floats(min_value=0.1, max_value=200.0), t=st.floats(min_value=0.1, max_value=1.0))
def test_worker_and_in_process_check_agree_on_random_cells(r, t):
    forked = rq.theta_direct(r, t)
    fork = os.fork
    os.fork = _fork_fails
    try:
        in_process = rq.theta_direct(r, t)
    finally:
        os.fork = fork
    assert forked == in_process, (r, t)


def _fixed_serial(r, t, bits, estimate, kmax=None, table=None):
    """The fixed-point run at (r, t, bits) with its accumulator, panel shapes
    and tail stop set by estimate, over kmax panels (its own count where
    None), reading and filling table where given, else a table of its own.
    Returns (theta as mpf, (acc, panels, stopped)), _fixed_terms' run, its
    panels the (k, m, n) it summed, with acc scaled as _theta_fixed scales
    it, refused or not."""
    if kmax is None:
        kmax = rq._panel_count(r, t, bits)
    log_total = rq._log_total(r, t, estimate)
    scale = rq._fixed_scale(log_total, r, bits)
    run = rq._fixed_terms(r, t, bits, kmax, {} if table is None else table, scale, log_total)
    total = mpf_mul(mpf_shift(from_float(t), -1), from_man_exp(run[0], -scale), bits, _RND)
    return rq._theta_of(total, r, t, bits), run


def _coarse(r, t, bits, estimate):
    """Whether the accumulator's cap leaves its unit coarser than 2^-64 of
    the summed panels that estimate implies, where _theta_fixed refuses."""
    log_total = rq._log_total(r, t, estimate)
    return rq._fixed_scale(log_total, r, bits) < 64 - math.floor(log_total / math.log(2.0))


def _half_periods(panels):
    """The half-periods [0, K t] that a fixed-point run's panels (k, m, n)
    cover, K."""
    k, m, _ = panels[-1]
    return k + m


def _fixed_and_serial(r, t, bits, estimate, kmax=None):
    """(theta from _theta_fixed, serial theta, kmax, half-periods the serial
    run summed) at (r, t, bits), both fixed-point runs sized by estimate, over
    kmax panels where given.  _theta_fixed runs twice, over its key's node
    table as it finds it and then as the first run left it; the serial run
    reads no table.  Asserts that every run reaches the same mpf theta, or
    that _theta_fixed refuses a serial theta that is not a positive normal
    double (its theta None), or refuses, before any quadrature, an estimate
    that leaves the accumulator's unit too coarse (_coarse), or refuses a
    tail that the last panel does not bound, where the serial run does not
    stop (the serial theta and panel count None)."""
    thetas = []
    theta_of = rq._theta_of

    def recorded(*args):
        thetas.append(theta_of(*args))
        return thetas[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rq, "_theta_of", recorded)
        if kmax is not None:
            m.setattr(rq, "_panel_count", lambda r, t, bits: kmax)
        fixed = []
        for _ in range(2):
            try:
                fixed.append(rq._theta_fixed(r, t, bits, estimate))
            except DomainError:
                fixed.append(None)
        kmax = rq._panel_count(r, t, bits)
        serial, (_, panels, stopped) = _fixed_serial(r, t, bits, estimate, kmax)
    coarse = _coarse(r, t, bits, estimate)
    runs = 1 if coarse or not stopped else 3
    assert [theta._mpf_ for theta in thetas] == [serial._mpf_] * runs, (r, t, bits, kmax)
    assert fixed[0] == fixed[1]
    if not stopped:
        assert fixed[0] is None
        return None, None, kmax, None
    if fixed[0] is None and not coarse:
        assert not sys.float_info.min <= float(serial) < math.inf, (r, t, bits, kmax)
    assert not (coarse and fixed[0] is not None)
    return fixed[0], float(serial), kmax, _half_periods(panels)


#: The half-periods the fixed-point run sums in
#: test_split_run_equals_the_serial_run, by (r, t, kmax): it stops on its
#: proved tail bound, one half-period after the mpf loop at (2, 0.5) (one
#: panel of 8) and two before it at (0.01, 1) (9 panels of width t: the cell
#: has no proved partition), and it refuses one or two half-periods of
#: (2, 0.5), whose tail the last edge does not bound (None).
FIXED_SUMMED = {
    (2.0, 0.5, None): 8,
    (2.0, 0.5, 30): 8,
    (0.01, 1.0, None): 9,
    (2.0, 0.5, 1): None,
    (2.0, 0.5, 2): None,
}


@pytest.mark.parametrize(
    "r, t, bits, kmax, summed",
    [
        (2.0, 0.5, 79, None, 7),  # 10 panels, stop after 7
        (2.0, 0.5, 79, 30, 7),  # 30: the stop, not the cap
        (0.01, 1.0, 80, None, 11),  # no stop: every one of the 11 panels
        (2.0, 0.5, 79, 1, 1),  # the only panel
        (2.0, 0.5, 79, 2, 2),
    ],
)
def test_split_run_equals_the_serial_run(r, t, bits, kmax, summed):
    # measure_vartheta's run over its node table, with the accumulator sized
    # by the leading term, against the serial run without one; `summed` is
    # the mpf loop's panel count, the fixed-point run's is FIXED_SUMMED's
    estimate = ab.theta_leading(r * t, t)
    given = kmax
    fixed, serial, kmax, n = _fixed_and_serial(r, t, bits, estimate, kmax)
    assert len(rq._integrate_panels(r, t, bits, kmax)[1]) == summed
    assert n == FIXED_SUMMED[r, t, given]
    assert fixed == serial
    # at these explicit low bits the mpf loop itself can be an ulp off: at
    # (0.01, 1, 80) it gives ...7b29 where 300 bits round to ...7b2a, which
    # the fixed-point run gives
    if (r, t, bits) == (0.01, 1.0, 80):
        mpf_loop = float(rq._integrate_panels(r, t, bits, kmax)[0])
        exact = float(_serial(r, t, 300)[0])
        assert (mpf_loop.hex(), exact.hex()) == ("0x1.147eb13057b29p-29", "0x1.147eb13057b2ap-29")
        assert fixed == exact


@pytest.mark.parametrize("rho, t", [(0.05, 0.1), (0.01, 0.2), (10.0, 0.05)])
def test_split_run_equals_the_serial_run_on_sub_critical_cells(monkeypatch, rho, t):
    # ROADMAP item 4's cells, where default bits sized from pi^2/(2t) alone,
    # or an absolute truncation budget, gave a wrong theta; at the rule's
    # bits and the estimate that measure_vartheta hands the oracle
    fixed, serial, _, _ = _fixed_and_serial(*_oracle_args(rho, t, monkeypatch))
    assert fixed == serial > 0.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    r=st.floats(min_value=0.1, max_value=200.0),
    t=st.floats(min_value=0.1, max_value=1.0),
    bits=st.integers(min_value=64, max_value=300),
    log_estimate=st.floats(min_value=-300.0, max_value=300.0),
    kmax=st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
)
@example(r=4.0, t=0.5, bits=79, log_estimate=0.0, kmax=1)
@example(r=4.0, t=0.5, bits=79, log_estimate=0.0, kmax=2)
@example(r=4.0, t=0.5, bits=79, log_estimate=0.0, kmax=40)
@example(r=2.0, t=0.2, bits=100, log_estimate=-300.0, kmax=None)
@example(r=2.0, t=0.2, bits=100, log_estimate=300.0, kmax=None)
def test_split_run_equals_the_serial_run_on_random_cells(r, t, bits, log_estimate, kmax):
    # the estimate, log-uniform over [1e-300, 1e300], sets the accumulator
    # of both runs alike and moves no bit between them; one far above theta
    # leaves no digit of it, and _theta_fixed then refuses what the serial
    # run gives (_fixed_and_serial)
    fixed, serial, _, _ = _fixed_and_serial(r, t, bits, 10.0**log_estimate, kmax)
    assert fixed is None or fixed == serial, (r, t, bits, log_estimate, kmax)


def _certify_grid(seed):
    """perfbench's certify-grid cells: verify-bound's default 7 x 3 grid, each
    rho but 1 moved by a seeded factor within e^(+-0.05) for seed != 0."""
    rng = random.Random(seed)
    rhos = [
        rho if seed == 0 or rho == 1.0 else rho * math.exp(0.05 * (2 * rng.random() - 1))
        for rho in DEFAULT_RHO
    ]
    return [(rho, t) for rho in rhos for t in (0.05, 0.1, 0.2)]


@pytest.mark.parametrize("seed", [0, 5])
def test_fixed_run_gives_the_mpf_loops_result_on_certify_grids(monkeypatch, seed):
    # at measure_vartheta's arguments the fixed-point run, with its own panel
    # shapes and tail stop, rounds to the mpf loop's double; its proved stop
    # comes from 4 half-periods before the mpf loop's test to 6 after it (a
    # panel of 8 half-periods ends past it), and it takes panels of 8
    # half-periods at 48 and 64 points, and shorter ones at 48 where a
    # panel reaches the run's last edge
    shapes = set()
    for rho, t in _certify_grid(seed):
        r, t, bits, estimate = _oracle_args(rho, t, monkeypatch)
        value, panels = _serial(r, t, bits)
        fixed, (_, run, _) = _fixed_serial(r, t, bits, estimate)
        assert float(fixed) == float(value), (rho, t)
        assert -4 <= _half_periods(run) - len(panels) <= 6, (rho, t)
        shapes.update((m, n) for _, m, n in run)
    assert {(8, 48), (8, 64)} <= shapes <= {(8, 48), (8, 64)} | {(m, 48) for m in range(1, 8)}


# Node tables: once a key's run in the process has computed a panel, its
# integers (_fixed_terms) come from a table keyed by (t, bits), under the
# panel's (k, m, n), and only the r-dependent rest is computed.  Every
# panel must stay the one the run without a table sums.
def _cosh_sinh_calls(monkeypatch):
    """The list that every later mpf_cosh_sinh call in this process appends to."""
    calls = []
    cosh_sinh = rq.mpf_cosh_sinh

    def counted(*args):
        calls.append(args)
        return cosh_sinh(*args)

    monkeypatch.setattr(rq, "mpf_cosh_sinh", counted)
    return calls


def _estimate(r, t, bits):
    """|theta| from the mpf loop where it is a normal double, else 1.0: an
    accumulator estimate for an arbitrary cell."""
    theta = abs(float(_serial(r, t, bits)[0]))
    return theta if sys.float_info.min <= theta < math.inf else 1.0


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    r=st.floats(min_value=0.1, max_value=200.0),
    r2=st.floats(min_value=0.1, max_value=200.0),
    t=st.floats(min_value=0.1, max_value=1.0),
    bits=st.integers(min_value=64, max_value=300),
)
@example(r=2.0, r2=0.5, t=0.5, bits=79)
def test_tabled_panels_match_the_cold_run_on_random_cells(r, r2, t, bits):
    # build, hit at r, then r2 at the same (t, bits): it reads the panels,
    # at their shapes, that r tabled and builds the others; a panel takes
    # n + 1 cosh_sinh calls to build at order n (n nodes and its edge)
    key = (t, bits)
    estimates = {x: _estimate(x, t, bits) for x in (r, r2)}
    refs = {x: _fixed_serial(x, t, bits, estimates[x])[1] for x in (r, r2)}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rq, "_node_tables", OrderedDict())
        calls = _cosh_sinh_calls(m)
        for run, x in enumerate((r, r, r2)):
            tabled = set(rq._node_tables.get(key, ()))
            del calls[:]
            table = rq._node_table(t, bits)
            result = _fixed_serial(x, t, bits, estimates[x], table=table)[1]
            assert result == refs[x], (run, x, t, bits)
            summed = set(result[1])
            if run == 1:
                # a hit: every panel from the table, no cosh or sinh computed
                assert calls == [] and summed <= tabled
            assert len(calls) == sum(n + 1 for _, _, n in summed - tabled), (run, x, t, bits)


def _fixed_run_bound(r, t, bits, estimate, panels, ref_panels):
    """The fixed-point run's error bound (_fixed_terms' docstring) relative
    to theta, at (r, t, bits) with its accumulator set by estimate, over the
    panels (k, m, n) that ref_panels, the same panels summed far above bits,
    hold: N nodes on n half-periods.

    Its own truncations: the exponent's and Q's, 2^-(bits+7) of the summed
    |p_k|, and 1 + 2^-7 units of the accumulator, 2^-80 of the estimated
    total, per node (the shift's unit and the exponential's 2^-(p+4) of a
    product below 2^(p-3) units), times t/2.  The rounding at bits of the
    r-free values, about 2^-bits (|y| + 2 pi n + 8) of the summed |p_k|,
    |y| at the last edge, the 8 taking in the one rounding of (t/2) acc,
    and 2^-bits (pi^2/(2t) + 8) of theta for the prefactor.  The guards are
    written out here, not read from the module, so that a run with fewer
    fails."""
    n = _half_periods(panels)
    nodes = sum(order for _, _, order in panels)
    with mp.workprec(bits + 64):
        total = abs(mp.fsum(ref_panels))
        kappa = mp.fsum(abs(p) for p in ref_panels) / total
        edge = n * t
        y_max = edge * edge / (2 * t) + r * mp.cosh(edge)
        resolution = mp.mpf(2) ** (math.floor(rq._log_total(r, t, estimate) / math.log(2)) - 80)
        per_node = (1 + mp.mpf(2) ** -7) * resolution
        own = kappa * mp.mpf(2) ** -(bits + 7) + nodes * per_node * t / 2 / total
        shared = mp.mpf(2) ** -bits * (
            (y_max + 2 * mp.pi * n + 8) * kappa + mp.pi**2 / (2 * t) + 8
        )
        return own + shared


def _cells(rho_min):
    """(rho, t): rho log-uniform in [rho_min, 1e3], t in [0.01, 1] with
    rho t <= 100, that is t sqrt(r) <= 10, where the 24-point panels
    resolve theta (ROADMAP Found 12)."""
    return st.floats(min_value=math.log(rho_min), max_value=math.log(1e3)).flatmap(
        lambda x: st.tuples(
            st.just(math.exp(x)), st.floats(min_value=0.01, max_value=min(1.0, 100.0 / math.exp(x)))
        )
    )


#: ROADMAP Found 11's cells, where an accumulator capped at 2 bits + 54
#: fractional bits dropped the digits of theta: vartheta was 8.7e12 off at
#: (11, 0.01), -5.98 at (12, 0.02) and 4.8e-10 off at (30, 0.2).
FOUND_11 = [(11.0, 0.01), (12.0, 0.02), (30.0, 0.2)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    cell=st.one_of(
        st.tuples(st.floats(min_value=0.05, max_value=10.0), st.floats(min_value=0.05, max_value=1.0)),
        _cells(10.0),
    )
)
@example(cell=(1.0, 0.05))
@example(cell=(0.05, 0.05))
@example(cell=(10.0, 0.05))
@example(cell=FOUND_11[0])
@example(cell=FOUND_11[1])
@example(cell=FOUND_11[2])
def test_fixed_run_is_within_its_error_bound_on_random_cells(cell):
    # the fixed-point arithmetic at measure_vartheta's arguments, on the
    # panels its run takes: theta before its rounding to a double, against
    # the same Gauss-Legendre panels summed by mpmath 64 bits higher (the
    # rule's and the tail's errors are the tests of _rule_bound and of the
    # stop); cells whose leading term is not a double are not measured
    rho, t = cell
    with pytest.MonkeyPatch.context() as m:
        try:
            r, t, bits, estimate = _oracle_args(rho, t, m)
        except DomainError:
            assume(False)
    value, (_, panels, stopped) = _fixed_serial(r, t, bits, estimate)
    assert stopped
    prec = bits + 64
    with mp.workprec(prec):
        ref_panels = [(-1) ** k * _panel_sums(r, t, k, m, n, prec)[0] for k, m, n in panels]
        ref = rq._theta_of(mp.fsum(ref_panels)._mpf_, r, t, prec)
        bound = _fixed_run_bound(r, t, bits, estimate, panels, ref_panels)
        error = abs(value - ref) / ref
    assert error <= bound, (rho, t, bits, float(error), float(bound))


def _measured_or_refused(rho, t):
    """Asserts that measure_vartheta(rho, t) is the vartheta of the mpf loop
    at the same bits with 64 points per half-period, or refuses where the
    leading term or that loop's theta is not a positive normal double;
    returns the vartheta, or None.  The loop's own 24 points are 1.3e-15
    off theta at (115.58428452718766, 0.75), t sqrt(r) = 9.3 (ROADMAP
    Found 12), where 48 and 64 points and measure_vartheta's proved panels
    agree."""
    sd = sg.saddle_data(rho)
    try:
        lead = ab.theta_leading(rho, t)
    except DomainError:
        with pytest.raises(DomainError):
            ab.measure_vartheta(rho, t)
        return None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rq, "_PANEL_POINTS", 64)
        theta = float(_serial(rho / t, t, rq._cancellation_bits(sd, t))[0])
    try:
        vartheta = ab.measure_vartheta(rho, t)
    except DomainError:
        assert not sys.float_info.min <= theta < math.inf, (rho, t, theta)
        return None
    assert vartheta == theta / lead - 1.0, (rho, t)
    return vartheta


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cell=_cells(10.0))
@example(cell=FOUND_11[0])
@example(cell=FOUND_11[1])
@example(cell=FOUND_11[2])
def test_measure_vartheta_past_rho_10_gives_the_mpf_loops_double_or_refuses(cell):
    vartheta = _measured_or_refused(*cell)
    assert vartheta is not None or cell not in FOUND_11


#: Cells where the mpf loop's tail test, the envelope below 0.5 2^-(bits/2)
#: of the partial sum, stops while the panels it drops still carry about
#: 1e-15 of theta (the third is a cell past rho 10 at t = 1), with
#: measure_vartheta's vartheta there.
TAIL_CELLS = [
    (2.676733204478758, 0.49689317275998535, -0.00632127063305199),
    (1.946, 0.3019, -0.004087317428841719),
    (10.033834680463466, 1.0, -0.007413960427495869),
]


@pytest.mark.parametrize("rho, t, vartheta", TAIL_CELLS)
def test_measure_vartheta_sums_the_tail_that_the_mpf_loops_test_drops(
    monkeypatch, rho, t, vartheta
):
    # the proved stop gives the mpf loop's vartheta at the same bits summed
    # to its last panel, with no early stop (a zero tolerance stops no
    # sum), where the loop's own test gives another double
    r, bits = rho / t, rq._cancellation_bits(sg.saddle_data(rho), t)
    lead = ab.theta_leading(rho, t)
    stopped = float(_serial(r, t, bits)[0]) / lead - 1.0
    with monkeypatch.context() as m:
        m.setattr(rq, "_TAIL_TOLERANCE", 0.0)
        theta, panels = _serial(r, t, bits)
    assert len(panels) == rq._panel_count(r, t, bits)
    summed = float(theta) / lead - 1.0
    assert ab.measure_vartheta(rho, t) == summed == vartheta != stopped


def _recorded_partitions(monkeypatch):
    """The list to which every later _partition call appends (r, t, kmax,
    target, its partition or None)."""
    plans = []
    partition = rq._partition

    def recorded(r, t, kmax, target, bounds):
        plans.append((r, t, kmax, target, partition(r, t, kmax, target, bounds)))
        return plans[-1][-1]

    monkeypatch.setattr(rq, "_partition", recorded)
    return plans


def _recorded_panels(monkeypatch):
    """The list to which every later _fixed_terms run appends the panels
    (k, m, n) it summed."""
    summed = []
    terms = rq._fixed_terms

    def logged(*args):
        run = terms(*args)
        summed.append(run[1])
        return run

    monkeypatch.setattr(rq, "_fixed_terms", logged)
    return summed


def test_every_certify_grid_panel_takes_a_proved_shape(monkeypatch, cold_tables):
    # the 105 cells of seeds 0, 1, 3, 5 and 7 (93 distinct): each run has a
    # proved partition of [0, kmax t], every panel of it a shape of the
    # ladder (its m cut to the last edge) whose rule bound, recomputed,
    # meets the run's target, and the run sums a prefix of it
    plans = _recorded_partitions(monkeypatch)
    summed = _recorded_panels(monkeypatch)
    for seed in (0, 1, 3, 5, 7):
        for rho, t in _certify_grid(seed):
            ab.measure_vartheta(rho, t)
    assert len(plans) == len(summed) == 105
    for (r, t, kmax, target, plan), panels in zip(plans, summed):
        assert plan is not None and plan[0][0] == 0 and _half_periods(plan) == kmax, (r, t)
        assert all(j + m == k for (j, m, _), (k, _, _) in zip(plan, plan[1:])), (r, t)
        assert panels == plan[: len(panels)], (r, t)
        for k, m, n in plan:
            assert any(m == min(width, kmax - k) and n == order for width, order in rq._SHAPES)
            assert min(a - r * b for a, b in rq._rule_bound(t, k, m, n)) <= target, (r, t, k, m, n)


#: Cells near t = 0.01, with measure_vartheta's double before panels spanned
#: more than one half-period (float hex), and perfbench/reference.py's
#: vartheta_path there, which traces the descent path in mpmath with no code
#: of the package.  Width-t panels of 24 points miss the rule target here:
#: at (0.5, 0.02) each is off by e^-180 to e^-263 against e^-309, and the sum
#: is within 6.6e-15 of the path only because the rule errors of consecutive
#: panels cancel.  The first three have a proved partition into panels of 8
#: half-periods at 80 or 96 points; the last three have none and sum
#: theta_direct's panels throughout, width t at 24 points.  A run that
#: switched from width-t panels to proved ones partway gave 4.4e57 at
#: (0.25, 0.01) and refused (0.5, 0.01).
PARTITION_CELLS = [
    (0.5, 0.02, True, "-0x1.22a984f8f0000p-12", -0.0002771970608149197),
    (1.0, 0.01, True, "-0x1.2b75b3dadd000p-13", -0.0001427935484020203),
    (0.25, 0.02, True, "-0x1.0fd0897211800p-12", -0.00025922260022097143),
    (0.25, 0.01, False, "-0x1.0fe62f45d0000p-13", -0.00012965162220485778),
    (0.5, 0.01, False, "-0x1.22c5c22cd3000p-13", -0.00013865112976987225),
    (0.05, 0.02, False, "-0x1.be896347b0000p-13", -0.0002129252772896703),
]


@pytest.mark.parametrize("rho, t, proved, double, path", PARTITION_CELLS)
def test_a_run_never_switches_partitions_partway(monkeypatch, rho, t, proved, double, path):
    plans = _recorded_partitions(monkeypatch)
    summed = _recorded_panels(monkeypatch)
    vartheta = ab.measure_vartheta(rho, t)
    ((*_, plan),) = plans
    (panels,) = summed
    assert (plan is not None) == proved
    if not proved:
        assert panels == [(k, 1, rq._PANEL_POINTS) for k in range(len(panels))]
    assert vartheta.hex() == double
    assert abs(vartheta - path) <= 1e-13


def _panel_sums(r, t, k, m, order, prec):
    """((w/2) sum w_j f, (w/2) sum w_j |f / sin|): the order-point
    Gauss-Legendre sum on the panel of m half-periods from k t, of width
    w = m t, at prec bits, f the integrand with its phase taken from k t,
    and the same sum without the phase's sine."""
    tt = mp.mpf(t)
    mid, half = (k + mp.mpf(m) / 2) * tt, m * tt / 2
    value, size = [], []
    for x, w in rq._gl_nodes(order, prec):
        xi = mid + half * mp.make_mpf(x)
        envelope = mp.make_mpf(w) * mp.exp(-xi * xi / (2 * tt) - r * mp.cosh(xi)) * mp.sinh(xi)
        value.append(envelope * mp.sin(mp.pi * (xi - k * tt) / tt))
        size.append(envelope)
    return half * mp.fsum(value), half * mp.fsum(size)


def _rule_error_and_allowance(r, t, k, m, n, bits):
    """(|error|, bound, rest): the n-point Gauss-Legendre sum on the panel of
    m half-periods from k t against its m width-t subpanels at 64 points
    each, at bits + 64, the rule bound that _fixed_terms reads
    (_rule_bound, the least of its ellipses), and what the comparison
    adds: the subpanels' own rule bounds and both sums' roundings.  A term
    w e^y sinh(xi) sin(phase) at prec bits is off by about
    2^-prec (2 |y| + 8 (k + m) + 2^8) of w e^y sinh(xi): y's rounding goes
    into the exponential, the phase's, within 8 (k + m) 2^-prec, into the
    sine, and the other roundings, under 2^8 of them, into the product;
    fsum adds one rounding of the sum."""
    prec = bits + 64
    with mp.workprec(prec):
        value, size = _panel_sums(r, t, k, m, n, prec)
        # subpanel j's phase, taken from j t, is (-1)^(j-k) the panel's
        subpanels = [_panel_sums(r, t, j, 1, 64, prec) for j in range(k, k + m)]
        ref = mp.fsum((-1) ** i * sub for i, (sub, _) in enumerate(subpanels))
        ref_size = mp.fsum(sub_size for _, sub_size in subpanels)
        edge = (k + m) * mp.mpf(t)
        y_max = edge * edge / (2 * t) + r * mp.cosh(edge)

        def bound(j, width, order):
            return min(mp.exp(a - r * b) for a, b in rq._rule_bound(t, j, width, order))

        rounding = (size + ref_size) * (2 * y_max + 8 * (k + m) + 2**8) * mp.mpf(2) ** -prec
        ref_bound = mp.fsum(bound(j, 1, 64) for j in range(k, k + m))
        return abs(value - ref), bound(k, m, n), ref_bound + rounding


def _rule_panels():
    """(r, t, k, m, n, bits): rho = r t log-uniform in [1e-3, 1e2], t in
    [0.01, 2], a panel from k t with k t <= 4, (m, n) from _SHAPES and bits
    in [64, 300]."""
    return st.tuples(
        st.floats(min_value=math.log(1e-3), max_value=math.log(1e2)),
        st.floats(min_value=0.01, max_value=2.0),
        st.integers(min_value=0, max_value=40),
        st.sampled_from(rq._SHAPES),
        st.integers(min_value=64, max_value=300),
    ).map(lambda d: (math.exp(d[0]) / d[1], d[1], min(d[2], int(4.0 / d[1])), *d[3], d[4]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(panel=_rule_panels())
@example(panel=(2.0, 0.5, 0, 1, 16, 79))
@example(panel=(2.0, 0.5, 0, 8, 80, 79))
@example(panel=(5.0, 0.05, 0, 8, 64, 259))
@example(panel=(40.0, 0.05, 3, 1, 16, 207))
@example(panel=(0.2, 2.0, 1, 1, 24, 100))
def test_rule_bound_holds_on_random_panels(panel):
    error, bound, rest = _rule_error_and_allowance(*panel)
    assert error <= bound + rest, (panel, float(error), float(bound), float(rest))


def test_rule_bound_shrunk_by_2_to_the_40_fails_on_some_panel():
    # the mutation check of the test above: among the panels its strategy
    # draws, one fails a bound 2^40 times smaller, so the test sees a bound
    # that is that far too small
    def fails_shrunk(panel):
        error, bound, rest = _rule_error_and_allowance(*panel)
        return error > bound / 2**40 + rest

    find(
        _rule_panels(),
        fails_shrunk,
        settings=settings(max_examples=30, derandomize=True, deadline=None, phases=[Phase.generate]),
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    cell=st.one_of(
        st.tuples(st.floats(min_value=0.05, max_value=10.0), st.floats(min_value=0.02, max_value=1.0)),
        _cells(10.0),
    )
)
@example(cell=TAIL_CELLS[0][:2])
@example(cell=(4.0, 0.05))
def test_tail_stop_is_within_its_bound_on_random_cells(cell):
    # at measure_vartheta's arguments, the run as it stops against the same
    # run summed to its last panel: the tail bound at the stop edge X is
    # below 2^-72 of the estimate's summed panels, and the panels past X sum to
    # within the tail bound e^(-X^2/(2t) - r cosh X)/r, plus those panels'
    # rule bounds (_rule_bound at each panel's shape), their node terms
    # (2^-(bits+7) + 2^-bits (|y| + 2 pi kmax + 8) of each, as in
    # _fixed_run_bound) and the accumulator's 1 + 2^-7 units per node
    rho, t = cell
    with pytest.MonkeyPatch.context() as m:
        try:
            r, t, bits, estimate = _oracle_args(rho, t, m)
        except DomainError:
            assume(False)
        kmax = rq._panel_count(r, t, bits)
        log_total = rq._log_total(r, t, estimate)
        scale = rq._fixed_scale(log_total, r, bits)
        acc, panels, stopped = rq._fixed_terms(r, t, bits, kmax, {}, scale, log_total)
        m.setattr(rq, "_TAIL_GUARD", 10**9)
        full, all_panels, _ = rq._fixed_terms(r, t, bits, kmax, {}, scale, log_total)
    past_panels = all_panels[len(panels) :]
    assert stopped and all_panels[: len(panels)] == panels and _half_periods(all_panels) == kmax
    with mp.workprec(bits + 64):
        unit = mp.ldexp(t, -scale - 1)  # an accumulator unit, times t/2
        edge = _half_periods(panels) * mp.mpf(t)
        tail = mp.exp(-edge * edge / (2 * t) - r * mp.cosh(edge)) / r
        rule = mp.fsum(
            min(mp.exp(a - r * b) for a, b in rq._rule_bound(t, k, m, n))
            for k, m, n in past_panels
        )
        last = kmax * mp.mpf(t)
        y_max = last * last / (2 * t) + r * mp.cosh(last)
        terms = mp.mpf(2) ** -(bits + 7) + mp.mpf(2) ** -bits * (y_max + 2 * mp.pi * kmax + 8)
        nodes = sum(n for _, _, n in past_panels) * (1 + mp.mpf(2) ** -7) * unit
        past = abs(full - acc) * unit
        assert past <= (tail + rule) * (1 + terms) + nodes, (cell, float(past), float(tail))
        # the stop's own criterion, recomputed 64 bits higher
        assert tail < mp.exp(log_total) * mp.mpf(2) ** -72, (cell, float(tail))


def _exp2(kernel, wp, x, p):
    """E, the 2^x of kernel = _exp_kernel(wp) at x, 0 <= x < 2^P, asked for
    p bits, as _fixed_terms' node loop forms it from the kernel's data
    (_exp_kernel's docstring states the arithmetic)."""
    t8, t16, t24, by_bits = kernel
    top = wp + 8
    s, rest = by_bits[min(p, top)]
    v = x & ((1 << (top - 24)) - 1)
    for a in rest:
        s = a + (v * s >> top)
    e = t8[x >> (top - 8)] * t16[x >> (top - 16) & 255] >> top
    return (e * t24[x >> (top - 24) & 255] >> top) * s >> (top + 8)


def _exp_within_bound(kernel, wp, x, p):
    """Whether E at (x, p), kernel = _exp_kernel(wp), lies within 1.04
    units of 2^-wp, plus 2^-(p+4) relative, of 2^wp 2^(x 2^-P), P = wp + 8,
    by exp_basecase of x ln 2 64 bits higher (x ln 2 there within a unit,
    the exponential within 2^-40 of a unit of 2^-wp)."""
    arg = x * ln2_fixed(wp + 84) >> (wp + 28)  # x 2^-P ln 2 at wp + 64 bits
    ref = exp_basecase(arg, wp + 64)
    off = abs(Fraction((_exp2(kernel, wp, x, p) << 64) - ref, 1 << 64))
    return off < Fraction(104, 100) + Fraction(ref, 1 << (64 + p + 4))


def _largest_x(wp):
    """2^P - 1, the largest x the exponential takes."""
    return (1 << (wp + 8)) - 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    wp_x_p=st.integers(min_value=78, max_value=4110).flatmap(
        lambda wp: st.tuples(
            st.just(wp),
            st.integers(min_value=0, max_value=_largest_x(wp)),
            st.integers(min_value=0, max_value=wp + 100),
        )
    )
)
def test_exp_kernel_is_within_its_bound_on_random_arguments(wp_x_p):
    # wp over every run's bits + 14 up to the default ceiling; p from the
    # first degree up, past P = wp + 8 where the degree stops growing
    wp, x, p = wp_x_p
    assert _exp_within_bound(rq._exp_kernel(wp), wp, x, p), (wp, x, p)


@pytest.mark.parametrize("wp", [78, 114, 221, 273, 4110])
def test_exp_kernel_is_within_its_bound_at_its_ends_and_table_boundaries(wp):
    # x = 0, the largest x, and x whose bits below each table's index are all
    # zero, or all one; p at each end of the first degrees, and about P
    top = _largest_x(wp)
    xs = [0, 1, top]
    for level in (8, 16, 24):
        below = wp + 8 - level
        xs += [top >> below << below, 1 << below, (1 << below) - 1, (top >> below << below) - 1]
    kernel = rq._exp_kernel(wp)
    for p in (0, 19, 20, 44, 45, 69, 70, wp // 2, wp + 7, wp + 8, wp + 9, 2 * wp):
        for x in xs:
            assert _exp_within_bound(kernel, wp, x, p), (wp, x, p)
        assert _exp2(kernel, wp, 0, p) == 1 << wp


def _exp_kernel_one_degree(wp: int):
    """The 2^x exponential with one Taylor degree K for every node, the
    counterpart of the e^u kernel from before the degree followed p: the
    reference that _exp_kernel(wp) must match to the bit for every
    p >= P = wp + 8."""
    prec = wp + 8
    build = prec + _EXP_BUILD_GUARD
    tables = []
    for level in (8, 16, 24):
        log_step = from_man_exp(ln2_fixed(build + 10), -(build + 10 + level))
        step = _fixed(mpf_exp(log_step, build, _RND), build)
        entry = 1 << build
        table = []
        for _ in range(256):
            table.append(((entry >> (_EXP_BUILD_GUARD - 1)) + 1) >> 1)
            entry = entry * step >> build
        tables.append(table)
    t8, t16, t24 = tables
    degree = 0
    while math.factorial(degree + 1) << (24 * (degree + 1)) < 1 << (prec + 5):
        degree += 1
    # (ln 2)^K/K!, ..., (ln 2)/1!, 1 at P bits: Horner's order
    ln2 = ln2_fixed(build)
    power, coefficients = 1 << build, []
    for k in range(degree + 1):
        coefficients.append(((power // math.factorial(k) >> (_EXP_BUILD_GUARD - 1)) + 1) >> 1)
        power = power * ln2 >> build
    top, *coefficients = reversed(coefficients)
    low = (1 << (prec - 24)) - 1

    def exp_fixed(x):
        v = x & low
        s = top
        for c in coefficients:
            s = c + (v * s >> prec)
        head = t8[x >> (prec - 8)] * t16[x >> (prec - 16) & 255] >> prec
        return (head * t24[x >> (prec - 24) & 255] >> prec) * s >> (prec + 8)

    return exp_fixed


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    wp_x=st.integers(min_value=78, max_value=4110).flatmap(
        lambda wp: st.tuples(st.just(wp), st.integers(min_value=0, max_value=_largest_x(wp)))
    ),
    above=st.integers(min_value=0, max_value=300),
)
@example(wp_x=(78, 0), above=0)
@example(wp_x=(221, _largest_x(221)), above=0)
def test_exp_kernel_from_p_at_P_up_is_the_one_degree_kernel(wp_x, above):
    wp, x = wp_x
    expected = _exp_kernel_one_degree(wp)(x)
    assert _exp2(rq._exp_kernel(wp), wp, x, wp + 8 + above) == expected, (wp, x, above)


def _recomputed_products(r, t, bits, log_total, scale):
    """The products E q >> shift that the fixed-point run at (r, t, bits),
    its panels and stop set by log_total, sums into an accumulator at
    `scale` fractional bits, with the p each asks of the exponential,
    recomputed from the node table's integers with _exp2; asserts that
    they sum, each panel's with its sign, to the run's accumulator."""
    table = {}
    kmax = rq._panel_count(r, t, bits)
    acc, panels, _ = rq._fixed_terms(r, t, bits, kmax, table, scale, log_total)
    frac, wp = bits + rq._FIXED_GUARD, bits + rq._EXP_GUARD
    kernel = rq._exp_kernel(wp)
    r_num, r_den = r.as_integer_ratio()
    base = wp + frac - scale
    products = []
    total = 0
    for k, m, order in panels:
        ints = table[k, m, order]
        assert len(ints) == 3 * order + 2
        it = iter(ints[2:])
        for g, c, q in zip(it, it, it):
            y = g - (r_num * c >> (r_den.bit_length() - 1))
            n = y >> frac
            shift = base - n
            sig = wp + q.bit_length() - shift
            if sig >= 0:
                x = (y & ((1 << frac) - 1)) >> (frac - wp - 8)
                value = _exp2(kernel, wp, x, sig + 4) * q >> shift
                products.append((value, sig + 4))
                total += -value if k & 1 else value
    assert total == acc, (r, t, scale)
    return products


@pytest.mark.parametrize("seed", [0, 5])
def test_each_summed_product_is_below_its_sig_bound(monkeypatch, seed):
    # the degree rule rests on each product E q >> shift lying below
    # 2^(sig+1) accumulator units where the run asks for p = sig + 4 bits.
    # The loop inlines the kernel, so the products are recomputed from the
    # node table (_recomputed_products); at the accumulator's cap, where
    # the products keep E's last bits, they show the inlined kernel giving
    # _exp2's E to the bit
    products = []
    for rho, t in _certify_grid(seed):
        r, t, bits, estimate = _oracle_args(rho, t, monkeypatch)
        log_total = rq._log_total(r, t, estimate)
        products += _recomputed_products(r, t, bits, log_total, rq._fixed_scale(log_total, r, bits))
        _recomputed_products(r, t, bits, log_total, rq._fixed_scale(-1e6, r, bits))
    assert len(products) > 3_500
    # a wide panel's phase changes sign within it, and so do Q and the
    # product, whose shift rounds toward -inf
    assert all(-(1 << (p - 3)) <= value < 1 << (p - 3) for value, p in products)
    # the test reaches the degrees below K: most products keep far fewer
    # bits than wp
    assert sorted(p for _, p in products)[len(products) // 2] < 150


def test_cold_warm_and_evicted_tables_give_the_same_float(monkeypatch, cold_tables):
    # build, hit, hit, then built again once the key's table has been
    # dropped: one float, the serial run's
    r, t, bits, estimate = _oracle_args(2.0, 0.2, monkeypatch)
    key = (t, bits)
    values = []
    for run in range(3):
        values.append(ab.measure_vartheta(2.0, 0.2))
        assert key in rq._node_tables
    for i in range(rq._NODE_TABLES):
        rq._theta_fixed(2.0, 0.5 + 0.01 * i, 64, 1.0)
    assert key not in rq._node_tables
    values.append(ab.measure_vartheta(2.0, 0.2))
    serial = float(_fixed_serial(r, t, bits, estimate)[0]) / estimate - 1.0
    assert [v.hex() for v in values] == [serial.hex()] * 4


def test_split_runs_equal_the_serial_runs_over_three_grid_passes(
    monkeypatch, cold_tables, forks
):
    # build and hit, on the default grid at measure_vartheta's arguments:
    # rho = 0.25 has a key of its own at each t, the other six share one
    cells = [_oracle_args(rho, t, monkeypatch) for rho, t in _certify_grid(0)]
    serial = [_serial(r, t, bits) for r, t, bits, _ in cells]
    summed = [_fixed_serial(*cell)[1][1] for cell in cells]
    rq._node_tables.clear()
    for run in range(3):
        fixed = [rq._theta_fixed(*cell) for cell in cells]
        assert fixed == [float(value) for value, _ in serial], run
        assert set(rq._node_tables) == {(t, bits) for _, t, bits, _ in cells}
        # each key's table holds every panel summed at it, at its shape
        for (r, t, bits, _), panels in zip(cells, summed):
            assert set(panels) <= set(rq._node_tables[t, bits]), (run, r, t)
    assert forks == []


def test_the_first_run_fills_the_table(cold_tables):
    # theta_direct reads and builds no node table, however often it meets
    # the key
    for _ in range(3):
        rq.theta_direct(2.0, 0.5)
    assert not rq._node_tables
    # a key's first fixed-point run fills its table with the integers of
    # every panel it summed, at its shape: at (2, 0.5, 79) one panel of 8 of
    # the 10 half-periods, at 80 points, the edge's G and C and three
    # integers per node
    rq._theta_fixed(2.0, 0.5, 79, ab.theta_leading(1.0, 0.5))
    rq._theta_fixed(2.0, 0.25, 79, ab.theta_leading(0.5, 0.25))
    assert list(rq._node_tables) == [(0.5, 79), (0.25, 79)]
    (ints,) = rq._node_tables[0.5, 79].values()
    assert list(rq._node_tables[0.5, 79]) == [(0, 8, 80)] and len(ints) == 3 * 80 + 2


def test_node_tables_stay_within_the_bound(cold_tables):
    # 2 * bound + 3 keys, one at a time: the least recently used tables go
    # first
    bound = rq._NODE_TABLES
    ts = [0.5 + 0.01 * i for i in range(2 * bound + 3)]
    for i, t in enumerate(ts):
        _fixed_serial(2.0, t, 64, 1.0, table=rq._node_table(t, 64))
        assert list(rq._node_tables) == [(x, 64) for x in ts[max(0, i + 1 - bound) : i + 1]]
    # a key met again is the most recently used: the next new key drops
    # the one after it
    again = ts[-bound]
    rq._node_table(again, 64)
    rq._node_table(0.4, 64)
    assert list(rq._node_tables) == [(x, 64) for x in ts[2 - bound :] + [again, 0.4]]


def test_node_tables_under_concurrent_callers(cold_tables):
    # more keys than the bound, met from more threads than cores: no run may
    # see a half-moved key, and every panel stays the serial run's
    cells = [(r, 0.5 + 0.01 * i) for i in range(rq._NODE_TABLES + 2) for r in (2.0, 1.0)]
    expected = {cell: _fixed_serial(*cell, 64, 1.0)[1] for cell in cells}
    rq._node_tables.clear()
    rng = random.Random(24)
    jobs = [rng.choice(cells) for _ in range(200)]

    def run(cell):
        r, t = cell
        return cell, _fixed_serial(r, t, 64, 1.0, table=rq._node_table(t, 64))[1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(run, c) for c in jobs]]
    finally:
        sys.setswitchinterval(interval)
    assert all(panels == expected[cell] for cell, panels in results)
    assert 0 < len(rq._node_tables) <= rq._NODE_TABLES


#: Bytes of the node tables that a pass of verify-bound's default grid
#: leaves, by tracemalloc: 3 n + 2 integers per panel at order n over the
#: 37 (k, m, n) entries of its 6 keys, 5,978 integers, in one list per
#: entry: 394,816 bytes (340,452 of integers, 54,488 of lists, 2,368 of
#: keys, 1,880 of the dicts).  They hold 33 distinct panels (k, m), 4 of
#: them at two orders, chosen by cells of one key at different r.
_DEFAULT_GRID_TABLE_BYTES = 430_000


def test_default_grid_node_tables_stay_within_their_measured_size(monkeypatch, cold_tables):
    cells = [_oracle_args(rho, t, monkeypatch) for rho, t in _certify_grid(0)]
    tracemalloc.start()
    try:
        for cell in cells:
            rq._theta_fixed(*cell)
        counts = [len(table) for table in rq._node_tables.values()]
        with_tables, _ = tracemalloc.get_traced_memory()
        rq._node_tables.clear()
        held = with_tables - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # later passes read the tables and add nothing to them
    for cell in cells:
        rq._theta_fixed(*cell)
    assert [len(table) for table in rq._node_tables.values()] == counts
    assert len(counts) == 6 and sum(counts) == 37
    assert held <= _DEFAULT_GRID_TABLE_BYTES, held


#: Bytes of the exponentials' tables that a pass of verify-bound's default
#: grid leaves, by tracemalloc: three tables of 256 integers at wp + 8 bits,
#: and the polynomial's coefficients, for each of its 6 wp: 281,740 bytes.
_DEFAULT_GRID_EXP_BYTES = 300_000


def test_default_grid_exp_tables_stay_within_their_measured_size(monkeypatch, cold_tables):
    cells = [_oracle_args(rho, t, monkeypatch) for rho, t in _certify_grid(0)]
    monkeypatch.setattr(rq, "_exp_kernels", OrderedDict())
    tracemalloc.start()
    try:
        for cell in cells:
            rq._theta_fixed(*cell)
        wps = sorted(rq._exp_kernels)
        with_tables, _ = tracemalloc.get_traced_memory()
        rq._exp_kernels.clear()
        held = with_tables - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert wps == sorted({bits + rq._EXP_GUARD for _, _, bits, _ in cells}) and len(wps) == 6
    assert held <= _DEFAULT_GRID_EXP_BYTES, held


def test_measure_vartheta_forks_nothing_and_runs_one_fixed_run(monkeypatch, cold_tables, forks):
    # one fixed-point run over every panel, at the measured bits, and no
    # mpf loop, serial run or check
    r, t, bits, _ = _oracle_args(2.0, 0.2, monkeypatch)
    calls = []
    terms = rq._fixed_terms

    def logged(r, t, bits, kmax, table, scale, log_total):
        calls.append((bits, kmax))
        return terms(r, t, bits, kmax, table, scale, log_total)

    def must_not_run(*args):
        raise AssertionError("an mpf loop in measure_vartheta")

    monkeypatch.setattr(rq, "_fixed_terms", logged)
    monkeypatch.setattr(rq, "_integrate_panels", must_not_run)
    ab.measure_vartheta(2.0, 0.2)
    assert forks == []
    # kmax = 16 half-periods, summed up to the tail's stop
    assert calls == [(bits, 16)] and rq._panel_count(r, t, bits) == 16


def test_warm_cell_rounds_no_node(monkeypatch, cold_nodes):
    # once a key's table holds every panel a run sums, the fixed-point run
    # reads its integers only: no node values, no rounding of the held solve
    first = ab.measure_vartheta(2.0, 0.2)

    def must_not_run(*args):
        raise AssertionError("node values built for a tabled panel")

    monkeypatch.setattr(rq, "_gl_nodes", must_not_run)
    monkeypatch.setattr(rq, "_node_values", must_not_run)
    assert ab.measure_vartheta(2.0, 0.2) == first


def test_tabled_cell_is_unchanged_after_a_higher_bits_solve(cold_nodes):
    # the nodes at a precision round the held solve, the highest yet: a key
    # built again after a higher-bits call replaced that solve sums to the
    # same doubles on the default grid's t = 0.2 cells
    cells = [(rho, 0.2) for rho in DEFAULT_RHO]
    before = [ab.measure_vartheta(rho, t) for rho, t in cells]
    rq.theta_direct(2.0, 0.05, 1000)
    assert rq._gl_held[24][0] == 1030
    rq._node_tables.clear()
    assert [ab.measure_vartheta(rho, t) for rho, t in cells] == before


def test_node_caches_end_as_the_serial_runs_leave_them(cold_nodes, forks):
    # the full run's solve is held here before the fork; the rerun's nodes,
    # here or in the child, round it
    rq.theta_direct(2.0, 0.5)
    assert rq._gl_held[24][0] == 79 + 30
    assert len(forks) == 1


def _recording(monkeypatch, name, in_child):
    """Patch rq.<name>: record the arguments after (r, t) of each call in
    this process, and run in_child() first in any other process."""
    parent = os.getpid()
    calls = []
    original = getattr(rq, name)

    def patched(r, t, *args):
        if os.getpid() != parent:
            in_child()
        else:
            calls.append(args)
        return original(r, t, *args)

    monkeypatch.setattr(rq, name, patched)
    return calls


def _fail():
    raise RuntimeError("child failure")


def _exit_without_writing():
    os._exit(0)


def _write_half_and_exit():
    # the child writes half of its pickle and exits 0
    write = os.write

    def half(fd, data):
        write(fd, data[: len(data) // 2])
        os._exit(0)

    os.write = half


CHILD_FAILURES = pytest.mark.parametrize(
    "in_child",
    [_fail, _exit_without_writing, _write_half_and_exit],
    ids=["nonzero-exit", "short-read", "half-pickle"],
)


@CHILD_FAILURES
def test_failed_child_falls_back_to_the_same_result(monkeypatch, forks, in_child):
    expected = rq.theta_direct(2.0, 0.5)
    calls = _recording(monkeypatch, "_integrate_panels", in_child)
    assert rq.theta_direct(2.0, 0.5) == expected
    assert len(forks) == 2
    assert [bits for bits, _ in calls] == [79, 64]  # the check reran here after the child failed
    _assert_no_child_left()


def _interrupted_here(monkeypatch, name):
    """Patch rq.<name> to raise KeyboardInterrupt in this process only."""

    def interrupt():
        raise KeyboardInterrupt

    original = getattr(rq, name)
    parent = os.getpid()
    monkeypatch.setattr(
        rq, name, lambda *args: interrupt() if os.getpid() == parent else original(*args)
    )


def test_parent_exception_leaves_no_child(monkeypatch, forks):
    _interrupted_here(monkeypatch, "_integrate_panels")
    with pytest.raises(KeyboardInterrupt):
        rq.theta_direct(0.01, 1.0)
    assert len(forks) == 1
    _assert_no_child_left()


def _fork_must_not_run():
    raise AssertionError("forked where the check must run in process")


@pytest.mark.parametrize(
    "condition", ["no-fork", "fork-raises", "pipe-raises", "second-thread", "sigchld-ignored"]
)
def test_check_runs_in_process(monkeypatch, condition):
    def oracle():
        return rq.theta_direct(2.0, 0.5), ab.measure_vartheta(2.0, 0.2)

    expected = oracle()
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    with monkeypatch.context() as m:
        if condition == "no-fork":
            m.delattr(os, "fork")
        elif condition == "fork-raises":
            m.setattr(os, "fork", _fork_fails)
        else:
            m.setattr(os, "fork", _fork_must_not_run)
        if condition == "pipe-raises":
            m.setattr(os, "pipe", _pipe_fails)
        if condition == "second-thread":
            worker.start()
        if condition == "sigchld-ignored":
            m.setattr(signal, "getsignal", lambda signum: signal.SIG_IGN)
        try:
            result = oracle()
        finally:
            release.set()
            if worker.is_alive():
                worker.join(timeout=10)
    assert not worker.is_alive()
    assert result == expected


def test_one_panel_loop_and_one_fork():
    # every run's r-free values come from _node_values; theta_direct's runs
    # sum their panels in _integrate_panels, measure_vartheta's run in
    # _fixed_terms, whose exponential is the one kernel _exp_kernel builds;
    # the one child comes from _in_child
    source = inspect.getsource(rq)
    assert source.count("mpf_cosh_sinh(xi") == 1
    assert "exp_basecase(" not in source
    users = [
        name
        for name, obj in vars(rq).items()
        if inspect.isfunction(obj)
        and obj.__module__ == rq.__name__
        and name != "_exp_kernel"
        and "_exp_kernel" in inspect.getsource(obj)
    ]
    assert users == ["_fixed_terms"]
    assert source.count("os.fork()") == 1


def test_no_child_is_left_after_the_oracle():
    rq.theta_direct(2.0, 0.5)
    _assert_no_child_left()
    ab.measure_vartheta(2.0, 0.2)
    _assert_no_child_left()


def test_inherited_stdout_buffer_is_written_once():
    # a block-buffered stdout holds the line when the child is forked; the
    # child must leave without flushing its copy
    script = (
        "import os, hwtheta.reference_quadrature as rq\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "print('before the oracle')\n"
        "rq.theta_direct(2.0, 0.5)\n"
        "print('forks', len(forks))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before the oracle\nforks 1\n"


@pytest.mark.parametrize("r", [2e300])
def test_theta_outside_double_range_is_refused(r):
    # at rho = 1e300 the saddle's g0, and so theta, underflows to 0.0
    with pytest.raises(DomainError, match="outside the range of a double"):
        rq.theta_direct(r, 0.5)
    # at explicit bits the run itself is refused: theta is 0.0
    with pytest.raises(DomainError, match=r"theta\(r=2e\+300, t=0.5\) is 0.0"):
        rq.theta_direct(r, 0.5, 79)


def test_far_sub_critical_sizing_above_the_ceiling_is_refused(monkeypatch, forks):
    # at rho = 1e-300 theta is about e^(-486,000): the sized run would need
    # 700,986 bits, refused before any quadrature
    def must_not_run(*args):
        raise AssertionError("quadrature started for a refused precision")

    monkeypatch.setattr(rq, "_gl_nodes", must_not_run)
    with pytest.raises(PrecisionOverflowError) as excinfo:
        rq.theta_direct(2e-300, 0.5)
    assert excinfo.value.required_bits == 700986
    assert forks == []
