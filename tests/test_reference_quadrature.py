"""Extended-precision direct evaluation of theta(r, t)."""

import inspect
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_abs, mpf_le, mpf_neg, mpf_sub

import hwtheta.approximation_and_bounds as ab
import hwtheta.reference_quadrature as rq
import hwtheta.saddle_geometry as sg
from hwtheta.errors import DomainError, PrecisionOverflowError
from hwtheta.reference_quadrature import Method

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
    split run."""
    seen = []

    def record(r, t, bits, estimate):
        seen.append((r, t, bits, estimate))
        return 1.0

    with monkeypatch.context() as m:
        m.setattr(rq, "_theta_split", record)
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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    r=st.floats(min_value=0.1, max_value=200.0),
    t=st.floats(min_value=0.1, max_value=1.0),
    bits=st.integers(min_value=64, max_value=300),
)
def test_panels_match_mpf_loop_on_random_cells(r, t, bits):
    _assert_same_panels(r, t, bits)


@pytest.mark.parametrize(
    "r, t, bits, nodes_summed, sines",
    [(4.0, 0.5, 79, 144, 57), (5.0, 0.05, 266, 1776, 90)],
)
def test_one_sine_per_distinct_phase_offset(monkeypatch, r, t, bits, nodes_summed, sines):
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
def cold_nodes(monkeypatch):
    """Empty node caches for one test; the process's own come back after it."""
    monkeypatch.setattr(rq, "_gl_cache", {})
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
        rq._gl_cache.clear()
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
    # no (n, prec) entry of an earlier test may answer the larger t's lookups
    monkeypatch.setattr(rq, "_gl_cache", {})
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


# theta_direct's self-check rerun 32 bits below the full run, and the second
# half of measure_vartheta's split run, run in a forked child beside this
# process when they can; in process otherwise.  Both must give the same bits.
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
    """theta_direct and the split run on each (r, t, bits, estimate) with
    their children, then with every child refused."""

    def run():
        return [
            (rq.theta_direct(r, t, bits), rq._theta_split(r, t, bits, estimate))
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
    assert len(forks) == 2 * len(cells)
    assert forked[0][0].error_estimate == 7.138014541268517e-19


def test_worker_and_in_process_check_agree_on_default_grid(monkeypatch, forks):
    cells = [_oracle_args(rho, t, monkeypatch) for rho in DEFAULT_RHO for t in (0.05, 0.1, 0.2)]
    forked, in_process = _both_paths(monkeypatch, cells)
    assert forked == in_process
    assert len(forks) == 2 * 21


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


def _split_and_serial(r, t, bits, estimate, kmax=None):
    """(split theta, serial theta, kmax, panels the serial run summed) at
    (r, t, bits), the split sized by estimate, over kmax panels where given;
    asserts that both runs reach the same mpf theta."""
    thetas = []
    theta_of = rq._theta_of

    def recorded(*args):
        thetas.append(theta_of(*args))
        return thetas[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rq, "_theta_of", recorded)
        if kmax is not None:
            m.setattr(rq, "_panel_count", lambda r, t, bits: kmax)
        split = rq._theta_split(r, t, bits, estimate)
        kmax = rq._panel_count(r, t, bits)
        serial, panels = rq._integrate_panels(r, t, bits, kmax)
    assert [theta._mpf_ for theta in thetas] == [serial._mpf_] * 2, (r, t, bits, kmax)
    _assert_no_child_left()
    return split, float(serial), kmax, len(panels)


@pytest.mark.parametrize(
    "r, t, bits, kmax, summed",
    [
        (2.0, 0.5, 79, None, 7),  # 10 panels, stop after 7: [0, 4) here, [4, 7) in the child
        (2.0, 0.5, 79, 30, 7),  # 30: the split follows the stop, not the cap
        (0.01, 1.0, 80, None, 11),  # no stop: every one of the 11 panels
        (2.0, 0.5, 79, 1, 1),  # the only panel, summed here; none in the child
        (2.0, 0.5, 79, 2, 2),  # one panel each
    ],
)
def test_split_run_equals_the_serial_run(r, t, bits, kmax, summed):
    # the split sized by the leading term, as measure_vartheta sizes it
    estimate = ab.theta_leading(r * t, t)
    split, serial, kmax, n = _split_and_serial(r, t, bits, estimate, kmax)
    assert n == summed
    assert split == serial


@pytest.mark.parametrize("rho, t", [(0.05, 0.1), (0.01, 0.2), (10.0, 0.05)])
def test_split_run_equals_the_serial_run_on_sub_critical_cells(monkeypatch, rho, t):
    # ROADMAP item 4's cells, where default bits sized from pi^2/(2t) alone,
    # or an absolute truncation budget, gave a wrong theta; at the rule's
    # bits and the estimate that measure_vartheta hands the oracle
    split, serial, _, _ = _split_and_serial(*_oracle_args(rho, t, monkeypatch))
    assert split == serial > 0.0


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
    # the estimate, log-uniform over [1e-300, 1e300], moves no bit
    split, serial, _, _ = _split_and_serial(r, t, bits, 10.0**log_estimate, kmax)
    assert split == serial, (r, t, bits, log_estimate, kmax)


@pytest.mark.parametrize("r, t, bits", [(2.0, 0.5, 79), (2.0, 0.2, 100), (0.01, 1.0, 80)])
def test_any_predicted_stop_gives_the_serial_theta(monkeypatch, r, t, bits):
    # any prediction up to kmax: a short one leaves the stop in the remainder
    # run here, an exact or long one in the child's range (a stop in this
    # process's range: test_stop_in_this_process_half_kills_the_child_unread)
    kmax = rq._panel_count(r, t, bits)
    stop = len(rq._integrate_panels(r, t, bits, kmax)[1])
    for predicted in sorted({1, stop - 1, stop, stop + 1, kmax} & set(range(1, kmax + 1))):
        monkeypatch.setattr(rq, "_predicted_stop", lambda *args: predicted)
        split, serial, _, _ = _split_and_serial(r, t, bits, 1.0)
        assert split == serial, (r, t, bits, predicted)


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
def test_predicted_stop_is_the_serial_runs_stop_on_certify_grids(monkeypatch, seed):
    # the prediction must follow _add_panels' tail test, or the split
    # drifts back towards waiting on panels the sum never reads
    for rho, t in _certify_grid(seed):
        r, t, bits, estimate = _oracle_args(rho, t, monkeypatch)
        kmax = rq._panel_count(r, t, bits)
        stop = len(rq._integrate_panels(r, t, bits, kmax)[1])
        assert rq._predicted_stop(r, t, bits, estimate, kmax) == stop, (rho, t)


def test_measure_vartheta_forks_one_child_and_runs_no_rerun(monkeypatch, forks, tmp_path):
    # every panel generator, logged from every process: one per half of the
    # predicted stop, at the measured bits, and no serial run or check
    r, t, bits, _ = _oracle_args(2.0, 0.2, monkeypatch)
    kmax = rq._panel_count(r, t, bits)
    log = tmp_path / "terms"
    terms = rq._panel_terms

    def logged(r, t, bits, ks):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {bits} {ks.start} {ks.stop}\n")
        return terms(r, t, bits, ks)

    def must_not_run(*args):
        raise AssertionError("a serial run in measure_vartheta")

    monkeypatch.setattr(rq, "_panel_terms", logged)
    monkeypatch.setattr(rq, "_integrate_panels", must_not_run)
    ab.measure_vartheta(2.0, 0.2)
    calls = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert len(forks) == 1
    # 16 panels and a stop after 11: the child computes none past the stop
    assert (kmax, rq._predicted_stop(r, t, bits, ab.theta_leading(2.0, 0.2), kmax)) == (16, 11)
    assert calls == sorted([(os.getpid(), bits, 0, 6), (forks[0], bits, 6, 11)])
    _assert_no_child_left()


def test_stop_in_this_process_half_kills_the_child_unread(monkeypatch, forks):
    # a child that would take a minute: the split must not wait for it
    expected = _serial(2.0, 0.5, 79)[0]
    parent = os.getpid()
    terms = rq._panel_terms

    def slow_in_child(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return terms(*args)

    monkeypatch.setattr(rq, "_panel_terms", slow_in_child)
    monkeypatch.setattr(rq, "_panel_count", lambda r, t, bits: 30)
    monkeypatch.setattr(rq, "_predicted_stop", lambda *args: 30)  # stop at 7 < 15
    start = time.monotonic()
    assert rq._theta_split(2.0, 0.5, 79, 4.0) == float(expected)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    _assert_no_child_left()


def test_node_caches_end_as_the_serial_runs_leave_them(cold_nodes, forks):
    # both runs' nodes are requested here before the fork, full bits first
    rq.theta_direct(2.0, 0.5)
    assert list(rq._gl_cache) == [(24, 79), (24, 64)]
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


@CHILD_FAILURES
def test_failed_split_child_falls_back_to_the_same_vartheta(monkeypatch, forks, in_child):
    expected = ab.measure_vartheta(2.0, 0.2)
    calls = _recording(monkeypatch, "_panel_terms", in_child)
    assert ab.measure_vartheta(2.0, 0.2) == expected
    assert len(forks) == 2
    # the child's range ran here after it failed
    assert [ks for _, ks in calls] == [range(0, 6), range(6, 11)]
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


def test_interrupted_split_leaves_no_child(monkeypatch, forks):
    _interrupted_here(monkeypatch, "_panel_terms")
    with pytest.raises(KeyboardInterrupt):
        ab.measure_vartheta(0.25, 0.05)
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
    # every run, both halves of the split and the check sum their panels
    # through _panel_terms, and every child comes from _in_child
    source = inspect.getsource(rq)
    assert source.count("mpf_cosh_sinh(xi") == 1
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
