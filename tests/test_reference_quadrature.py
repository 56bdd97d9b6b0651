"""Extended-precision direct evaluation of theta(r, t)."""

import math
import os
import signal
import subprocess
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_abs, mpf_le, mpf_neg, mpf_sub

import hwtheta.approximation_and_bounds as ab
import hwtheta.reference_quadrature as rq
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


def test_required_bits_reference_points():
    assert rq.required_bits(0.1) == 136
    assert rq.required_bits(math.pi * math.pi / 2.0) == 66


def test_required_bits_grows_like_one_over_t():
    ts = [1.6, 0.8, 0.4, 0.2, 0.1, 0.05]
    bits = [rq.required_bits(t) for t in ts]
    assert all(a < b for a, b in zip(bits, bits[1:]))
    # halving t roughly doubles the exponent budget above the fixed floor
    for t, b in zip(ts, bits):
        predicted = math.ceil(math.pi * math.pi / (2.0 * t) * math.log2(math.e)) + 64
        assert b == predicted


def test_required_bits_beyond_the_double_range_is_refused(monkeypatch):
    # pi^2/(2t) log2 e overflows a double below t = 3.96e-308
    monkeypatch.delenv("HW_MAX_BITS", raising=False)
    assert rq.required_bits(4e-308) > 1.7e308
    for t in (3.9e-308, 1e-320, 5e-324):
        with pytest.raises(PrecisionOverflowError) as excinfo:
            rq.required_bits(t)
        assert excinfo.value.required_bits > 2**1024
        assert excinfo.value.ceiling_bits == rq.DEFAULT_BITS_CEILING
        with pytest.raises(PrecisionOverflowError):
            rq.theta_direct(1e20, t)


def test_theta_direct_matches_reference_values():
    for r, t, ref in THETA_REF:
        res = rq.theta_direct(r, t)
        assert res.method is Method.DIRECT
        assert res.precision_used_bits >= rq.required_bits(t)
        assert res.theta == pytest.approx(ref, rel=1e-14), (r, t, res.theta, ref)
        assert res.theta > 0.0


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

    for r, t in ((0.01, 1.0), (0.005, 2.0), (0.002, 5.0)):
        bits = rq.required_bits(t)
        _, panels = rq._integrate_panels(r, t, bits)
        base = rq.theta_direct(r, t)
        with monkeypatch.context() as m:
            m.setattr(rq, "_truncation_cap", doubled_cap)
            _, wide_panels = rq._integrate_panels(r, t, bits)
            log.write_text("")
            wide = rq.theta_direct(r, t)
        assert len(wide_panels) > len(panels), (r, t)
        rel = abs(wide.theta / base.theta - 1.0)
        assert rel <= max(10.0 * base.error_estimate, 1e-14), (r, t, rel)
        # the self-check (64 bits here) saw the patch too, in the forked child
        calls = {tuple(map(int, line.split())) for line in log.read_text().splitlines()}
        (check_pid,) = {pid for pid, b in calls if b == 64}
        assert (os.getpid(), bits) in calls and bits > 64, (r, t)
        assert check_pid != os.getpid(), (r, t)


def test_panel_contributions_alternate_past_the_peak():
    _, panels = rq._integrate_panels(2.0, 0.5, 79)
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
    assert excinfo.value.required_bits == 136
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
    assert rq.theta_direct(2.0, 0.5, 256.0) == res


def test_bits_validation():
    for bad in (32, 63, 0, -64, 100.5, math.nan, math.inf, -math.inf, "100"):
        with pytest.raises(DomainError):
            rq.theta_direct(2.0, 0.5, bad)
    assert rq.theta_direct(2.0, 0.5, 64).precision_used_bits == 64


def test_panel_count_above_the_cap_is_refused_before_any_work(monkeypatch, forks):
    # the truncation cap at (1e20, 1e-320, 100 bits) is 6.2e-61: 6.2e259 panels
    def must_not_run(*args):
        raise AssertionError("quadrature started for a refused panel count")

    monkeypatch.setattr(rq, "_integrate_panels", must_not_run)
    monkeypatch.setattr(rq, "_gl_nodes", must_not_run)
    with pytest.raises(DomainError, match="quadrature panels, above the cap of 1000000"):
        rq.theta_direct(1e20, 1e-320, 100)
    assert forks == []


def test_default_bits_stay_far_below_the_panel_cap():
    # r in [1e-3, 1e3], t in [1.7e-3, 100] on log grids: at most 1,876 panels
    most = 0
    for i in range(25):
        r = 10.0 ** (-3.0 + 6.0 * i / 24)
        for j in range(25):
            t = 1.7e-3 * (100.0 / 1.7e-3) ** (j / 24)
            most = max(most, rq._panel_count(r, t, rq.required_bits(t)))
    assert 1000 < most < rq._MAX_PANELS / 100


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
    value, panels = rq._integrate_panels(r, t, bits)
    ref_value, ref_panels = _integrate_panels_mpf(r, t, bits, rq._PANEL_POINTS)
    assert isinstance(value, mp.mpf)
    assert all(isinstance(p, mp.mpf) for p in panels)
    assert value._mpf_ == ref_value._mpf_, (r, t, bits)
    assert [p._mpf_ for p in panels] == [p._mpf_ for p in ref_panels], (r, t, bits)


def _oracle_args(rho, t, monkeypatch):
    """(r, t, bits) that measure_vartheta hands to theta_direct."""
    seen = []

    def record(r, t, bits):
        seen.append((r, t, bits))
        return rq.EvalResult(1.0, Method.DIRECT, bits, 0.0)

    with monkeypatch.context() as m:
        m.setattr(rq, "theta_direct", record)
        ab.measure_vartheta(rho, t)
    (args,) = seen
    return args


def test_panels_match_mpf_loop_on_default_rho_at_measured_bits(monkeypatch):
    for rho in DEFAULT_RHO:
        r, t, bits = _oracle_args(rho, 0.1, monkeypatch)
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
    _, panels = rq._integrate_panels(r, t, bits)
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


# The self-check rerun 32 bits below the full run runs in a forked child
# beside the full run when it can; in process otherwise.  Both must give the
# same bits.
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


def _both_paths(monkeypatch, cells):
    """theta_direct on each (r, t, bits) with the worker, then with the check in process."""
    forked = [rq.theta_direct(*cell) for cell in cells]
    with monkeypatch.context() as m:
        m.setattr(os, "fork", _fork_fails)
        in_process = [rq.theta_direct(*cell) for cell in cells]
    return forked, in_process


def test_check_runs_32_bits_below_the_full_run(monkeypatch):
    seen = []
    run = rq._run_beside_check

    def record(r, t, bits, check_bits):
        seen.append((bits, check_bits))
        return run(r, t, bits, check_bits)

    monkeypatch.setattr(rq, "_run_beside_check", record)
    rq.theta_direct(2.0, 0.5)  # default bits
    rq.theta_direct(10.0, 0.05)
    rq.theta_direct(2.0, 0.5, 64)  # explicit bits
    rq.theta_direct(2.0, 0.5, 97)
    rq.theta_direct(2.0, 0.5, 256)
    ab.measure_vartheta(0.25, 0.1)
    ab.measure_vartheta(2.0, 0.05)
    assert [bits for bits, _ in seen[:5]] == [79, 207, 64, 97, 256]
    assert len(seen) == 7
    for bits, check_bits in seen:
        assert check_bits == max(64, bits - 32), (bits, check_bits)


@pytest.mark.parametrize("r, t", [(10.0, 0.05), (20.0, 0.05)])
def test_default_check_stays_above_the_cancellation(r, t):
    # at t = 0.05 the pi^2/(2t) cancellation is 143 bits: a check at half of
    # the default 207 bits fell below it and reported 1.6e7 at r = 10 (rho =
    # 0.5) and 9.3e-8 at r = 20 for a correct theta; 32 bits below runs at 175
    result = rq.theta_direct(r, t)
    assert result.precision_used_bits == 207
    assert result.error_estimate < 1e-12, result


def test_worker_and_in_process_check_agree_on_readme_cells(monkeypatch, forks):
    cells = [(2.0, 0.5, None), _oracle_args(1.0, 0.5, monkeypatch), (2.0, 0.5, 256), (1.0, 0.5, None)]
    forked, in_process = _both_paths(monkeypatch, cells)
    assert forked == in_process
    assert len(forks) == len(cells)
    assert forked[0].error_estimate == 7.138014541268517e-19


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


def test_node_caches_end_as_the_serial_runs_leave_them(cold_nodes, forks):
    # both runs' nodes are requested here before the fork, full bits first
    rq.theta_direct(2.0, 0.5)
    assert list(rq._gl_cache) == [(24, 79), (24, 64)]
    assert rq._gl_held[24][0] == 79 + 30
    assert len(forks) == 1


def _recording_panels(monkeypatch, in_child):
    """Patch _integrate_panels: record the bits of each call in this process,
    and run in_child(bits) first in any other process."""
    parent = os.getpid()
    calls = []
    integrate = rq._integrate_panels

    def patched(r, t, bits):
        if os.getpid() != parent:
            in_child(bits)
        else:
            calls.append(bits)
        return integrate(r, t, bits)

    monkeypatch.setattr(rq, "_integrate_panels", patched)
    return calls


def _fail(bits):
    raise RuntimeError("child failure")


def _exit_without_writing(bits):
    os._exit(0)


@pytest.mark.parametrize("in_child", [_fail, _exit_without_writing], ids=["nonzero-exit", "short-read"])
def test_failed_child_falls_back_to_the_same_result(monkeypatch, forks, in_child):
    expected = rq.theta_direct(2.0, 0.5)
    calls = _recording_panels(monkeypatch, in_child)
    assert rq.theta_direct(2.0, 0.5) == expected
    assert len(forks) == 2
    assert calls == [79, 64]  # the check reran here after the child failed


def test_parent_exception_leaves_no_child(monkeypatch, forks):
    def interrupt(r, t, bits):
        raise KeyboardInterrupt

    integrate = rq._integrate_panels
    parent = os.getpid()
    monkeypatch.setattr(
        rq, "_integrate_panels",
        lambda r, t, bits: interrupt(r, t, bits) if os.getpid() == parent else integrate(r, t, bits),
    )
    with pytest.raises(KeyboardInterrupt):
        rq.theta_direct(0.01, 1.0)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fork_must_not_run():
    raise AssertionError("forked where the check must run in process")


@pytest.mark.parametrize(
    "condition", ["no-fork", "fork-raises", "second-thread", "sigchld-ignored"]
)
def test_check_runs_in_process(monkeypatch, condition):
    expected = rq.theta_direct(2.0, 0.5)
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    with monkeypatch.context() as m:
        if condition == "no-fork":
            m.delattr(os, "fork")
        elif condition == "fork-raises":
            m.setattr(os, "fork", _fork_fails)
        else:
            m.setattr(os, "fork", _fork_must_not_run)
        if condition == "second-thread":
            worker.start()
        if condition == "sigchld-ignored":
            m.setattr(signal, "getsignal", lambda signum: signal.SIG_IGN)
        try:
            result = rq.theta_direct(2.0, 0.5)
        finally:
            release.set()
            if worker.is_alive():
                worker.join(timeout=10)
    assert not worker.is_alive()
    assert result == expected


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


@pytest.mark.parametrize("r", [2e300, 2e-300])
def test_theta_outside_double_range_is_refused(r):
    # theta underflows to 0.0 at rho = 1e300 and to a subnormal at 1e-300
    with pytest.raises(DomainError, match="outside the range of a double"):
        rq.theta_direct(r, 0.5)
