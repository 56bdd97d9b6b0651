"""Direct extended-precision evaluation of the defining oscillatory integral.

The object computed here is

    theta(r, t) = r/sqrt(2 pi^3 t) * e^(pi^2/(2t))
                  * Int_0^inf e^(-xi^2/(2t) - r cosh xi) sinh(xi) sin(pi xi/t) dxi.

The integral is exponentially small while the prefactor carries e^(pi^2/(2t)),
so roughly pi^2/(2t) * log2(e) bits cancel and the quadrature must run in
extended precision (mpmath).  Two structural facts make a simple scheme
rigorous and fast:

* the oscillation sin(pi xi/t) has its zeros exactly at xi = k*t, so panels
  aligned to [k*t, (k+1)*t] each contain one sign-definite half-period and a
  fixed-order Gauss-Legendre rule per panel converges geometrically;
* the envelope decays like e^(-r cosh xi), so a truncation point with a
  guaranteed tail bound comes from solving r cosh(xi) + xi^2/(2t) = budget.

Within panel k the phase is evaluated locally, sin(pi xi/t) =
(-1)^k sin(pi (xi - k t)/t), so it never degrades at large xi/t.

Results surface as doubles, and a theta that is not a normal double (an
underflow to 0.0 or a subnormal, an overflow to inf) is refused with
DomainError, as is a run that would sum more than _MAX_PANELS panels (an
explicit bits with a tiny t); the error_estimate field reports the relative
difference against a rerun 32 bits below the full run (at least 64 bits).

The rerun's 32 bits below keep it above the integral's cancellation wherever
the full run holds 64 guard bits over it, as required_bits sizes it for the
pi^2/(2t) prefactor and measure_vartheta for the saddle exponent too.  A
rerun at half the bits would keep fewer than 32 guard bits over pi^2/(2t)
at default bits for t under about 0.22, and none under 0.11.  Both runs sum
the same 24-point panels, so the estimate measures rounding only: not the
panel rule's error, not a tail the loop stopped short of, and not a
cancellation beyond what the bits cover (at (200, 0.05) both runs agree on
a wrong, negative theta).

The rerun does not depend on the full run, so theta_direct runs the two at
once: it forks one child that computes the rerun while this process computes
the full run, and the child sends back only its value's raw libmp tuple,
through a pipe, and leaves through os._exit, so it flushes none of the
buffers it inherited.  Both runs' nodes are requested here before the fork,
full bits first as the serial code does, so the child solves no nodes and
this process's node caches end as the serial code leaves them.  The rerun
runs in process, after the full run, where os.fork is missing or raises
OSError, where a second thread is alive (a fork copies only the calling
thread, and any lock another thread holds stays held in the child), where
SIGCHLD is ignored (the child could not be waited for), and where the child
fails: a nonzero exit status or a short read.  If this process raises
meanwhile, KeyboardInterrupt included, it kills and reaps the child.  Either
way the same _integrate_panels makes the rerun's value at the same bits from
the same nodes, so the EvalResult is bit-identical to the in-process one; on
a single usable CPU the two runs share it, with the same result.

The panel loop runs on mpmath's raw libmp values rather than mpf objects:
each step is the libmp call that the equivalent mpf expression makes under
mp.workprec, with the same precision, round-to-nearest and evaluation order,
so every panel is the mpf result to the bit.  That matters because
error_estimate sits in the last bits of the rerun and so moves with any
change of rounding.  At (r, t) = (2, 0.5) it is 7.138e-19; mp.exp in place of
mp.e ** y makes it 1.357e-18 and folding sin into the weights 2.850e-19, and
the published output would change, so sin is not folded.  What the libmp loop
saves is mpf's per-operation object and dispatch overhead, the log(e) that
mp.e ** y recomputes at every node (taken once per call here), the second
cosh/sinh evaluation (mpf_cosh_sinh gives both), the product half * x, taken
once per node instead of once per node and panel, and most of the sines.  The
phase sin(pi (xi - a)/t) depends on the panel only through the roundings of
a = k t, mid = a + t/2 and xi = mid + (t/2) x_j, so the offsets xi - a take a
handful of values per node over all panels.  Each call keeps a table from the
raw offset to its sine and evaluates the sine, exactly as before, only for an
offset it has not seen: 57 sines for 144 nodes at (4, 0.5, 79 bits), 90 for
1,776 at (5, 0.05, 266 bits).  The key is the offset and not the node because
the offset's rounding differs between panels; a table keyed on the node would
reuse one panel's sine where the offset has moved by an ulp, and the panels
would no longer be the mpf loop's.  The table lives for one call, so it
grows with no t beyond the one it serves.

The Gauss-Legendre nodes and weights are held at 30 guard bits above the
panel precision, and the panel loop rounds every product with them back to
that precision, so the nodes need only be right in those guard bits, not
equal to any particular Newton iterate.  Each panel order is therefore solved
once per process, at the highest precision yet requested, and rounded to
each lower one (libmp mpf_pos); only the nonnegative roots are solved, from
double-precision Newton seeds at doubling precision, and mirrored exactly.
Against a Newton solve per (order, precision) the nodes differ in the last
guard bits, and the panels of the tests' mpf reference loop, which still
solves per (order, precision), come out the same to the bit.  A process that
sees many t pays for one solve per order instead of one per bit count.
"""

from __future__ import annotations

import enum
import math
import os
import signal
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    MPZ,
    fone,
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cosh_sinh,
    mpf_div,
    mpf_e,
    mpf_exp,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_pow,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sin,
    mpf_sub,
    round_nearest,
    to_float,
)

from .errors import DomainError, PrecisionOverflowError, normal_double, positive_real

__all__ = [
    "DEFAULT_BITS_CEILING",
    "Method",
    "EvalResult",
    "required_bits",
    "theta_direct",
]

#: Hard precision ceiling in bits; override with the HW_MAX_BITS environment
#: variable.  Guards against accidental t small enough to request unbounded
#: precision.
DEFAULT_BITS_CEILING = 4096

#: Gauss-Legendre nodes per half-period panel.  24 holds panel truncation
#: near the noise floor even for the sharpest envelopes exercised by the
#: bound grids; 16 leaves ~1e-9 relative.
_PANEL_POINTS = 24

#: Scales the dynamic truncation threshold
#: _TAIL_TOLERANCE * |partial sum| * 2^(-bits/2).
_TAIL_TOLERANCE = 0.5

#: Most panels of width t that one run may sum.  Default bits keep t above
#: about 1.7e-3, where no run needs more than about 1,900; an explicit
#: bits with a tiny t can ask for astronomically many, and is refused.
_MAX_PANELS = 10**6


class Method(enum.Enum):
    """How a theta value was produced."""

    DIRECT = "direct"
    ASYMPTOTIC = "asymptotic"
    SERIES_RHO1 = "series-rho1"


@dataclass(frozen=True)
class EvalResult:
    """A theta value plus provenance: method, precision, self-consistency."""

    theta: float
    method: Method
    precision_used_bits: int
    error_estimate: float


def required_bits(t: float) -> int:
    """Working precision needed at width t: ceil(pi^2/(2t) * log2 e) + 64.

    The first term is the cancellation budget dictated by the e^(pi^2/(2t))
    prefactor; 64 guard bits cover quadrature and round-off. Monotone
    decreasing in t.  Raises PrecisionOverflowError where the count is beyond
    the double range (t below about 3.96e-308), far above any ceiling.
    """
    return _required_bits(positive_real(t, "t"))


def _required_bits(t: float) -> int:
    budget = math.pi**2 / (2.0 * t) * math.log2(math.e)
    if budget == math.inf:
        exact = Fraction(math.pi**2 / 2.0 * math.log2(math.e)) / Fraction(t)
        ceiling = _bits_ceiling()
        raise PrecisionOverflowError(
            f"t={t!r} needs more than 10^308 bits of working precision, above the "
            f"ceiling of {ceiling}",
            required_bits=math.ceil(exact) + 64,
            ceiling_bits=ceiling,
        )
    return int(math.ceil(budget)) + 64


def _bits_ceiling() -> int:
    raw = os.environ.get("HW_MAX_BITS")
    if raw is None:
        return DEFAULT_BITS_CEILING
    try:
        ceiling = int(raw)
    except ValueError:
        raise DomainError(f"HW_MAX_BITS must be an integer, got {raw!r}") from None
    if ceiling < 64:
        raise DomainError(f"HW_MAX_BITS must be >= 64, got {ceiling}")
    return ceiling


_gl_cache: dict = {}  # (n, prec) -> [(node, weight)] as raw libmp values
_gl_held: dict = {}  # n -> _gl_solve's (wp, xs, ws) at the highest wp yet

_RND = round_nearest  # the rounding mode of mp, and so of every mpf operator


def _legendre(n: int, x: tuple, wp: int):
    """(P_n(x), P_n'(x)) for a raw libmp x, each step rounded to wp bits as the
    mpf expressions ((2k-1)*x*p1 - (k-1)*p0)/k and n*(x*p1 - p0)/(x*x - 1) are."""
    p0, p1 = fone, x
    for k in range(2, n + 1):
        p0, p1 = p1, mpf_div(
            mpf_sub(
                mpf_mul(mpf_mul_int(x, 2 * k - 1, wp, _RND), p1, wp, _RND),
                mpf_mul_int(p0, k - 1, wp, _RND),
                wp,
                _RND,
            ),
            from_int(k),
            wp,
            _RND,
        )
    dp = mpf_div(
        mpf_mul_int(mpf_sub(mpf_mul(x, p1, wp, _RND), p0, wp, _RND), n, wp, _RND),
        mpf_sub(mpf_mul(x, x, wp, _RND), fone, wp, _RND),
        wp,
        _RND,
    )
    return p1, dp


def _float_root(n: int, i: int) -> float:
    """The i-th largest root of P_n by Newton in double precision.

    The same recurrence as _legendre, from the Chebyshev guess; for odd n the
    middle root is 0, which the recurrence holds exactly.
    """
    if 2 * i + 1 == n:
        return 0.0
    x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
    for _ in range(100):
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dx = p1 / (n * (x * p1 - p0) / (x * x - 1.0))
        x -= dx
        if abs(dx) < 1e-12:  # the error left is about n^2 dx^2: rounding only
            break
    return x


def _newton_root(n: int, x: tuple, x_prec: int, wp: int) -> tuple:
    """Root of P_n at wp bits by Newton from x, a raw libmp root solved at
    x_prec bits.

    A step about doubles the correct bits, less log2 |P''/(2P')| < 2 log2 n
    and the recurrence's rounding; a guard of 2 log2 n + 8 bits covers both.
    So the steps run at rising precisions, each twice the last less the
    guard, and end at wp.  Steps at wp repeat until the correction is below
    2^-(wp/2 + log2 n), so that its square times |P''/(2P')| is below wp's
    rounding; after the rising steps that is the first step at wp.
    """
    guard = 2 * n.bit_length() + 8
    precs = [wp]
    while precs[-1] > 2 * max(x_prec - guard, guard):
        precs.append(precs[-1] // 2 + guard)
    tol = from_man_exp(1, -(wp // 2 + n.bit_length()))
    for p in precs[:0:-1] + [wp] * 100:
        p1, dp = _legendre(n, x, p)
        dx = mpf_div(p1, dp, p, _RND)
        x = mpf_sub(x, dx, p, _RND)
        if p == wp and mpf_lt(mpf_abs(dx), tol):
            break
    return x


def _gl_solve(n: int, wp: int, held: tuple | None) -> tuple:
    """(wp, xs, ws): the ceil(n/2) nonnegative roots of P_n, largest first,
    and their Gauss-Legendre weights, as raw libmp values at wp bits.

    The roots start from `held`, an earlier solve at fewer bits, when there
    is one, and from _float_root otherwise.
    """
    xs, ws = [], []
    for i in range((n + 1) // 2):
        if held is None:
            x = _newton_root(n, from_float(_float_root(n, i)), 53, wp)
        else:
            x = _newton_root(n, held[1][i], held[0], wp)
        _, dp = _legendre(n, x, wp)
        # 2 / ((1 - x*x) * dp * dp)
        denom = mpf_mul(
            mpf_mul(mpf_sub(fone, mpf_mul(x, x, wp, _RND), wp, _RND), dp, wp, _RND),
            dp,
            wp,
            _RND,
        )
        xs.append(x)
        ws.append(mpf_rdiv_int(2, denom, wp, _RND))
    return wp, xs, ws


def _gl_nodes(n: int, prec: int):
    """Gauss-Legendre nodes and weights on [-1, 1] at `prec` bits, cached.

    Nodes and weights are held at prec + 30 bits.  Each panel order n is
    solved once per process, at the highest prec + 30 yet requested: Newton
    on the Legendre three-term recurrence for the ceil(n/2) nonnegative
    roots only, seeded by a double-precision Newton and run at doubling
    precision (_newton_root).  A request at no more bits rounds that solve
    to prec + 30 bits; one above it refines the held roots, normally with a
    single Newton step.  The negative half is the exact mirror (mpf_neg, no
    rounding) and the middle node of odd n is 0.  Every (n, prec) keeps its
    own entry, so a repeated request is one lookup.  Returns (node, weight)
    pairs of raw libmp values, in decreasing order of node.
    """
    key = (n, prec)
    cached = _gl_cache.get(key)
    if cached is not None:
        return cached
    wp = prec + 30
    held = _gl_held.get(n)
    if held is None or held[0] < wp:
        held = _gl_held[n] = _gl_solve(n, wp, held)
    _, xs, ws = held
    xs = [mpf_pos(x, wp, _RND) for x in xs]
    ws = [mpf_pos(w, wp, _RND) for w in ws]
    m = n // 2  # positive roots; xs[m] is the middle node 0 when n is odd
    xs += [mpf_neg(x) for x in reversed(xs[:m])]
    ws += ws[:m][::-1]
    _gl_cache[key] = list(zip(xs, ws))
    return _gl_cache[key]


def _truncation_cap(r: float, t: float, bits: int) -> float:
    """xi beyond which e^(-r cosh xi - xi^2/(2t)) is below the bit budget."""
    budget = bits * math.log(2.0) + 40.0
    # r*cosh(hi) alone already exceeds the budget at this hi
    hi = max(1.0, math.log(2.0 * (budget + 1.0) / r) + 1.0)
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if r * math.cosh(mid) + mid * mid / (2.0 * t) < budget:
            lo = mid
        else:
            hi = mid
    return hi


def _panel_count(r: float, t: float, bits: int) -> int:
    """Panels of width t up to the truncation cap, ceil(xi_cap/t) + 1, or
    DomainError when that is above _MAX_PANELS."""
    widths = _truncation_cap(r, t, bits) / t
    if widths + 1.0 > _MAX_PANELS:
        raise DomainError(
            f"theta(r={r!r}, t={t!r}) at {bits} bits needs about {widths + 1.0:.3g} "
            f"quadrature panels, above the cap of {_MAX_PANELS}"
        )
    return int(math.ceil(widths)) + 1


def _integrate_panels(r: float, t: float, bits: int):
    """Panel-by-panel quadrature; returns (theta as mpf, signed panel list).

    Exposed separately so tests can inspect the alternation of consecutive
    half-period contributions.  The panel sums run on raw libmp values at
    `bits` with round-to-nearest; each step is the libmp call, in the same
    order, that the corresponding mpf expression (noted in the comments)
    makes under mp.workprec(bits), so the panels are the mpf results to the
    bit.  The sine of a phase offset xi - a that this call has already met
    is looked up, not recomputed (module docstring).
    """
    prec = bits
    rr = from_float(r, prec, _RND)
    tt = from_float(t, prec, _RND)
    nodes = _gl_nodes(_PANEL_POINTS, bits)
    kmax = _panel_count(r, t, bits)
    # envelope maximum: cap of the Gaussian-free stationary points
    peak = max(1.0 / math.sqrt(r), math.asinh(1.0 / r))
    # mpf(2) ** -(bits // 2) * mpf(_TAIL_TOLERANCE), exact
    thresh_scale = mpf_shift(from_float(_TAIL_TOLERANCE), -(bits // 2))
    pi = mpf_pi(prec, _RND)
    e = mpf_e(prec, _RND)
    # mp.e ** y is mpf_pow, i.e. exp(y * log(e)) with log(e) at prec + 10 bits;
    # that log is the same for every y, so it is taken once here
    log_e = mpf_log(e, prec + 10, _RND)
    two_t = mpf_mul_int(tt, 2, prec, _RND)

    def damped(xi, cosh):
        """mp.e ** (-xi * xi / (2 * tt) - rr * cosh(xi))"""
        y = mpf_sub(
            mpf_div(mpf_mul(mpf_neg(xi), xi, prec, _RND), two_t, prec, _RND),
            mpf_mul(rr, cosh, prec, _RND),
            prec,
            _RND,
        )
        if y[2] >= -1:  # integer or half-integer y: mpf_pow's exact-power route
            return mpf_pow(e, y, prec, _RND)
        return mpf_exp(mpf_mul(y, log_e), prec, _RND)

    total = fzero
    panels = []
    half = mpf_div(tt, from_int(2), prec, _RND)
    # half * x does not depend on the panel
    nodes = [(mpf_mul(half, x, prec, _RND), w) for x, w in nodes]
    # sin(pi * off / tt) by the raw offset off = xi - a, for this call only:
    # the offsets repeat across panels, each a rounding of one of a few values
    phase = {}
    k = 0
    while k < kmax:
        a = mpf_mul_int(tt, k, prec, _RND)
        mid = mpf_add(a, half, prec, _RND)
        acc = fzero
        for hx, w in nodes:
            # xi = mid + half * x
            xi = mpf_add(mid, hx, prec, _RND)
            # sin(pi * (xi - a) / tt): local phase, exact zeros
            off = mpf_sub(xi, a, prec, _RND)
            osc = phase.get(off)
            if osc is None:
                osc = phase[off] = mpf_sin(
                    mpf_div(mpf_mul(pi, off, prec, _RND), tt, prec, _RND), prec, _RND
                )
            cosh, sinh = mpf_cosh_sinh(xi, prec, _RND)
            # acc += w * damped * sinh(xi) * osc
            term = mpf_mul(
                mpf_mul(mpf_mul(w, damped(xi, cosh), prec, _RND), sinh, prec, _RND),
                osc,
                prec,
                _RND,
            )
            acc = mpf_add(acc, term, prec, _RND)
        sign = -1 if (k % 2) else 1
        # sign * half * acc
        contribution = mpf_mul(mpf_mul_int(half, sign, prec, _RND), acc, prec, _RND)
        panels.append(contribution)
        total = mpf_add(total, contribution, prec, _RND)
        k += 1
        edge = mpf_mul_int(tt, k, prec, _RND)
        if to_float(edge, rnd=_RND) > peak + t:
            # envelope = mp.e ** (...) * mp.sinh(edge), as at the nodes
            cosh, sinh = mpf_cosh_sinh(edge, prec, _RND)
            envelope = mpf_mul(damped(edge, cosh), sinh, prec, _RND)
            if mpf_lt(envelope, mpf_mul(thresh_scale, mpf_abs(total), prec, _RND)):
                break
    with mp.workprec(bits):
        rr = mp.mpf(r)
        tt = mp.mpf(t)
        prefactor = rr / mp.sqrt(2 * mp.pi**3 * tt) * mp.e ** (mp.pi**2 / (2 * tt))
        return prefactor * mp.make_mpf(total), [mp.make_mpf(p) for p in panels]


def theta_direct(r: float, t: float, bits: int | None = None) -> EvalResult:
    """Evaluate theta(r, t) by extended-precision panel quadrature.

    The working precision is `bits`, an integer >= 64, or required_bits(t)
    when bits is None; either way it must not exceed the ceiling (4096 bits
    by default, HW_MAX_BITS to change).  The returned error_estimate is the
    relative difference against a rerun at bits - 32 (at least 64), a direct
    measure of whether the precision budget sufficed for the rounding; the
    rerun runs in a forked child beside the full run where it can (see the
    module docstring).  Raises DomainError where theta is not a normal double,
    and, before any quadrature, where the run would need more than
    _MAX_PANELS panels of width t.
    """
    r = positive_real(r, "r")
    t = positive_real(t, "t")
    if bits is None:
        bits = _required_bits(t)
    else:
        try:
            integral = 64 <= bits < math.inf and bits == int(bits)
        except TypeError:  # a str, say
            integral = False
        if not integral:
            raise DomainError(f"bits must be an integer >= 64, got {bits!r}")
    bits = int(bits)
    ceiling = _bits_ceiling()
    if bits > ceiling:
        raise PrecisionOverflowError(
            f"theta(r={r!r}, t={t!r}) needs {bits} bits of working precision, "
            f"above the ceiling of {ceiling} (raise HW_MAX_BITS to allow)",
            required_bits=bits,
            ceiling_bits=ceiling,
        )
    _panel_count(r, t, bits)  # refuse before any quadrature or fork
    check_bits = max(64, bits - 32)
    # the serial runs' node requests, in their order, before any fork: the
    # child then solves nothing, and the caches here end as the serial code
    # leaves them
    _gl_nodes(_PANEL_POINTS, bits)
    _gl_nodes(_PANEL_POINTS, check_bits)
    value, check = _run_beside_check(r, t, bits, check_bits)
    theta = normal_double(float(value), "theta(r={!r}, t={!r})", r, t)
    with mp.workprec(64):
        err = float(abs(value - check) / abs(value))
    return EvalResult(
        theta=theta,
        method=Method.DIRECT,
        precision_used_bits=bits,
        error_estimate=err,
    )


def _fork_check(r: float, t: float, bits: int):
    """Fork a child that computes _integrate_panels(r, t, bits) and writes its
    value's raw libmp tuple to a pipe; returns (pid, the pipe's read end as a
    file), or None where a fork is missing, fails, is unsafe (a second live
    thread), or leaves a child that cannot be waited for (SIGCHLD ignored:
    the kernel reaps it at exit)."""
    if (
        not hasattr(os, "fork")
        or threading.active_count() > 1
        or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
    ):
        return None
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        code = 1
        try:
            value, _ = _integrate_panels(r, t, bits)
            data = b"%d %d %d %d\n" % value._mpf_
            while data:
                data = data[os.write(wfd, data):]
            code = 0
        finally:
            os._exit(code)  # flushes nothing inherited, runs no exit handler
    os.close(wfd)
    return pid, open(rfd, "rb")


def _run_beside_check(r: float, t: float, bits: int, check_bits: int):
    """(value, check): the full run at bits and the self-check at check_bits.
    The check comes from a forked child running at the same time, or is run
    here after the full run where no child could run or it failed (nonzero
    exit, short read)."""
    child = _fork_check(r, t, check_bits)
    if child is None:
        value, _ = _integrate_panels(r, t, bits)
    else:
        pid, pipe = child
        with pipe:
            try:
                value, _ = _integrate_panels(r, t, bits)
                data = pipe.read()
                _, status = os.waitpid(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
        fields = data.split()
        if status == 0 and data.endswith(b"\n") and len(fields) == 4:
            sign, man, exp, bc = map(int, fields)
            return value, mp.make_mpf((sign, MPZ(man), exp, bc))
    check, _ = _integrate_panels(r, t, check_bits)
    return value, check
