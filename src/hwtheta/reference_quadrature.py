"""Direct extended-precision evaluation of the defining oscillatory integral.

The object computed here is

    theta(r, t) = r/sqrt(2 pi^3 t) * e^(pi^2/(2t))
                  * Int_0^inf e^(-xi^2/(2t) - r cosh xi) sinh(xi) sin(pi xi/t) dxi.

The integral is exponentially small while the prefactor carries
e^(pi^2/(2t)), so the quadrature runs in extended precision (mpmath).  The
integrand peaks near e^(-rho/t), rho = r t, and the integral is about
e^(-F(rho)/t), F the saddle exponent, so the panels cancel about
max(pi^2/2, F - rho)/t nats.  Every run that sizes its own precision,
theta_direct's default and measure_vartheta's, takes that many bits and 64
more from one rule, _cancellation_bits.  The scheme (not rigorous: the
24-point panel rule is 2.8e-6 off theta at (r, t) = (0.2, 10), where
error_estimate reads 1.8e-19):

* sin(pi xi/t) vanishes exactly at xi = k t, so each panel [k t, (k+1) t]
  holds one sign-definite half-period and a fixed-order Gauss-Legendre rule
  per panel converges geometrically; within panel k the phase is taken
  locally, (-1)^k sin(pi (xi - k t)/t), so it never degrades at large xi/t;
* the envelope decays like e^(-r cosh xi), so the panels end where
  r (cosh xi - 1) + xi^2/(2t) reaches a budget counted under the envelope's
  floor e^-r, and the sum stops once the envelope at a panel edge is below
  _TAIL_TOLERANCE 2^-(bits/2) of the partial sum.

Results surface as doubles.  A theta that is not a positive normal double is
refused with DomainError, as is a run that would sum more than _MAX_PANELS
panels.  error_estimate is the relative difference against a rerun 32 bits
below the full run (at least 64); both runs sum the same panels, so it
measures rounding only, not the panel rule's error nor a tail the loop
stopped short of.

Two loops sum the panels.  theta_direct's runs take the mpf loop
(_panel_terms): each step is the libmp call that the equivalent mpf
expression makes under mp.workprec, with the same precision, rounding and
order, so every panel is the mpf result to the bit, as error_estimate, in
the rerun's last bits, needs (at (r, t) = (2, 0.5) mp.exp in place of
mp.e ** y moves it from 7.138e-19 to 1.357e-18, folding sin into the weights
to 2.850e-19).  measure_vartheta reads theta only as a double, and its run
takes the fixed-point loop (_fixed_terms) below.

Both loops take a node's r-free values, -xi^2/(2t), cosh xi and sinh xi (one
mpf_cosh_sinh) and the phase sine, from _node_values; they depend only on
(t, panel points, bits, k).  The phase depends on the panel only through the
roundings of a = k t, mid = a + t/2 and xi = mid + (t/2) x_j, so a run takes
one sine per distinct raw offset xi - a and looks up the rest: 57 sines for
144 nodes at (4, 0.5, 79 bits), 90 for 1,776 at (5, 0.05, 266 bits).  The
key is the offset, not the node, whose offset's rounding can differ between
panels by an ulp.

The fixed-point loop holds, per panel, G = -xi^2/(2t), C = cosh xi and
Q = (w sinh xi) osc at each node and the edge's three values as the integers
nearest 2^FT times the libmp values, FT = bits + 40.  At each node it forms
n, u = divmod(G - (R C >> FT), ln 2 at FT bits), R = r at FT bits, then e^u
at wp = bits + 14 bits by a fixed-point exponential that reads three tables
of 256 powers of e and sums a short Taylor series (_exp_kernel, within 1.04
units of 2^-wp), and adds 2^n e^u Q to an integer accumulator whose unit is
2^-80 of the summed panels' estimate (_fixed_scale), formed from an
estimate of theta that the caller hands in.  The accumulator's truncations
come to at most 2^-64 of that estimate, the exponent's, the exponential's
and Q's to 2^-71 of theta (_fixed_terms states the bound); measure_vartheta
hands in the leading term, so vartheta carries 2^-64 absolute.  Otherwise
the run rounds as the mpf loop does.  The tail test's envelope is the mpf
loop's, from the edge's values, exact at FT bits, but the test decides from
a float estimate of its log, formed from the edge's integers, and forms the
envelope only where that estimate lies within a proved margin of the
threshold (_add_panels): it stops where the mpf loop's test stops.

The bound |vartheta| <= t/70 is checked by sweeping rho at fixed t, and
verify-bound's grid runs six of its seven rho at each t at the same bits,
so the process keeps a node table of the fixed-point loop's integers per
key (t, panel points, bits): a run reads each panel's integers from its
key's table, or computes them and stores there the list it sums.  They are
the same integers either way, so no result depends on the tables.  At most
_NODE_TABLES tables are kept, the least recently used dropped, and as many
exponentials' tables, per wp.  The mpf loop reads no table.

measure_vartheta's run is one serial quadrature (_theta_fixed).
theta_direct's rerun depends only on its arguments, so it runs in a forked
child beside the full run without moving a bit (_in_child gives the
details).  The child pickles the rerun's mpf theta into a pipe that only it
writes, and leaves through os._exit, flushing no inherited buffer.  The
full run's nodes are requested before the fork, so the child's nodes round
the same solve as the serial code's do.  Where no child runs (among other
cases, where a second thread is alive: a fork copies only the calling
thread) or it fails, the rerun runs here after the full run, in the same
loop, to the same bits.

The Gauss-Legendre nodes and weights are held at 30 guard bits above the
panel precision, and every product with them is rounded back to that
precision, so they need only be right in those guard bits.  Each order is
held solved at the highest precision yet requested, and a run rounds that
solve to its own precision (mpf_pos) where it builds its node values: the
nodes at a precision are a rounding of the held solve, and the panels equal
those of the tests' mpf loop, which solves per (order, precision), to the
bit.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
from collections import OrderedDict
from fractions import Fraction
from functools import partial

import mpmath as mp
from mpmath.libmp import (
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
from mpmath.libmp.libelefun import ln2_fixed

from . import saddle_geometry as sg
from ._result import EvalResult, Method
from .errors import DomainError, PrecisionOverflowError, normal_double, positive_real, whole_number

__all__ = [
    "DEFAULT_BITS_CEILING",
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

#: The tail test decides from float logs where they lie more than
#: _SCREEN_SLACK (|log threshold| + bits) nats apart (_add_panels).
_SCREEN_SLACK = 2.0**-30

_LN2 = math.log(2.0)

#: Most panels of width t that one run may sum.  Default bits keep t above
#: about 1.7e-3, where no run needs more than about 1,900; an explicit
#: bits with a tiny t can ask for astronomically many, and is refused.
_MAX_PANELS = 10**6


def _required_bits(t: float, excess: float = 0.0) -> int:
    """ceil((pi^2/2 + excess)/t * log2 e) + 64: the bits that cancel the
    e^(pi^2/(2t)) prefactor, and excess/t more in its exponent, with 64 guard
    bits.  Monotone decreasing in t.  Raises PrecisionOverflowError where the
    count is beyond the double range (t below about 3.96e-308 at excess 0),
    far above any ceiling."""
    # (pi^2 + 2 excess)/(2t) rounds as (pi^2/2 + excess)/t wherever 2t is finite
    budget = (math.pi**2 + 2.0 * excess) / (2.0 * t) * math.log2(math.e)
    if budget == math.inf:
        exact = Fraction((math.pi**2 / 2.0 + excess) * math.log2(math.e)) / Fraction(t)
        ceiling = _bits_ceiling()
        raise PrecisionOverflowError(
            f"t={t!r} needs more than 10^308 bits of working precision, above the "
            f"ceiling of {ceiling}",
            required_bits=math.ceil(exact) + 64,
            ceiling_bits=ceiling,
        )
    return int(math.ceil(budget)) + 64


def _cancellation_bits(sd: sg.SaddleData, t: float) -> int:
    """The working precision of every oracle run that sizes its own bits:
    ceil(max(pi^2/2, F - rho)/t * log2 e) + 64 at rho = sd.rho, the panels'
    cancellation (module docstring) and 64 guard bits, never below the
    prefactor's _required_bits(t)."""
    return _required_bits(t, max(0.0, sd.F - sd.rho - sg._HALF_PI_SQ))


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


_gl_held: dict = {}  # n -> _gl_solve's (wp, xs, ws) at the highest wp yet
_exp_kernels: OrderedDict = OrderedDict()  # wp -> _exp_kernel(wp), least recently used first

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


def _newton_root(n: int, seed: float, wp: int) -> tuple:
    """Root of P_n at wp bits by Newton from seed, a root in double precision
    (_float_root).

    A step about doubles the correct bits, less log2 |P''/(2P')| < 2 log2 n
    and the recurrence's rounding; a guard of 2 log2 n + 8 bits covers both.
    So the steps run at rising precisions, each twice the last less the
    guard, and end at wp.  Steps at wp repeat until the correction is below
    2^-(wp/2 + log2 n), so that its square times |P''/(2P')| is below wp's
    rounding; after the rising steps that is the first step at wp.
    """
    guard = 2 * n.bit_length() + 8
    x = from_float(seed)
    precs = [wp]
    while precs[-1] > 2 * max(53 - guard, guard):
        precs.append(precs[-1] // 2 + guard)
    tol = from_man_exp(1, -(wp // 2 + n.bit_length()))
    for p in precs[:0:-1] + [wp] * 100:
        p1, dp = _legendre(n, x, p)
        dx = mpf_div(p1, dp, p, _RND)
        x = mpf_sub(x, dx, p, _RND)
        if p == wp and mpf_lt(mpf_abs(dx), tol):
            break
    return x


def _gl_solve(n: int, wp: int) -> tuple:
    """(wp, xs, ws): the ceil(n/2) nonnegative roots of P_n, largest first,
    and their Gauss-Legendre weights, as raw libmp values at wp bits."""
    xs, ws = [], []
    for i in range((n + 1) // 2):
        x = _newton_root(n, _float_root(n, i), wp)
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
    """Gauss-Legendre nodes and weights on [-1, 1] at prec + 30 bits.

    Each panel order n is held solved at the highest prec + 30 yet
    requested: Newton on the Legendre three-term recurrence for the
    ceil(n/2) nonnegative roots only, seeded by a double-precision Newton
    and run at doubling precision (_newton_root).  A request at no more bits
    rounds that solve to prec + 30 bits; one above it solves again and is
    held in its place.  The negative half is the exact mirror (mpf_neg, no
    rounding) and the middle node of odd n is 0.  Returns (node, weight)
    pairs of raw libmp values, in decreasing order of node.
    """
    wp = prec + 30
    held = _gl_held.get(n)
    if held is None or held[0] < wp:
        held = _gl_held[n] = _gl_solve(n, wp)
    _, xs, ws = held
    xs = [mpf_pos(x, wp, _RND) for x in xs]
    ws = [mpf_pos(w, wp, _RND) for w in ws]
    m = n // 2  # positive roots; xs[m] is the middle node 0 when n is odd
    xs += [mpf_neg(x) for x in reversed(xs[:m])]
    ws += ws[:m][::-1]
    return list(zip(xs, ws))


#: Most node tables, and most exponentials' tables, one process keeps; the
#: least recently used goes first.  verify-bound's default 7 x 3 grid meets 6
#: keys of each.
_NODE_TABLES = 8

_node_tables: OrderedDict = OrderedDict()  # (t, n, bits) -> {k: panel's integers}
_tables_lock = threading.Lock()  # one caller at a time reads or moves a key of either


def _recent(cache: OrderedDict, key, make):
    """cache[key], stored from make() where missing, as the most recently
    used entry; past _NODE_TABLES entries the least recently used goes."""
    with _tables_lock:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            return value
        value = cache[key] = make()
        if len(cache) > _NODE_TABLES:
            cache.popitem(last=False)
        return value


def _node_table(t: float, bits: int) -> dict:
    """The node table of a fixed-point run at (t, _PANEL_POINTS, bits), a
    dict from panel index to the panel's integers (_fixed_terms), which the
    runs fill as they go; a new key gets an empty one."""
    return _recent(_node_tables, (t, _PANEL_POINTS, bits), dict)


def _fixed(value: tuple, frac: int) -> int:
    """The raw libmp value as the integer nearest value * 2^frac (ties away
    from 0)."""
    sign, man, exp, _ = value
    shift = exp + frac
    n = int(man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1)
    return -n if sign else n


def _truncation_cap(r: float, t: float, bits: int) -> float:
    """xi beyond which e^(-r cosh xi - xi^2/(2t)) is bits ln 2 + 40 nats
    below its floor e^-r at xi = 0: an absolute budget lies wholly below a
    large-r envelope and caps it at 0.  r (cosh xi - 1) is taken as
    2 r sinh(xi/2)^2 to keep its digits where r is far above the budget."""
    budget = bits * math.log(2.0) + 40.0
    # r*(cosh(hi) - 1) alone already exceeds the budget at the first hi, and
    # hi^2/(2t) alone reaches it at the second
    hi = min(
        max(1.0, math.log(2.0 * (budget + r + 1.0) / r) + 1.0),
        math.sqrt(2.0 * budget * t),
    )
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles: no bisection moves hi
            return hi
        if 2.0 * r * math.sinh(0.5 * mid) ** 2 + mid * mid / (2.0 * t) < budget:
            lo = mid
        else:
            hi = mid


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


def _envelope_peak(r: float) -> float:
    """The envelope's maximum: cap of the Gaussian-free stationary points.
    The tail test reads only panel edges beyond peak + t."""
    return max(1.0 / math.sqrt(r), math.asinh(1.0 / r))


def _node_values(t: float, bits: int):
    """(tt, half, nodes, values, edge_values): the r-free part of a run at
    (t, bits), as raw libmp values at bits.

    tt is t, half is t/2 and nodes the [(half * x, w)] of _gl_nodes.
    values(k) is panel k's r-free values at each node, flat: -xi^2/(2t),
    cosh xi, sinh xi and the phase sine; edge_values(edge) the first three
    at an edge.  Each step is the libmp call, in the same order, that the
    corresponding mpf expression (noted in the comments) makes under
    mp.workprec(bits).  The sine of a phase offset xi - a that values has
    already met is looked up, not recomputed (module docstring).
    """
    prec = bits
    tt = from_float(t, prec, _RND)
    pi = mpf_pi(prec, _RND)
    two_t = mpf_mul_int(tt, 2, prec, _RND)
    half = mpf_div(tt, from_int(2), prec, _RND)
    # half * x does not depend on the panel
    nodes = [(mpf_mul(half, x, prec, _RND), w) for x, w in _gl_nodes(_PANEL_POINTS, bits)]
    # sin(pi * off / tt) by the raw offset off = xi - a: the offsets repeat
    # across panels, each a rounding of one of a few values
    phase = {}

    def edge_values(edge):
        # -edge * edge / (2 * tt), cosh(edge), sinh(edge)
        gauss = mpf_div(mpf_mul(mpf_neg(edge), edge, prec, _RND), two_t, prec, _RND)
        return [gauss, *mpf_cosh_sinh(edge, prec, _RND)]

    def values(k):
        a = mpf_mul_int(tt, k, prec, _RND)
        mid = mpf_add(a, half, prec, _RND)
        flat = []
        for hx, _ in nodes:
            # xi = mid + half * x
            xi = mpf_add(mid, hx, prec, _RND)
            # sin(pi * (xi - a) / tt): local phase, exact zeros
            off = mpf_sub(xi, a, prec, _RND)
            osc = phase.get(off)
            if osc is None:
                osc = phase[off] = mpf_sin(
                    mpf_div(mpf_mul(pi, off, prec, _RND), tt, prec, _RND), prec, _RND
                )
            # -xi * xi / (2 * tt)
            gauss = mpf_div(mpf_mul(mpf_neg(xi), xi, prec, _RND), two_t, prec, _RND)
            flat += (gauss, *mpf_cosh_sinh(xi, prec, _RND), osc)
        return flat

    return tt, half, nodes, values, edge_values


def _damping(r: float, bits: int):
    """The function taking (gauss, cosh) at a node or edge to
    mp.e ** (gauss - rr * cosh) as the mpf loop forms it at bits."""
    prec = bits
    rr = from_float(r, prec, _RND)
    e = mpf_e(prec, _RND)
    # mp.e ** y is mpf_pow, i.e. exp(y * log(e)) with log(e) at prec + 10 bits;
    # that log is the same for every y, so it is taken once here
    log_e = mpf_log(e, prec + 10, _RND)

    def damped(gauss, cosh):
        y = mpf_sub(gauss, mpf_mul(rr, cosh, prec, _RND), prec, _RND)
        if y[2] >= -1:  # integer or half-integer y: mpf_pow's exact-power route
            return mpf_pow(e, y, prec, _RND)
        return mpf_exp(mpf_mul(y, log_e), prec, _RND)

    return damped


def _panel_terms(r: float, t: float, bits: int, kmax: int):
    """The mpf loop's panels k < kmax, in order: yields each panel's signed
    contribution, a raw libmp value at `bits`, with the log of the envelope
    at its right edge (k + 1) t and a function returning that envelope, as
    _add_panels reads them.

    The envelope bounds the tail only past the envelope's peak, so for an
    edge not beyond peak + t both are None and stop no sum.  Each step is the
    libmp call, in the same order, that the corresponding mpf expression
    (noted in the comments) makes under mp.workprec(bits), so every value is
    the mpf result to the bit and depends only on (r, t, bits, k).
    """
    prec = bits
    tt, half, nodes, values, edge_values = _node_values(t, bits)
    damped = _damping(r, bits)
    peak = _envelope_peak(r)
    for k in range(kmax):
        it = iter(values(k))
        acc = fzero
        for (_, w), gauss, cosh, sinh, osc in zip(nodes, it, it, it, it):
            # acc += w * mp.e ** (-xi * xi / (2 * tt) - rr * cosh(xi)) * sinh(xi) * osc
            term = mpf_mul(
                mpf_mul(mpf_mul(w, damped(gauss, cosh), prec, _RND), sinh, prec, _RND),
                osc,
                prec,
                _RND,
            )
            acc = mpf_add(acc, term, prec, _RND)
        sign = -1 if (k % 2) else 1
        # sign * half * acc
        contribution = mpf_mul(mpf_mul_int(half, sign, prec, _RND), acc, prec, _RND)
        edge = mpf_mul_int(tt, k + 1, prec, _RND)
        log_envelope = envelope = None
        if to_float(edge, rnd=_RND) > peak + t:
            # envelope = mp.e ** (...) * mp.sinh(edge), as at the nodes
            gauss, cosh, sinh = edge_values(edge)
            value = mpf_mul(damped(gauss, cosh), sinh, prec, _RND)
            log_envelope, envelope = _log_abs(value), (lambda value=value: value)
        yield contribution, log_envelope, envelope


#: The fixed-point run's fractional bits above the run's bits, FT = bits + 40
#: (_fixed_terms).
_FIXED_GUARD = 40
#: Its exponential's bits above the run's bits, wp = bits + 14.
_EXP_GUARD = 14
#: Its accumulator's resolution, 2^-80 of the summed panels' estimate.
_ACC_GUARD = 80
#: The exponential's tables' bits above wp while they are built.
_EXP_BUILD_GUARD = 20


def _exp_kernel(wp: int):
    """The fixed-point exponential at wp bits: the function taking an
    integer u, 0 <= u < 2^wp ln 2, to an integer within 1.04 of
    2^wp e^(u 2^-wp).

    u's top 24 fractional bits pick e^(j/2^8), e^(j/2^16) and e^(j/2^24)
    from three 256-entry tables held at P = wp + 8 bits, and its other bits,
    v < 2^-24, go to the Taylor polynomial of e^v of degree K, in Horner
    form with the coefficients 1/k! at P bits: K is the least degree whose
    tail, below 2 v^(K+1)/(K+1)!, is below 2^-(P+4).  The four factors'
    product is truncated to P bits after each multiplication and shifted
    right by 8 at the end.  Each table is built from e^(2^-l), by mpf_exp at
    P + _EXP_BUILD_GUARD bits, by 255 products truncated there.

    Error, in units of 2^-P.  A table entry, at least 1, is within 0.51 of
    its value: e^(2^-l) is within 2.5 units of the build precision, the 255
    products add less than 2^12 of them, and the entry is rounded to P bits.
    The polynomial is within 1.07 of 2^P e^v: the coefficients 1/k! for
    k >= 2 round by 1/2, each Horner step truncates by less than 1, and all
    but the last step's errors are scaled by v < 2^-24; the tail adds 1/16.
    So the exact product of the four factors is within
    (3 * 0.51 + 1.07) 2^-P of its own size, under 2^(P+1) because
    e^(u 2^-wp) < 2, so 5.2 units, and the three truncations take off less
    than 3.01 more.  The final shift, by 8 bits, takes off less than one
    unit of 2^-wp: the result is at most 0.03 above 2^wp e^(u 2^-wp) and
    less than 1.04 below it.
    """
    prec = wp + 8
    build = prec + _EXP_BUILD_GUARD
    tables = []
    for level in (8, 16, 24):
        step = _fixed(mpf_exp(from_man_exp(1, -level), build, _RND), build)
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
    # 1/K!, ..., 1/1!, 1/0! at P bits: Horner's order
    top, *coefficients = (
        ((1 << prec) + math.factorial(k) // 2) // math.factorial(k) for k in range(degree, -1, -1)
    )
    low = (1 << (wp - 24)) - 1

    def exp_fixed(u):
        v = (u & low) << 8
        s = top
        for c in coefficients:
            s = c + (v * s >> prec)
        head = t8[u >> (wp - 8)] * t16[u >> (wp - 16) & 255] >> prec
        return (head * t24[u >> (wp - 24) & 255] >> prec) * s >> (prec + 8)

    return exp_fixed


def _fixed_scale(log_total: float, bits: int) -> int:
    """The fractional bits of a fixed-point run's accumulator: _ACC_GUARD
    below e^log_total, the summed panels' estimate, and never finer than
    the products it sums (so every shift into it is a right shift)."""
    return min(
        _ACC_GUARD - math.floor(log_total / math.log(2.0)),
        2 * bits + _FIXED_GUARD + _EXP_GUARD,
    )


def _fixed_terms(r: float, t: float, bits: int, kmax: int, table: dict, scale: int):
    """The fixed-point loop's panels k < kmax, in order, yielded as
    _panel_terms yields them, each summed in integers at `scale` fractional
    bits (module docstring).  A panel's integers are read from `table`, the
    node table of (t, _PANEL_POINTS, bits), where it holds them, or made
    from _node_values' libmp values and stored there: the same integers
    either way; _node_values runs only at a panel the table lacks.

    Error, against the same panels summed exactly from the same libmp
    values.  The exponent is off by at most 2^-(FT+1) (1 + r) from G and C
    (r, a double, is exact for r > 2^(52-FT)), 2^-FT from R C >> FT,
    |n| 2^-FT from ln 2 (|n| < 2^13 for r < 2^11 and bits <= 4096), and
    2^-wp from u >> (FT - wp): 1.0002 2^-wp in all.  The exponential is
    within 1.04 2^-wp of e^u >= 1 (_exp_kernel).  So each term moves by at
    most 2.05 2^-wp = 2^-(bits+12.96) of itself, and Q's rounding,
    2^-(FT+1) with Q > 2^-23 t, adds 2^-(bits+8) for t above 2^-10: in all
    2^-(bits+7) of the summed |p_k|, which the rule sizes bits to keep below
    2^(bits-64) |total|: 2^-71 of theta.  Each node's shift into the
    accumulator drops less than one unit, 2^-scale <= 2^-80 of the
    estimate (a product that the shift would take to 0 is skipped), and a
    panel's sum is scaled by t/2: (t/2) N units over N nodes, 2^-64 of the
    estimate for N <= 2^15 and t <= 2, however far it lies above theta.
    Beyond these the run rounds as the mpf loop does: the r-free values at
    bits, about 2^-bits (|y| + 2 pi k + 8) of each term, y = G - r C at
    panel k; each panel and partial sum at bits; the prefactor, about
    2^-bits (pi^2/(2t) + 8) of theta.

    The tail test's log_envelope at an edge is (G - r C)/2^FT + log S -
    FT ln 2 from the edge's integers, with r C exact to 2^-FT, in floats;
    the envelope it stands for is the mpf loop's, formed from the same
    integers (_fixed_envelope) when _add_panels asks for it.
    """
    prec = bits
    frac = bits + _FIXED_GUARD
    wp = bits + _EXP_GUARD
    tt = from_float(t, prec, _RND)  # tt and half as _node_values rounds them
    half = mpf_div(tt, from_int(2), prec, _RND)
    built = None  # _node_values(t, bits), at the first panel the table lacks
    peak = _envelope_peak(r)
    rr = _fixed(from_float(r), frac)
    r_num, r_den = r.as_integer_ratio()
    r_shift = r_den.bit_length() - 1  # r = r_num / 2^r_shift exactly
    one = 1 << frac
    ln2 = ln2_fixed(frac)
    cut = frac - wp
    base = wp + frac - scale  # >= 0: every exponent n is <= 0
    exp_fixed = _recent(_exp_kernels, wp, partial(_exp_kernel, wp))
    for k in range(kmax):
        edge = mpf_mul_int(tt, k + 1, prec, _RND)
        ints = table.get(k)
        if ints is None:
            if built is None:
                built = _node_values(t, bits)
            _, _, nodes, values, edge_values = built
            # the edge's gauss, cosh, sinh, then gauss, cosh and Q = (w * sinh) * osc at each node
            ints = [_fixed(v, frac) for v in edge_values(edge)]
            it = iter(values(k))
            for (_, w), gauss, cosh, sinh, osc in zip(nodes, it, it, it, it):
                q = mpf_mul(mpf_mul(w, sinh, prec, _RND), osc, prec, _RND)
                ints += (_fixed(gauss, frac), _fixed(cosh, frac), _fixed(q, frac))
            table[k] = ints
        it = iter(ints)
        edge_ints = (next(it), next(it), next(it))
        acc = 0
        for g, c, q in zip(it, it, it):
            # e^(g - r c) = 2^n e^u, 0 <= u < ln 2
            n, u = divmod(g - (rr * c >> frac), ln2)
            shift = base - n
            if shift <= wp + q.bit_length():  # e^u < 2: a larger shift leaves 0
                acc += exp_fixed(u >> cut) * q >> shift
        sign = -1 if (k % 2) else 1
        contribution = mpf_mul(
            mpf_mul_int(half, sign, prec, _RND), from_man_exp(acc, -scale), prec, _RND
        )
        log_envelope = envelope = None
        if to_float(edge, rnd=_RND) > peak + t:
            g, c, s = edge_ints
            try:
                y = (g - (r_num * c >> r_shift)) / one
            except OverflowError:  # G - r C below -2^1024 nats
                y = -math.inf
            log_envelope = y + math.log(s) - frac * _LN2
            envelope = partial(_fixed_envelope, r, bits, frac, edge_ints)
        yield contribution, log_envelope, envelope


def _fixed_envelope(r: float, bits: int, frac: int, edge_ints: tuple) -> tuple:
    """The mpf loop's envelope at an edge, as a raw libmp value at bits,
    from the edge's integers (gauss, cosh, sinh) at frac fractional bits."""
    gauss, cosh, sinh = (from_man_exp(v, -frac) for v in edge_ints)
    return mpf_mul(_damping(r, bits)(gauss, cosh), sinh, bits, _RND)


def _log_abs(value: tuple) -> float:
    """log |value| for a raw libmp value, as a float: -inf at 0, and +-inf
    where its binary exponent lies beyond the doubles."""
    _, man, exp, _ = value
    if not man:
        return -math.inf
    try:
        return math.log(man) + exp * _LN2
    except OverflowError:
        return math.inf if exp > 0 else -math.inf


def _add_panels(terms, bits: int, panels: list) -> tuple:
    """The sum of the contributions of terms, in order, at `bits`, appending
    each to panels, until the tail test stops it: an envelope below
    _TAIL_TOLERANCE * 2^-(bits/2) of |total|.  Where terms is a generator,
    no panel past the stop is computed.

    terms yield (contribution, log_envelope, envelope): envelope() is the
    exact envelope at the panel's right edge, a raw libmp value, and
    log_envelope a float estimate of its log; both are None at an edge the
    test does not read.  The test compares log_envelope with L, the float log
    of the threshold, and forms envelope() and the threshold at bits, as the
    mpf loop always compared them, only where the two logs lie within
    m = _SCREEN_SLACK (|L| + bits) nats, or where L is infinite (a zero
    total) or both logs are; an envelope whose log is -inf, below -2^1023
    nats, stops the sum where L is finite.  Within m each float is within
    2^-49 (|L| + bits + 1000) nats of the log of the value that the exact
    test reads, which is below m/2 for bits >= 64: the float roundings of at
    most four terms, each under |L| + bits + 1000 nats there (log sinh of an
    edge is within 745 nats of 0), the libmp roundings at bits, and G - r C
    to 2^-FT.  So the test stops where the exact test stops.
    """
    # mpf(2) ** -(bits // 2) * mpf(_TAIL_TOLERANCE), exact
    thresh_scale = mpf_shift(from_float(_TAIL_TOLERANCE), -(bits // 2))
    log_scale = math.log(_TAIL_TOLERANCE) - (bits // 2) * _LN2
    total = fzero
    for contribution, log_envelope, envelope in terms:
        panels.append(contribution)
        total = mpf_add(total, contribution, bits, _RND)
        if envelope is None:
            continue
        log_bound = log_scale + _log_abs(total)
        margin = _SCREEN_SLACK * (abs(log_bound) + bits)
        gap = log_envelope - log_bound
        if gap > margin:
            continue
        # where L, or both logs, are infinite, gap or margin is nan or
        # infinite: the exact test decides
        if gap < -margin or mpf_lt(envelope(), mpf_mul(thresh_scale, mpf_abs(total), bits, _RND)):
            break
    return total


def _log_total(r: float, t: float, estimate: float) -> float:
    """log |total|: the summed panels that a theta of `estimate`, a positive
    double, implies, with theta's prefactor r/sqrt(2 pi^3 t) e^(pi^2/(2t))
    taken out."""
    return (
        math.log(estimate)
        - math.log(r)
        + 0.5 * math.log(2.0 * math.pi**3 * t)
        - math.pi**2 / (2.0 * t)
    )


def _theta_of(total: tuple, r: float, t: float, bits: int):
    """theta as mpf: the prefactor r/sqrt(2 pi^3 t) e^(pi^2/(2t)) times the
    summed panels, at `bits`."""
    with mp.workprec(bits):
        rr = mp.mpf(r)
        tt = mp.mpf(t)
        prefactor = rr / mp.sqrt(2 * mp.pi**3 * tt) * mp.e ** (mp.pi**2 / (2 * tt))
        return prefactor * mp.make_mpf(total)


def _integrate_panels(r: float, t: float, bits: int, kmax: int):
    """theta_direct's serial run: the mpf loop over at most kmax panels, in
    this process; returns (theta as mpf, signed panel list).

    Exposed separately so tests can inspect the alternation of consecutive
    half-period contributions.
    """
    panels = []
    terms = _panel_terms(r, t, bits, kmax)
    total = _add_panels(terms, bits, panels)
    return _theta_of(total, r, t, bits), [mp.make_mpf(p) for p in panels]


def _validated(r, t, bits):
    """(r, t, bits, kmax): a run's arguments as theta_direct takes them, bits
    from _cancellation_bits at rho = r t where None (only then is the saddle
    solved), and the run's panel count.

    Refuses, before any quadrature or fork, an r or t that is not a positive
    finite real, a saddle that saddle_data refuses, bits that is not an
    integer >= 64 or is above the ceiling (PrecisionOverflowError), a run of
    more than _MAX_PANELS panels, and a
    run whose last panel edge kmax * t lies past sg._X_MAX, where cosh(xi)
    leaves the double range: there the envelope's exponent has thousands of
    digits, and mpmath hangs on it or overflows (t above about 355 at
    rho = 1).
    """
    r = positive_real(r, "r")
    t = positive_real(t, "t")
    if bits is None:
        bits = _cancellation_bits(sg.saddle_data(r * t), t)
    else:
        bits = whole_number(bits, "bits", 64)
    ceiling = _bits_ceiling()
    if bits > ceiling:
        raise PrecisionOverflowError(
            f"theta(r={r!r}, t={t!r}) needs {bits} bits of working precision, "
            f"above the ceiling of {ceiling} (raise HW_MAX_BITS to allow)",
            required_bits=bits,
            ceiling_bits=ceiling,
        )
    kmax = _panel_count(r, t, bits)
    if kmax * t > sg._X_MAX:
        raise DomainError(
            f"theta(r={r!r}, t={t!r}) needs quadrature panels out to xi = {kmax * t:.6g}, "
            f"past {sg._X_MAX:.6g}, where cosh(xi) leaves the double range"
        )
    return r, t, bits, kmax


def theta_direct(r: float, t: float, bits: int | None = None) -> EvalResult:
    """Evaluate theta(r, t) by extended-precision panel quadrature.

    The working precision is `bits`, an integer >= 64, or, when bits is
    None, the rule's ceil(max(pi^2/2, F(rho) - rho)/t * log2 e) + 64 at
    rho = r t (_cancellation_bits); either way it must not exceed the
    ceiling (4096 bits by default, HW_MAX_BITS to change).  The returned
    error_estimate is the relative difference against a rerun at bits - 32
    (at least 64), run where it can in a forked child beside the full run,
    which sends back the rerun's mpf theta (_in_child).  The estimate sees
    rounding only (module docstring).
    Raises DomainError where theta is not a positive normal double, and,
    before any quadrature, where the saddle is refused or the run would need
    more than _MAX_PANELS panels of width t or panels past asinh(DBL_MAX).
    """
    r, t, bits, kmax = _validated(r, t, bits)
    check_bits = max(64, bits - 32)

    def check():
        return _integrate_panels(r, t, check_bits, _panel_count(r, t, check_bits))[0]

    # the full run's solve, before any fork: the child's nodes round it, as
    # the serial code's do
    _gl_nodes(_PANEL_POINTS, bits)
    with _in_child(check) as checked:
        value, _ = _integrate_panels(r, t, bits, kmax)
        check_value = checked()
    theta = normal_double(float(value), "theta(r={!r}, t={!r})", r, t)
    if theta < 0.0:
        raise DomainError(
            f"theta(r={r!r}, t={t!r}) at {bits} bits is {theta!r}, not a density: "
            f"the run did not resolve it"
        )
    with mp.workprec(64):
        err = float(abs(value - check_value) / abs(value))
    return EvalResult(
        theta=theta,
        method=Method.DIRECT,
        precision_used_bits=bits,
        error_estimate=err,
    )


def _theta_fixed(r: float, t: float, bits: int, estimate: float) -> float:
    """theta(r, t) at `bits` as a double from one serial fixed-point run
    (_fixed_terms) over the key's node table: no rerun, no error estimate,
    and theta_direct's refusals but the negative theta's.  `estimate`, a
    positive double near theta, sets the accumulator (_fixed_scale)."""
    r, t, bits, kmax = _validated(r, t, bits)
    scale = _fixed_scale(_log_total(r, t, estimate), bits)
    terms = _fixed_terms(r, t, bits, kmax, _node_table(t, bits), scale)
    total = _add_panels(terms, bits, [])
    theta = _theta_of(total, r, t, bits)
    return normal_double(float(theta), "theta(r={!r}, t={!r})", r, t)


@contextlib.contextmanager
def _in_child(fn):
    """Run fn in a forked child beside the with block.

    Yields a function that returns fn's value: it reads the child's pickle
    of it and waits for the child, or, where the child failed (a nonzero
    exit status or a pickle cut short), runs fn here.  Where no child runs,
    it yields fn itself, so fn runs here when the block calls for it, after
    this process's own work.  Whatever fn changes in this process's memory
    the child changes in its own copy only, so fn returns what the caller
    should keep.  No child runs where os.fork is missing, where
    os.pipe or os.fork raises OSError (out of file descriptors or
    processes), where a second thread is alive, or where SIGCHLD is ignored
    (the child could not be waited for).  The child writes pickle.dumps(fn())
    to a pipe that only it writes and leaves through os._exit.  A child not
    waited for when the block ends, normally or by an exception,
    KeyboardInterrupt included, is killed and reaped.
    """
    pid = None
    if (
        hasattr(os, "fork")
        and threading.active_count() == 1
        and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN
    ):
        try:
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
        except OSError:  # no pipe (out of descriptors) or no fork: no child
            pass
    if pid is None:
        yield fn
        return
    if pid == 0:
        code = 1
        try:
            data = pickle.dumps(fn())
            while data:
                data = data[os.write(wfd, data):]
            code = 0
        finally:
            os._exit(code)  # flushes nothing inherited, runs no exit handler
    os.close(wfd)
    status = None

    def result():
        nonlocal status
        data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if not status:
            try:
                return pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                pass
        return fn()

    with open(rfd, "rb") as pipe:
        try:
            yield result
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
