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
  locally, (-1)^k sin(pi (xi - k t)/t), so it never degrades at large xi/t
  (measure_vartheta's panels span up to 8 half-periods where a proved
  bound allows, below);
* the envelope decays like e^(-r cosh xi), so the panels end where
  r (cosh xi - 1) + xi^2/(2t) reaches a budget counted under the envelope's
  floor e^-r, and theta_direct's sum stops once the envelope at a panel
  edge is below _TAIL_TOLERANCE 2^-(bits/2) of the partial sum
  (measure_vartheta's stops on a proved tail bound, below).

Results surface as doubles.  A theta that is not a positive normal double is
refused with DomainError, as is a run that would sum more than _MAX_PANELS
panels.  error_estimate is the relative difference against a rerun 32 bits
below the full run (at least 64); both runs sum the same panels, so it
measures rounding only, not the panel rule's error nor a tail the loop
stopped short of.

Two loops sum the panels.  theta_direct's runs take the mpf loop
(_integrate_panels): each step is the libmp call that the equivalent mpf
expression makes under mp.workprec, with the same precision, rounding and
order, so every panel is the mpf result to the bit, as error_estimate, in
the rerun's last bits, needs (at (r, t) = (2, 0.5) mp.exp in place of
mp.e ** y moves it from 7.138e-19 to 1.357e-18, folding sin into the weights
to 2.850e-19).  It forms the envelope at each panel edge past the peak and
compares it with the threshold at bits, exactly.  measure_vartheta reads
theta only as a double, and its run takes the fixed-point loop
(_fixed_terms) below.

Both loops take a node's r-free values, -xi^2/(2t), cosh xi and sinh xi (one
mpf_cosh_sinh) and the phase sine, from _node_values; they depend only on
(t, panel points, bits, k).  The phase depends on the panel only through the
roundings of a = k t, mid = a + t/2 and xi = mid + (t/2) x_j, so a run takes
one sine per distinct raw offset xi - a and looks up the rest: 57 sines for
144 nodes at (4, 0.5, 79 bits), 90 for 1,776 at (5, 0.05, 266 bits).  The
key is the offset, not the node, whose offset's rounding can differ between
panels by an ulp.

The fixed-point loop works in base 2.  Its panel [k t, (k + m) t] spans m
half-periods at n points, (m, n) the first shape of a short ladder,
_SHAPES, fewest nodes per half-period first (8 half-periods at 48, 64, 80
or 96 points, then one at 16, 20 or 24), whose proved Gauss-Legendre error
bound on that panel (_rule_bound: Trefethen's Bernstein-ellipse bound,
with the integrand bounded on the ellipse's box) is at most 2^-72 of the
estimate's summed panels over the panel count kmax; m is cut to
kmax - k at the last edge (_partition).  A run takes that partition only
where every panel up to kmax has a proved shape.  Otherwise it sums
theta_direct's panels throughout, width t at _PANEL_POINTS points, whose
rule bound it does not check.  Where those miss the target, the rule
errors of consecutive width-t panels cancel, and a run that switched to
proved panels partway loses that: it gave vartheta 4.4e57 at
(rho, t) = (0.25, 0.01).  Every certify-grid cell has a proved
partition.  On a scan of rho from 0.05 to 100 and t from 0.005 to 5, the
width-t panels remain where small rho meets small t (rho up to 1 at
t = 0.005, 0.5 at t = 0.01, 0.1 at t = 0.02) and at large t (rho up to 4
at t = 2, every rho at t = 5), where the first panel misses the target at
every shape.  The run holds, per
panel and shape, G' and C', G = -xi^2/(2t) and C = cosh xi times log2 e,
and Q = m (w sinh xi) osc at each node, and the right edge's G and C, as
the integers nearest 2^FT times those values, FT = bits + 40.  At each
node it forms the exponent in bits, y = G' - r C' with r C' exact from
r's 53-bit numerator, splits it into n = y >> FT and x, the fraction's top
wp + 8 bits, wp = bits + 14, forms 2^x at wp bits by a fixed-point 2^x
inlined in the loop, which reads three tables of 256 powers of 2 and sums
a short Taylor series (_exp_kernel), and adds +-2^n 2^x Q to one signed integer accumulator for
the whole run, scaled by t/2 once at the end.  Its unit is 2^-80 of the
summed panels' estimate, formed from an estimate of theta that the caller
hands in, and never finer than the products it sums (_fixed_scale: the cap
follows the run's largest power of 2, 2^-floor(r/ln 2)).  A run whose
capped unit would be coarser than 2^-64 of the estimate is refused, as is
a negative theta.  The series stops at the degree that the product's
p = sig + 4 bits need, the product being within 2^(sig+1) units (2^x within
1.04 units of 2^-wp, plus 2^-(p+4) relative), so the bits that the shift
into the accumulator drops are not computed.  The run stops after the
first panel whose right edge X has e^(G - r C)/r below 2^-72 of the
estimate, which bounds the integral of |integrand| from X on; a run that
reaches its last panel without that is refused.  So, relative to the
estimate's summed panels, the run is within 2^-64 from the accumulator,
2^-72 from the panel rule, 2^-72 from the tail and 2^-65 of theta from the
node terms (2^-68 for t above 1/32), formed at bits as theta_direct forms
them (_fixed_terms states each); measure_vartheta hands in the leading
term, so vartheta carries below 2^-63 absolute.  The rule's part excepts
a run with no proved partition, whose panels carry theta_direct's rule
error, no bound here states; no certify-grid cell is such a run.  The
bounds are computed in doubles with a slack that rounding cannot eat
(_SLACK).

The bound |vartheta| <= t/70 is checked by sweeping rho at fixed t, and
verify-bound's grid runs six of its seven rho at each t at the same bits,
so the process keeps a node table of the fixed-point loop's integers per
key (t, bits): a run reads each panel's integers, under its (k, m, n),
from its key's table, or computes them and stores there the list it sums.
They are the same integers either way, so no result depends on the
tables.  At most
_NODE_TABLES tables are kept, the least recently used dropped, and as many
exponentials' tables, per wp, rule bounds, per t (_partition), and
prefactors' r-free parts, per (t, bits) (_theta_of).  The mpf loop reads
no node table.

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

#: Gauss-Legendre nodes per half-period panel of theta_direct's mpf loop,
#: and of the fixed-point run's panels where it has no proved partition.
#: 24 holds panel truncation near the noise floor even for the sharpest
#: envelopes exercised by the bound grids.
_PANEL_POINTS = 24

#: Scales the dynamic truncation threshold
#: _TAIL_TOLERANCE * |partial sum| * 2^(-bits/2).
_TAIL_TOLERANCE = 0.5

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

_node_tables: OrderedDict = OrderedDict()  # (t, bits) -> {(k, m, n): panel's integers}
_rule_bounds: OrderedDict = OrderedDict()  # t -> {(k, m, n): _rule_bound(t, k, m, n)}
_prefactors: OrderedDict = OrderedDict()  # (t, bits) -> _prefactor_parts(t, bits)
_tables_lock = threading.Lock()  # one caller at a time reads or moves a key of any of them


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
    """The node table of a fixed-point run at (t, bits), a dict from a
    panel's shape (k, m, n), n points on [k t, (k + m) t], to its integers
    (_fixed_terms), which the runs fill as they go; a new key gets an empty
    one."""
    return _recent(_node_tables, (t, bits), dict)


def _fixed(value: tuple, frac: int) -> int:
    """The raw libmp value as the integer nearest value * 2^frac (ties away
    from 0)."""
    sign, man, exp, _ = value
    shift = exp + frac
    n = int(man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1)
    return -n if sign else n


def _times(value: tuple, factor: int, frac: int) -> tuple:
    """The raw libmp value times factor 2^-frac, exactly, as a raw value
    that _fixed reads (its mantissa need not be normalized)."""
    sign, man, exp, _ = value
    return sign, man * factor, exp - frac, None


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


def _node_values(t: float, bits: int, n: int, m: int = 1):
    """(tt, half, nodes, values, edge_values): the r-free part of a run at
    (t, bits) on panels of n points spanning m half-periods, m t wide, as
    raw libmp values at bits.

    tt is t, half is t/2 and nodes the [(reach * x, w)] of
    _gl_nodes(n, bits), reach = m half the panel's half-width (exact for m
    a power of 2).  values(k) is the panel [k t, (k + m) t]'s r-free values
    at each node, flat: -xi^2/(2t), cosh xi, sinh xi and the phase sine;
    edge_values(edge) the first three at an edge.  Each step is the libmp
    call, in the same order, that the corresponding mpf expression (noted
    in the comments) makes under mp.workprec(bits); at m = 1 reach is half,
    so every value is the mpf loop's.  The sine of a phase offset xi - a that
    values has already met is looked up, not recomputed (module
    docstring).
    """
    prec = bits
    tt = from_float(t, prec, _RND)
    pi = mpf_pi(prec, _RND)
    two_t = mpf_mul_int(tt, 2, prec, _RND)
    half = mpf_div(tt, from_int(2), prec, _RND)
    reach = mpf_mul_int(half, m, prec, _RND)
    # reach * x does not depend on the panel
    nodes = [(mpf_mul(reach, x, prec, _RND), w) for x, w in _gl_nodes(n, bits)]
    # sin(pi * off / tt) by the raw offset off = xi - a: the offsets repeat
    # across panels, each a rounding of one of a few values
    phase = {}

    def edge_values(edge):
        # -edge * edge / (2 * tt), cosh(edge), sinh(edge)
        gauss = mpf_div(mpf_mul(mpf_neg(edge), edge, prec, _RND), two_t, prec, _RND)
        return [gauss, *mpf_cosh_sinh(edge, prec, _RND)]

    def values(k):
        a = mpf_mul_int(tt, k, prec, _RND)
        mid = mpf_add(a, reach, prec, _RND)
        flat = []
        for hx, _ in nodes:
            # xi = mid + reach * x
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


#: The fixed-point run's fractional bits above the run's bits, FT = bits + 40
#: (_fixed_terms).
_FIXED_GUARD = 40
#: Its exponential's bits above the run's bits, wp = bits + 14.
_EXP_GUARD = 14
#: Its accumulator's resolution, 2^-80 of the summed panels' estimate.
_ACC_GUARD = 80
#: The coarsest unit a run accepts where the cap binds, 2^-64 of the
#: estimate (_theta_fixed).
_ACC_FLOOR = 64
#: The exponential's tables' bits above wp while they are built.
_EXP_BUILD_GUARD = 20
#: The fixed-point run's panel shapes (m, n), n points on m half-periods,
#: fewest nodes per half-period first: a panel takes the first whose proved
#: rule bound allows it (_partition).
_SHAPES = ((8, 48), (8, 64), (8, 80), (8, 96), (1, 16), (1, 20), (1, 24))
#: The panel rule's and the tail's shares of the estimate's summed panels,
#: 2^-72 each.
_RULE_GUARD = 72
_TAIL_GUARD = 72
#: The rule bound's ellipse reaches at most this far off the real axis in
#: xi, below pi/2 (_rule_bound).
_ELLIPSE_Y = 1.2
#: The most ellipses the rule bound tries per panel and order.
_ELLIPSES = 4
#: The float bounds' slack, relative and in nats (_rule_bound, _fixed_terms).
_SLACK = 2.0**-40


def _exp_kernel(wp: int) -> tuple:
    """The fixed-point 2^x at wp bits, as the data _fixed_terms' node loop
    reads: (t8, t16, t24, by_bits).  With P = wp + 8, the loop takes an
    integer x, 0 <= x < 2^P, and the relative bits p >= 0 it keeps, to

        E = (((t8[i8] t16[i16] >> P) t24[i24] >> P) s) >> (P + 8),

    i8, i16 and i24 the three bytes at the top of x, and s the Horner sum
    over by_bits[min(p, P)] = (c_d, (c_(d-1), ..., c_0)) at v, x's other
    bits: s = c_d, then s = c + (v s >> P) for each later c.  E is within
    1.04 units of 2^-wp, plus 2^-(p+4) relative, of 2^wp 2^(x 2^-P).

    The tables hold 2^(j/2^8), 2^(j/2^16) and 2^(j/2^24), j < 256, at P
    bits, each built from 2^(2^-l) by mpf_exp of ln 2 2^-l at
    P + _EXP_BUILD_GUARD bits, by 255 products truncated there.  v 2^-P is
    below 2^-24, and 2^v' = e^(v' ln 2) for v' = v 2^-P is summed as its
    Taylor polynomial of degree d in v', with the coefficients
    c_k = (ln 2)^k/k! at P bits: d is the least degree up to K whose tail,
    below 2 (v' ln 2)^(d+1)/(d+1)! < 2 2^(-24(d+1))/(d+1)!, is below
    2^-(p+4), and K that degree at p = P, so every p >= P sums the same
    polynomial.

    Error, in units of 2^-P.  A table entry, at least 1, is within 0.51 of
    its value: 2^(2^-l) is within 2.5 units of the build precision (ln 2 at
    _EXP_BUILD_GUARD + 10 further bits moves it by less than 2^-10 of
    one), the 255 products add less than 2^12 of them, and the entry is
    rounded to P bits.  The polynomial is within 1.01 of 2^P times the
    Taylor sum of degree d: the coefficients c_k for k >= 1 round by less
    than 0.51, each Horner step truncates by less than 1, and all but the
    last step's errors are scaled by v' < 2^-24.  That sum lies below 2^v'
    by its tail, less than 2^-(P+4), 1/16 unit, at degree K and less than
    2^-(p+4) 2^v' at any degree.  So, with the tail taken as 1/16, the
    polynomial is within 1.07 of 2^P 2^v' and the exact product of the four
    factors within (3 * 0.51 + 1.07) 2^-P of its own size, under 2^(P+1)
    because 2^(x 2^-P) < 2, so 5.2 units; the three truncations take off
    less than 3.01 more.  The final shift, by 8 bits, takes off less than
    one unit of 2^-wp: E is at most 0.03 above 2^wp 2^(x 2^-P) and less
    than 1.04 units below it, and at degree d < K the tail's rest, less
    than 2^-(p+4) of it, further below.
    """
    prec = wp + 8
    build = prec + _EXP_BUILD_GUARD
    tables = []
    for level in (8, 16, 24):
        # ln 2 2^-level, at build + 10 bits
        log_step = from_man_exp(ln2_fixed(build + 10), -(build + 10 + level))
        step = _fixed(mpf_exp(log_step, build, _RND), build)
        entry = 1 << build
        table = []
        for _ in range(256):
            table.append(((entry >> (_EXP_BUILD_GUARD - 1)) + 1) >> 1)
            entry = entry * step >> build
        tables.append(table)
    degree = 0
    while math.factorial(degree + 1) << (24 * (degree + 1)) < 1 << (prec + 5):
        degree += 1
    # (ln 2)^k/k! at P bits, k = 0..K, from (ln 2)^k truncated at build bits
    ln2 = ln2_fixed(build)
    power, coefficients = 1 << build, []
    for k in range(degree + 1):
        scaled = power // math.factorial(k)
        coefficients.append(((scaled >> (_EXP_BUILD_GUARD - 1)) + 1) >> 1)
        power = power * ln2 >> build
    # Horner's order: c_K, ..., c_1, c_0
    coefficients.reverse()
    # p <= P -> degree d's Horner form, c_d and then (c_(d-1), ..., c_0),
    # at each p up to the most with (d+1)! 2^(24(d+1)) >= 2^(p+5)
    by_bits = []
    for d in range(degree + 1):
        most = min(prec, (math.factorial(d + 1) << (24 * (d + 1))).bit_length() - 6)
        form = (coefficients[degree - d], tuple(coefficients[degree - d + 1 :]))
        by_bits += [form] * (most + 1 - len(by_bits))
    return (*tables, by_bits)


def _fixed_scale(log_total: float, r: float, bits: int) -> int:
    """The fractional bits of a fixed-point run's accumulator: _ACC_GUARD
    below e^log_total, the summed panels' estimate, and never finer than
    the products it sums, so every shift into it is a right shift.

    A product's finest bit is 2^(n - wp - FT), 2^n the node's power of 2
    (_fixed_terms), and n <= -floor(r/ln 2): G <= 0 and C >= 1 give an
    exponent of at most -r/ln 2 bits, the roundings of G', C' and r C' move
    it by less than 2^-FT (1 + r/2), below one bit, and floor(r/ln 2) as a
    float is at most one above the true floor.  So the cap is
    wp + FT + floor(r/ln 2) - 1 = 2 bits + 54 + floor(r/ln 2) - 1.  At measure_vartheta's arguments it
    lies at least 96 bits above the estimate's 80 (1,292 cells, rho from
    1e-3 to 1e3 and t from 0.003 to 2, where the leading term is a double),
    so it binds only where the estimate is far below theta, and
    _theta_fixed refuses a run whose capped unit is coarser than 2^-64 of
    the estimate."""
    return min(
        _ACC_GUARD - math.floor(log_total / _LN2),
        2 * bits + _FIXED_GUARD + _EXP_GUARD + math.floor(r / _LN2) - 1,
    )


def _rule_bound(t: float, k: int, m: int, n: int) -> tuple:
    """((a, b), ...): the n-point Gauss-Legendre rule on the panel of m
    half-periods from k t, [k t, (k + m) t], of width w = m t, is within
    e^(a - r b) of the panel's integral at every r > 0, for each pair, one
    pair per ellipse tried.

    Write xi = c + (w/2) u, c = (k + m/2) t.  The integrand f is entire in
    u, and where |f| <= M on the Bernstein ellipse E_p (p > 1), an n-point
    Gauss rule on [-1, 1] is within (64/15) M p^(2-2n)/(p^2 - 1) of the
    integral (Trefethen, SIAM Rev. 50 (2008), Thm 4.5, whose I_n has n + 1
    points): the Chebyshev coefficients a_j are below 2 M p^-j, the rule
    integrates T_j exactly for j < 2n and both vanish at odd j, and each
    even j >= 2n is off by at most 2 + 2/(j^2 - 1) <= 32/15.  The panel
    scales that by w/2.  E_p has half-axes A = (p + 1/p)/2 and
    B = (p - 1/p)/2, so in xi it lies in the box x in [c - (w/2)A,
    c + (w/2)A] = [xmin, xmax], |y| <= Y = (w/2)B, and with Y < pi/2 and
    lo = max(xmin, 0), M is at most the product of e^((Y^2 - lo^2)/(2t))
    (the Gaussian), e^(-r cosh(lo) cos Y) (the envelope: Re cosh xi =
    cosh x cos y), cosh(xmax) (|sinh xi|^2 = sinh^2 x + sin^2 y) and
    cosh(pi Y/t) (the phase's sine, whatever m).  p runs down from
    8(n - 1)/(pi m), the best p for the sine alone, by factors of sqrt 2
    (at most _ELLIPSES of them, none below 2 but the first), and never so
    far that Y passes _ELLIPSE_Y.

    In doubles: A and B are taken _SLACK (relative) wider and xmin lower,
    and a is the sum of the log factors plus _SLACK of their magnitudes
    and _SLACK nats, b = cosh(lo) cos Y less _SLACK of it: far more than
    the few roundings of each, so the bound is never optimistic.  At m = 1
    every float is the one the width-t bound formed.
    """
    w = m * t
    big_b = 2.0 * _ELLIPSE_Y / w
    widest = big_b + math.sqrt(big_b * big_b + 1.0)
    wider = 1.0 + _SLACK
    c = (k + 0.5 * m) * t
    pairs = []
    for j in range(_ELLIPSES):
        p = min(8.0 * (n - 1) / (math.pi * m) * 0.5 ** (0.5 * j), widest)
        if p < 2.0 and pairs:
            break
        half_a = 0.25 * w * (p + 1.0 / p) * wider
        y = 0.25 * w * (p - 1.0 / p) * wider
        lo = max(0.0, c - half_a - _SLACK * (c + half_a))
        hi = (c + half_a) * wider
        phase = math.pi * y / t
        logs = (
            math.log(w * (32.0 / 15.0)),
            -2.0 * (n - 1) * math.log(p) - math.log(p * p - 1.0),
            (y * y - lo * lo) / (2.0 * t),
            hi - _LN2 + math.log1p(math.exp(-2.0 * hi)),  # log cosh(xmax)
            phase - _LN2 + math.log1p(math.exp(-2.0 * phase)),  # log cosh(pi Y/t)
        )
        a = sum(logs) + _SLACK * (sum(map(abs, logs)) + 1.0)
        try:
            b = math.cosh(lo) * math.cos(y) * (1.0 - _SLACK)
        except OverflowError:
            b = math.inf
        pairs.append((a, b))
        if p == widest:
            break
    return tuple(pairs)


def _proved(r: float, t: float, k: int, m: int, n: int, target: float, bounds: dict) -> bool:
    """Whether the rule bound (_rule_bound) of n points on m half-periods
    from k t is at most e^target at r.  bounds keeps (k, m, n) ->
    _rule_bound(t, k, m, n) for this t."""
    pairs = bounds.get((k, m, n))
    if pairs is None:
        pairs = bounds[k, m, n] = _rule_bound(t, k, m, n)
    for a, b in pairs:
        if a - r * b <= target:
            return True
    return False


def _partition(r: float, t: float, kmax: int, target: float, bounds: dict):
    """The proved partition of [0, kmax t]: a list of panels (k, m, n), each
    the first shape of _SHAPES, its m clamped to k + m <= kmax, whose rule
    bound at r is at most e^target (_proved), from k = 0 on; or None where
    some k has no such shape."""
    panels = []
    k = 0
    while k < kmax:
        for m, n in _SHAPES:
            m = min(m, kmax - k)
            if _proved(r, t, k, m, n, target, bounds):
                break
        else:
            return None
        panels.append((k, m, n))
        k += m
    return panels


def _fixed_terms(
    r: float, t: float, bits: int, kmax: int, table: dict, scale: int, log_total: float
) -> tuple:
    """The fixed-point run over [0, kmax t] (module docstring): returns
    (acc, panels, stopped), acc the signed sum of every node's product in
    integers at `scale` fractional bits, to be scaled by t/2, panels the
    (k, m, n) of each panel summed, in order, and stopped whether the tail
    test stopped it.  e^log_total is the estimate's summed panels, which
    sets the rule's and the tail's targets.

    The panels are the proved partition (_partition), each rule bound at
    most 2^-_RULE_GUARD e^log_total/kmax, where every panel up to kmax has
    a proved shape, and else theta_direct's panels, the width-t panels
    k < kmax at _PANEL_POINTS points, whose bounds are not checked.  A
    panel's integers are read from `table`, the node table of (t, bits),
    under (k, m, n) where it holds them, or made from _node_values' libmp
    values and stored there: the same integers either way; _node_values
    runs only at a panel the table lacks.  They are the right edge's G and
    C at FT fractional bits, then per node G' and C', G = -xi^2/(2t) and
    C = cosh xi times log2 e, and Q = m (w sinh xi) osc: the panel's
    integral is (m t/2) sum w f, and the integer factor m leaves t/2 to be
    applied once.  A node's exponent in bits, y = G' - r C' with
    r C' formed exactly from r's 53-bit numerator and truncated, splits
    into n = y >> FT and the fraction's top P = wp + 8 bits, x, and its
    product is 2^n E Q, E = 2^wp 2^(x 2^-P) from the inlined
    _exp_kernel(wp).  The run stops after the first panel whose right
    edge X has e^(G - r C)/r below 2^-_TAIL_GUARD e^log_total: with
    G <= -X^2/(2t) beyond X, the tail's integral of |f| is below
    e^(-X^2/(2t)) Int_X^inf e^(-r cosh xi) sinh xi dxi = e^(G - r C)/r.
    The test compares G - r C from the edge's integers, with r C exact to
    2^-FT, with a float limit lowered by _SLACK of its terms and _SLACK
    nats, more than the roundings of the limit, of the edge's G and C at
    bits and at FT bits, so it never stops early.  _theta_fixed refuses a
    run that passes its last panel without stopping (none of the 416 runs
    that measure_vartheta made over rho from 1e-10 to 1e4 and t from 0.005
    to 5 did).

    Error, relative to the estimate's summed panels, against the exact
    integral:
    * the accumulator: a node's product E Q >> shift, shift =
      wp + FT - scale - n >= 1 (_fixed_scale), is within 2^(sig+1) units,
      sig = wp + bitlen(Q) - shift, as E < 2^(wp+1) (Q, and the product,
      are negative where a wide panel's phase is): at sig < 0 it would
      shift to 0 and is skipped, and otherwise p = sig + 4, so the
      exponential's 2^-(p+4) moves it by less than 2^-7 of a unit.  With
      the shift, which drops less than one unit, a node is off by less
      than 1 + 2^-7 units, and acc is scaled by t/2: (t/2) (1 + 2^-7) N
      units over N nodes.  Where _fixed_scale's cap does not bind, the unit
      is 2^-80 of the estimate, so that is below 2^-64 for (t/2) N <= 2^15,
      however far the estimate lies above theta.  A run sums at most 24
      nodes per half-period, but for a last panel cut at kmax of up to 96,
      so N <= 24 kmax + 96, and kmax t <= sg._X_MAX (_validated): (t/2) N is
      below 2^14 for t <= 2 (a certify-grid run sums at most 560 nodes);
    * the panel rule: at most kmax panels, each within 2^-72/kmax, but in
      a run with no proved partition, whose panels' own bounds can lie far
      above that (module docstring) and are not checked: they are summed
      as theta_direct sums them;
    * the tail: 2^-72;
    * the node terms.  The exponent y is off by at most 2^-(FT+1) (1 + r)
      from G' and C' (each the exact product with log2 e at FT + 64 bits,
      rounded), 2^-FT from r C' >> r_shift and 2^-P from x: 2^-P ln 2
      (1 + 2^-18 (1.5 + r/2)) relative in 2^y, below 2^-(wp+7) for
      r < 2^17.  E is within 1.04 2^-wp of 2^wp 2^(x 2^-P) >= 2^wp, plus
      the 2^-(p+4) above (_exp_kernel).  So each product moves by at most
      1.05 2^-wp = 2^-(bits+13.9) of itself.  Q's rounding, 2^-(FT+1),
      adds 2^-(bits+10)/t of it: with sinh xi >= xi, |Q| > 2^-31 t at every
      node of every shape that _SHAPES and the cut at kmax form.  The
      least is (2, 96) at k = 0, a run of two half-periods (_panel_count
      gives kmax >= 2, so a panel cut at k = 0 spans two); every uncut
      shape has |Q| > 2^-25 t, (8, 96) the least, and 24 points on width
      t 2^-22 t.  For t above 2^-10 that is at most 2^-bits, in all below
      2^-(bits-1) of the summed |p_k|, which the rule sizes bits to keep
      below 2^(bits-64) |total|: 2^-65 of theta (2^-68 for t above 1/32).
      The r-free values at bits are off by about 2^-bits (|y| ln 2 +
      2 pi K + 8) of each term of a panel ending at K t, and (t/2) acc and
      the prefactor are rounded at bits (_theta_fixed), about
      2^-bits (pi^2/(2t) + 8) of theta.
    """
    prec = bits
    frac = bits + _FIXED_GUARD
    wp = bits + _EXP_GUARD
    tt = from_float(t, prec, _RND)  # as _node_values rounds it
    built = {}  # (m, n) -> _node_values(t, bits, n, m), at the first panel the table lacks
    bounds = _recent(_rule_bounds, t, dict)
    r_num, r_den = r.as_integer_ratio()
    r_shift = r_den.bit_length() - 1  # r = r_num / 2^r_shift exactly
    log_r = math.log(r)
    target = log_total - _RULE_GUARD * _LN2 - math.log(kmax)
    target -= _SLACK * (abs(log_total) + abs(target) + 1.0)
    # the stop: the edge's G - r C, in units of 2^-FT, below limit
    tail = log_total - _TAIL_GUARD * _LN2 + log_r
    tail -= _SLACK * (abs(log_total) + abs(log_r) + abs(tail) + 1.0)
    num, den = tail.as_integer_ratio()
    limit = (num << frac) // den
    base = wp + frac - scale  # above every exponent n (_fixed_scale)
    # the inlined kernel: x's bytes and v read from y's fraction, and
    # p = sig + 4 = bitlen(Q) + n + keep
    t8, t16, t24, by_bits = _recent(_exp_kernels, wp, partial(_exp_kernel, wp))
    top = wp + 8
    down = top + 8
    at8, at16, at24 = frac - 8, frac - 16, frac - 24
    low = (1 << at24) - 1
    cut = frac - top
    keep = wp + 4 - base
    plan = _partition(r, t, kmax, target, bounds)
    if plan is None:
        plan = ((k, 1, _PANEL_POINTS) for k in range(kmax))
    acc = 0
    panels = []
    for k, m, order in plan:
        ints = table.get((k, m, order))
        if ints is None:
            if not built:
                # log2 e = 1/ln 2 at FT + 64 fractional bits
                log2e = (1 << (2 * frac + 134)) // ln2_fixed(frac + 70)
            if (m, order) not in built:
                built[m, order] = _node_values(t, bits, order, m)
            _, _, nodes, values, edge_values = built[m, order]
            edge = mpf_mul_int(tt, k + m, prec, _RND)
            ints = [_fixed(v, frac) for v in edge_values(edge)[:2]]
            it = iter(values(k))
            for (_, w), gauss, cosh, sinh, osc in zip(nodes, it, it, it, it):
                q = mpf_mul(mpf_mul(w, sinh, prec, _RND), osc, prec, _RND)
                ints += (
                    _fixed(_times(gauss, log2e, frac + 64), frac),
                    _fixed(_times(cosh, log2e, frac + 64), frac),
                    _fixed(_times(q, m, 0), frac),
                )
            table[k, m, order] = ints
        it = iter(ints)
        edge_g, edge_c = next(it), next(it)
        panel = 0
        for g, c, q in zip(it, it, it):
            # 2^(g - r c) = 2^n 2^(x 2^-P), 0 <= x < 2^P
            y = g - (r_num * c >> r_shift)
            n = y >> frac
            # E < 2^(wp+1), so the product is below 2^(sig+1) units, and 0 at sig < 0
            p = q.bit_length() + n + keep
            if p >= 4:
                s, rest = by_bits[p if p < top else top]
                v = (y & low) >> cut
                for a in rest:
                    s = a + (v * s >> top)
                e = t8[y >> at8 & 255] * t16[y >> at16 & 255] >> top
                panel += ((e * t24[y >> at24 & 255] >> top) * s >> down) * q >> (base - n)
        acc += -panel if k & 1 else panel
        panels.append((k, m, order))
        if edge_g - (r_num * edge_c >> r_shift) < limit:
            return acc, panels, True
    return acc, panels, False


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


def _prefactor_parts(t: float, bits: int) -> tuple:
    """(sqrt(2 pi^3 t), e^(pi^2/(2t))) as mpf at `bits`: the r-free part of
    theta's prefactor."""
    with mp.workprec(bits):
        tt = mp.mpf(t)
        return mp.sqrt(2 * mp.pi**3 * tt), mp.e ** (mp.pi**2 / (2 * tt))


def _theta_of(total: tuple, r: float, t: float, bits: int):
    """theta as mpf: the prefactor r/sqrt(2 pi^3 t) e^(pi^2/(2t)) times the
    summed panels, at `bits`.  The prefactor's r-free parts are kept per
    (t, bits), as many keys as node tables (_recent): the same mpf
    operations on the same operands, so the same bits."""
    root, growth = _recent(_prefactors, (t, bits), partial(_prefactor_parts, t, bits))
    with mp.workprec(bits):
        return mp.mpf(r) / root * growth * mp.make_mpf(total)


def _integrate_panels(r: float, t: float, bits: int, kmax: int):
    """theta_direct's serial run: the mpf loop over at most kmax panels, in
    this process; returns (theta as mpf, signed panel list).

    Each step is the libmp call, in the same order, that the corresponding
    mpf expression (noted in the comments) makes under mp.workprec(bits), so
    every panel is the mpf result to the bit and depends only on
    (r, t, bits, k).  The sum stops after the first panel whose right edge
    lies beyond the envelope's peak + t (below it the envelope bounds no
    tail) and has an envelope below _TAIL_TOLERANCE 2^-(bits/2) of the
    partial sum, both at bits.

    Exposed separately so tests can inspect the alternation of consecutive
    half-period contributions.
    """
    prec = bits
    tt, half, nodes, values, edge_values = _node_values(t, bits, _PANEL_POINTS)
    rr = from_float(r, prec, _RND)
    e = mpf_e(prec, _RND)
    # mp.e ** y is mpf_pow, i.e. exp(y * log(e)) with log(e) at prec + 10 bits;
    # that log is the same for every y, so it is taken once here
    log_e = mpf_log(e, prec + 10, _RND)

    def damped(gauss, cosh):
        # mp.e ** (gauss - rr * cosh)
        y = mpf_sub(gauss, mpf_mul(rr, cosh, prec, _RND), prec, _RND)
        if y[2] >= -1:  # integer or half-integer y: mpf_pow's exact-power route
            return mpf_pow(e, y, prec, _RND)
        return mpf_exp(mpf_mul(y, log_e), prec, _RND)

    peak = _envelope_peak(r)
    # mpf(2) ** -(bits // 2) * mpf(_TAIL_TOLERANCE), exact
    thresh_scale = mpf_shift(from_float(_TAIL_TOLERANCE), -(bits // 2))
    total = fzero
    panels = []
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
        # sign * half * acc
        sign = -1 if (k % 2) else 1
        contribution = mpf_mul(mpf_mul_int(half, sign, prec, _RND), acc, prec, _RND)
        panels.append(contribution)
        total = mpf_add(total, contribution, prec, _RND)
        edge = mpf_mul_int(tt, k + 1, prec, _RND)
        if to_float(edge, rnd=_RND) > peak + t:
            # mp.e ** (...) * mp.sinh(edge) < thresh_scale * abs(total), as at the nodes
            gauss, cosh, sinh = edge_values(edge)
            envelope = mpf_mul(damped(gauss, cosh), sinh, prec, _RND)
            if mpf_lt(envelope, mpf_mul(thresh_scale, mpf_abs(total), prec, _RND)):
                break
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


def _density(value, r: float, t: float, bits: int) -> float:
    """theta, an mpf from a run at `bits`, as a double; DomainError where it
    is not a positive normal double."""
    theta = normal_double(float(value), "theta(r={!r}, t={!r})", r, t)
    if theta < 0.0:
        raise DomainError(
            f"theta(r={r!r}, t={t!r}) at {bits} bits is {theta!r}, not a density: "
            f"the run did not resolve it"
        )
    return theta


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
    theta = _density(value, r, t, bits)
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
    and theta_direct's refusals.  `estimate`, a positive double near theta,
    sets the accumulator (_fixed_scale), the panels' shapes and the tail
    stop (_fixed_terms); where the cap leaves the accumulator's unit
    coarser than 2^-_ACC_FLOOR of the estimate, the run is refused with
    DomainError before any quadrature, and where it sums every panel
    without bounding the tail, after it.  The error bound, relative to the
    summed panels that the estimate implies, is _fixed_terms'."""
    r, t, bits, kmax = _validated(r, t, bits)
    log_total = _log_total(r, t, estimate)
    scale = _fixed_scale(log_total, r, bits)
    if scale < _ACC_FLOOR - math.floor(log_total / _LN2):
        raise DomainError(
            f"theta(r={r!r}, t={t!r}) at {bits} bits: the estimate {estimate!r} lies so far "
            f"below theta's scale that the accumulator's unit 2^-{scale} is coarser than "
            f"2^-{_ACC_FLOOR} of it"
        )
    acc, _, stopped = _fixed_terms(r, t, bits, kmax, _node_table(t, bits), scale, log_total)
    if not stopped:
        raise DomainError(
            f"theta(r={r!r}, t={t!r}) at {bits} bits: the tail past the last panel edge, "
            f"xi = {kmax * t:.6g}, is not bounded below 2^-{_TAIL_GUARD} of the estimate"
        )
    # (t/2) acc 2^-scale, rounded once: t/2 is exact
    total = mpf_mul(mpf_shift(from_float(t), -1), from_man_exp(acc, -scale), bits, _RND)
    return _density(_theta_of(total, r, t, bits), r, t, bits)


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
