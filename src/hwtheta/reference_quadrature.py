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
more from one rule, _cancellation_bits.  Two structural facts make a simple
scheme fast (not rigorous: the 24-point panel rule is 2.8e-6 off theta at
(r, t) = (0.2, 10), where error_estimate reads 1.8e-19):

* the oscillation sin(pi xi/t) has its zeros exactly at xi = k*t, so panels
  aligned to [k*t, (k+1)*t] each contain one sign-definite half-period and a
  fixed-order Gauss-Legendre rule per panel converges geometrically;
* the envelope decays like e^(-r cosh xi), so a truncation point with a
  guaranteed tail bound comes from solving r (cosh xi - 1) + xi^2/(2t) =
  budget, the budget counted under the envelope's floor e^-r.

Within panel k the phase is evaluated locally, sin(pi xi/t) =
(-1)^k sin(pi (xi - k t)/t), so it never degrades at large xi/t.

Results surface as doubles.  A theta that is not a positive normal double (a
negative one from bits short of the cancellation, an underflow to 0.0 or a
subnormal, an overflow to inf) is refused with DomainError, as is a run that
would sum more than _MAX_PANELS panels (an explicit bits with a tiny t).
error_estimate is the relative difference against a rerun 32 bits below the
full run (at least 64), which at the rule's bits keeps 32 guard bits over the
cancellation.  Both runs sum the same 24-point panels, so the estimate
measures rounding only: not the panel rule's error, nor a tail the loop
stopped short of.

Every panel's contribution, and the envelope at its right edge that the
tail test reads, depend only on (r, t, bits, k), so the work is spread over
two processes without moving a bit: theta_direct computes the rerun in a
forked child beside the full run, and _theta_split, measure_vartheta's run
with no rerun, splits its panels at the tail stop predicted from the leading
term (_theta_split and _in_child give the details).  Each child pickles what
it computed (the rerun's mpf theta, or the split's (contribution, envelope)
pairs of raw libmp values) into a pipe that only it writes, and leaves
through os._exit, so it flushes none of the buffers it inherited.  The nodes
are requested here before the fork, full bits first as the serial code does,
so the child solves no nodes and this process's node caches end as the
serial code leaves them.  Where no child
runs (among other cases, where a second thread is alive: a fork copies only
the calling thread, and a lock another thread holds stays held in the
child) or the child fails, its work runs here after this process's own, in
the same panel loop, _panel_terms, so every result is bit-identical to the
in-process one.

The panel loop runs on mpmath's raw libmp values rather than mpf objects:
each step is the libmp call that the equivalent mpf expression makes under
mp.workprec, with the same precision, round-to-nearest and evaluation order,
so every panel is the mpf result to the bit.  That matters because
error_estimate sits in the last bits of the rerun and so moves with any
change of rounding.  At (r, t) = (2, 0.5) it is 7.138e-19; mp.exp in place of
mp.e ** y makes it 1.357e-18 and folding sin into the weights 2.850e-19, and
the published output would change, so sin is not folded.  What the libmp loop
saves is mpf's per-operation object and dispatch overhead, the log(e) that
mp.e ** y recomputes at every node (taken once per panel generator here), the
second cosh/sinh evaluation (mpf_cosh_sinh gives both), the product half * x,
taken once per node instead of once per node and panel, and most of the
sines.  The phase sin(pi (xi - a)/t) depends on the panel only through the
roundings of a = k t, mid = a + t/2 and xi = mid + (t/2) x_j, so the offsets
xi - a take a handful of values per node over all panels.  Each panel
generator keeps a table from the raw offset to its sine and evaluates the
sine, exactly as before, only for an offset it has not seen: 57 sines for 144
nodes at (4, 0.5, 79 bits), 90 for 1,776 at (5, 0.05, 266 bits).  The key is
the offset and not the node because the offset's rounding differs between
panels; a table keyed on the node would reuse one panel's sine where the
offset has moved by an ulp, and the panels would no longer be the mpf loop's.
The table lives for one generator, so it grows with no t beyond the one it
serves.

The Gauss-Legendre nodes and weights are held at 30 guard bits above the
panel precision, and the panel loop rounds every product with them back to
that precision, so the nodes need only be right in those guard bits.  Each
panel order is solved from double-precision seeds at the highest precision
yet requested and rounded to each lower one (libmp mpf_pos), so the nodes at
a precision depend only on the highest the process has seen; the panels come
out as those of the tests' mpf loop, which solves per (order, precision), to
the bit.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    finf,
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
    """Gauss-Legendre nodes and weights on [-1, 1] at `prec` bits, cached.

    Nodes and weights are held at prec + 30 bits.  Each panel order n is
    held solved at the highest prec + 30 yet requested: Newton on the
    Legendre three-term recurrence for the ceil(n/2) nonnegative roots only,
    seeded by a double-precision Newton and run at doubling precision
    (_newton_root).  A request at no more bits rounds that solve to
    prec + 30 bits; one above it solves again and is held in its place.  The
    negative half is the exact mirror (mpf_neg, no rounding) and the middle
    node of odd n is 0.  Every (n, prec) keeps its own entry, so a repeated
    request is one lookup.  Returns (node, weight) pairs of raw libmp
    values, in decreasing order of node.
    """
    key = (n, prec)
    cached = _gl_cache.get(key)
    if cached is not None:
        return cached
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
    _gl_cache[key] = list(zip(xs, ws))
    return _gl_cache[key]


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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * r * math.sinh(0.5 * mid) ** 2 + mid * mid / (2.0 * t) < budget:
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


def _envelope_peak(r: float) -> float:
    """The envelope's maximum: cap of the Gaussian-free stationary points.
    The tail test reads only panel edges beyond peak + t."""
    return max(1.0 / math.sqrt(r), math.asinh(1.0 / r))


def _panel_terms(r: float, t: float, bits: int, ks: range):
    """The quadrature's panels k in ks, in order: yields each panel's signed
    contribution and the envelope at its right edge (k + 1) t, as raw libmp
    values at `bits`.

    The envelope bounds the tail only past the envelope's peak, so for an
    edge not beyond peak + t it is +inf and stops no sum.  Each step is the
    libmp call, in the same order, that the corresponding mpf expression
    (noted in the comments) makes under mp.workprec(bits), so every value is
    the mpf result to the bit and depends only on (r, t, bits, k).  The sine
    of a phase offset xi - a that this generator has already met is looked
    up, not recomputed (module docstring).
    """
    prec = bits
    rr = from_float(r, prec, _RND)
    tt = from_float(t, prec, _RND)
    nodes = _gl_nodes(_PANEL_POINTS, bits)
    peak = _envelope_peak(r)
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

    half = mpf_div(tt, from_int(2), prec, _RND)
    # half * x does not depend on the panel
    nodes = [(mpf_mul(half, x, prec, _RND), w) for x, w in nodes]
    # sin(pi * off / tt) by the raw offset off = xi - a, for this generator
    # only: the offsets repeat across panels, each a rounding of one of a few
    # values
    phase = {}
    for k in ks:
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
        edge = mpf_mul_int(tt, k + 1, prec, _RND)
        envelope = finf
        if to_float(edge, rnd=_RND) > peak + t:
            # envelope = mp.e ** (...) * mp.sinh(edge), as at the nodes
            cosh, sinh = mpf_cosh_sinh(edge, prec, _RND)
            envelope = mpf_mul(damped(edge, cosh), sinh, prec, _RND)
        yield contribution, envelope


def _add_panels(total: tuple, terms, bits: int, panels: list):
    """Add the (contribution, envelope) pairs of terms to total in order, at
    `bits`, appending each contribution to panels, until the tail test stops
    the sum: an envelope below _TAIL_TOLERANCE * 2^-(bits/2) of |total|.
    Returns (total, whether the tail test stopped it).  Where terms is a
    _panel_terms generator, no panel past the stop is computed."""
    # mpf(2) ** -(bits // 2) * mpf(_TAIL_TOLERANCE), exact
    thresh_scale = mpf_shift(from_float(_TAIL_TOLERANCE), -(bits // 2))
    for contribution, envelope in terms:
        panels.append(contribution)
        total = mpf_add(total, contribution, bits, _RND)
        if mpf_lt(envelope, mpf_mul(thresh_scale, mpf_abs(total), bits, _RND)):
            return total, True
    return total, False


def _predicted_stop(r: float, t: float, bits: int, estimate: float, kmax: int) -> int:
    """How many of the kmax panels _add_panels' tail test is predicted to
    sum at (r, t, bits) where theta is about `estimate`, a positive double.

    The test in logs of doubles, with |total| taken as the summed panels
    that a theta of `estimate` implies.  It only decides where _theta_split
    computes each panel, never a bit of theta.
    """
    # log |total|: estimate with theta's prefactor r/sqrt(2 pi^3 t) e^(pi^2/(2t)) taken out
    log_total = (
        math.log(estimate)
        - math.log(r)
        + 0.5 * math.log(2.0 * math.pi**3 * t)
        - math.pi**2 / (2.0 * t)
    )
    log_thresh = math.log(_TAIL_TOLERANCE) - (bits // 2) * math.log(2.0) + log_total
    peak = _envelope_peak(r)
    for k in range(kmax):
        edge = (k + 1) * t
        if edge <= peak + t:
            continue
        # log of the envelope at the edge; cosh stays finite, as _validated
        # refuses a last edge kmax * t past sg._X_MAX
        log_envelope = -edge * edge / (2.0 * t) - r * math.cosh(edge)
        if log_envelope + math.log(math.sinh(edge)) < log_thresh:
            return k + 1
    return kmax


def _theta_of(total: tuple, r: float, t: float, bits: int):
    """theta as mpf: the prefactor r/sqrt(2 pi^3 t) e^(pi^2/(2t)) times the
    summed panels, at `bits`."""
    with mp.workprec(bits):
        rr = mp.mpf(r)
        tt = mp.mpf(t)
        prefactor = rr / mp.sqrt(2 * mp.pi**3 * tt) * mp.e ** (mp.pi**2 / (2 * tt))
        return prefactor * mp.make_mpf(total)


def _integrate_panels(r: float, t: float, bits: int, kmax: int):
    """The serial run: panel-by-panel quadrature over at most kmax panels, in
    this process; returns (theta as mpf, signed panel list).

    Exposed separately so tests can inspect the alternation of consecutive
    half-period contributions.
    """
    panels = []
    total, _ = _add_panels(fzero, _panel_terms(r, t, bits, range(kmax)), bits, panels)
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

    # the serial runs' node requests, in their order, before any fork: the
    # child then solves nothing, and the caches here end as the serial code
    # leaves them
    _gl_nodes(_PANEL_POINTS, bits)
    _gl_nodes(_PANEL_POINTS, check_bits)
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


def _theta_split(r: float, t: float, bits: int, estimate: float) -> float:
    """theta(r, t) at `bits` as a double, from the full run alone: no rerun,
    no error estimate, and theta_direct's refusals but the negative theta's.

    `estimate`, a positive double near theta, sizes the split: the tail test
    is predicted to stop after `stop` panels (_predicted_stop).  This process
    sums the panels [0, m), m = (stop + 1) // 2, while a forked child
    computes [m, stop), then carries the in-order sum and its tail test on
    over the child's contributions and envelopes, and only where the test
    has not stopped yet, over [stop, kmax) here.  A tail stop inside [0, m)
    kills the child unread.  Where no child runs or it fails, [m, stop) runs
    here after [0, m).  Each panel depends only on (r, t, bits, k) and the
    sum is taken in the serial order under the same tail test, so theta is
    the serial run's to the bit whatever the prediction: a wrong one only
    moves panels between the two processes.
    """
    r, t, bits, kmax = _validated(r, t, bits)
    _gl_nodes(_PANEL_POINTS, bits)  # before the fork: the child solves no nodes
    stop = _predicted_stop(r, t, bits, estimate, kmax)
    m = (stop + 1) // 2
    theirs = range(m, stop)

    def in_child():
        return list(_panel_terms(r, t, bits, theirs))

    with _in_child(in_child) as child:
        total, stopped = _add_panels(fzero, _panel_terms(r, t, bits, range(m)), bits, [])
        if not stopped:
            total, stopped = _add_panels(total, child(), bits, [])
    if not stopped:
        total, _ = _add_panels(total, _panel_terms(r, t, bits, range(stop, kmax)), bits, [])
    theta = _theta_of(total, r, t, bits)
    return normal_double(float(theta), "theta(r={!r}, t={!r})", r, t)


@contextlib.contextmanager
def _in_child(fn):
    """Run fn in a forked child beside the with block.

    Yields a function that returns fn's value: it reads the child's pickle
    of it and waits for the child, or, where the child failed (a nonzero
    exit status or a pickle cut short), runs fn here.  Where no child runs,
    it yields fn itself, so fn runs here when the block calls for it, after
    this process's own work.  No child runs where os.fork is missing, where
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
