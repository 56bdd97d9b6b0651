"""Descent-path continuation kernel.

This is the hot loop of the package: Newton continuation of the level curve
h(xi) - h(X) = tau (tau real, increasing) away from a saddle X, entirely in
double precision.

Everything is computed in the offset d = xi - X, never in xi itself, using
difference forms that stay accurate when |d| is tiny:

    Dh(d)  = h(X+d) - h(X) = h2*d^2/2 + rho*cX*(cosh d - 1 - d^2/2)
                                      + rho*sX*(sinh d - d)
    Dh'(d) = h'(X+d)       = h2*d + rho*sX*(cosh d - 1) + rho*cX*(sinh d - d)
    sinh(X+d) = sX + sX*(cosh d - 1) + cX*sinh d

with sX = sinh X, cX = cosh X, h2 = 1 + rho*cX (the half of h'' is folded
into the d^2/2), and the parenthesised remainders evaluated by their tail
series for small |d|.  At the degenerate saddle (mode 2) h2 = 0 and the
leading behaviour is quartic, handled by the seed choice alone; no separate
local-expansion branch is needed anywhere because the difference forms are
cancellation-free at every tau.

The remainders are evaluated inline in the Newton loop, each once per
Newton point and shared: sinh d - d by Dh and Dh' at an iterate, cosh d - 1
and Dh'(d) by g at an accepted point and by the next step's predictor, and
sinh d, which the sinh remainder takes from cmath for |d| >= 1, by g there.
Each value is the expression a separate helper would compute, same operands
in the same order (the series divisors stay ints), so every (tau, d, g) is
the same to the bit as with one helper call per remainder.

Each series stops at the first term k with |t_k| < 1e-20 (|s_k| + 1e-300).
Below a tabled |d| bound that test provably fails for the first few terms
(|t_k / t_1| = |d|^(2k-2) 3!/(2k+1)! for sinh d - d and |d|^(2k-2) 4!/(2k+2)!
for cosh d - 1 - d^2/2, while |s_k| stays below 1.06 |t_1| and 1.15 |t_1|),
so those terms are summed without it and the rest are tested as before: the
stop, and so the sum, is the same.  Each bound keeps a factor 2 in |d| to
spare, and below the first one, where the 1e-300 floor and underflow could
decide a test, nothing is skipped.

A Newton stall raises PathError carrying the last tau reached.
"""

import cmath
import math
from bisect import bisect

from .errors import PathError

__all__ = ["trace"]

_QUARTER_TURN = cmath.exp(-0.25j * math.pi)

#: Largest accepted continuation step |d_{k+1} - d_k|.
_MAX_DXI = 0.1
#: Newton stops once |Dh(d) - tau| <= _RTOL * tau.
_RTOL = 1e-12
#: Newton iterations allowed per step before the trace stalls.
_MAX_NEWTON = 40


#: Divisors of the remainders' term recurrences: the k-th term of sinh d - d
#: is the one before times d*d/((2k)(2k+1)), that of cosh d - 1 - d^2/2 times
#: d*d/((2k+1)(2k+2)).  They are ints, so each division is the int one.  Both
#: series stop well inside 20 terms (|d| < 1 and |d| < 2 respectively).
_SINHM_DIV = tuple((2 * k) * (2 * k + 1) for k in range(1, 21))
_COSHM1Q_DIV = tuple((2 * k + 1) * (2 * k + 2) for k in range(1, 21))

#: Stop-test skip tables: at |d| >= _SINHM_SKIP[j-1] the first j stop tests
#: of sinh d - d's series cannot pass, likewise _COSHM1Q_SKIP for
#: cosh d - 1 - d^2/2.  Each bound is the smallest |d|, doubled and rounded
#: up, at which every skipped term's exact |t_k| is at least
#: 2e-20*(|t_1| + ... + |t_k| + 1e-300), twice its test's right side, and at
#: least 1e-290, far above underflow; both margins grow with |d|, so they
#: hold beyond the bound (tests/test_descent_path.py checks each exactly).
_SINHM_SKIP = (7.9e-97, 1.3e-09, 0.00013, 0.0066, 0.05, 0.18, 0.41, 0.76)
_COSHM1Q_SKIP = (1.4e-72, 1.6e-09, 0.00016, 0.0077, 0.057, 0.2, 0.46, 0.85, 1.4)

#: (unchecked divisors, checked divisors) for each number of skipped tests.
_SINHM_PLAN = tuple((_SINHM_DIV[:j], _SINHM_DIV[j:]) for j in range(len(_SINHM_SKIP) + 1))
_COSHM1Q_PLAN = tuple(
    (_COSHM1Q_DIV[:j], _COSHM1Q_DIV[j:]) for j in range(len(_COSHM1Q_SKIP) + 1)
)


def trace(rho, sx, cx, h2, h3, mode, targets, record_all=False):
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
    half_h2 = 0.5 * h2

    def g_at(d, cm1, hp, sh):
        # sh is sinh d where the sinh remainder took it (|d| >= 1), else None
        return (sx + sx * cm1 + cx * (cmath.sinh(d) if sh is None else sh)) / hp

    if mode == 2:
        tau_init_cap = 1e-6
    else:
        # keep the seed inside the quadratic trust region |h3 d| << |h2|
        d_trust = min(0.05, 0.1 * abs(h2) / abs(h3)) if h3 != 0 else 0.05
        tau_init_cap = 0.5 * abs(h2) * d_trust * d_trust

    out = []
    d = 0j
    # cosh(d) - 1, Dh'(d) and sinh d (or None) at the accepted point d, shared
    # by g there and by the next predictor; at d = 0 the first two vanish
    # (g at the saddle divides by 0)
    cm1 = hp = 0j
    sh = None
    tau_cur = 0.0
    for tau_target in targets:
        while tau_cur < tau_target:
            if d == 0j:
                tau_try = min(tau_target, tau_init_cap)
                if mode == 2:
                    dn = (24.0 * tau_try / rho) ** 0.25 * _QUARTER_TURN
                else:
                    # h2 is real, < 0 in mode 0 and > 0 in mode 1, so
                    # 2 tau/h2 has imaginary part -0.0 and the principal
                    # root is the mode's branch: Im d < 0, resp. Re d > 0
                    dn = cmath.sqrt(2.0 * tau_try / h2)
            else:
                # min(tau_target - tau_cur, |hp| min(_MAX_DXI, |d|/2)), as
                # comparisons: min(a, b) is b where b < a, else a
                half_d = 0.5 * abs(d)
                step = abs(hp) * (half_d if half_d < _MAX_DXI else _MAX_DXI)
                left = tau_target - tau_cur
                if not step < left:
                    step = left
                tau_try = tau_cur + step
                dn = d + step / hp
            tol = _RTOL * tau_try
            for _ in range(_MAX_NEWTON):
                ad = abs(dn)
                # sm = sinh dn - dn
                if ad < 1.0:
                    sh = None
                    unchecked, checked = _SINHM_PLAN[bisect(_SINHM_SKIP, ad)]
                    sm = 0j
                    term = dn
                    for q in unchecked:
                        term = term * dn * dn / q
                        sm += term
                    for q in checked:
                        term = term * dn * dn / q
                        sm += term
                        if abs(term) < 1e-20 * (abs(sm) + 1e-300):
                            break
                else:
                    sh = cmath.sinh(dn)
                    sm = sh - dn
                # cq = cosh dn - 1 - dn^2/2
                if ad < 2.0:
                    unchecked, checked = _COSHM1Q_PLAN[bisect(_COSHM1Q_SKIP, ad)]
                    cq = 0j
                    term = dn * dn / 2.0
                    for q in unchecked:
                        term = term * dn * dn / q
                        cq += term
                    for q in checked:
                        term = term * dn * dn / q
                        cq += term
                        if abs(term) < 1e-20 * (abs(cq) + 1e-300):
                            break
                else:
                    cq = cmath.cosh(dn) - 1.0 - 0.5 * dn * dn
                resid = half_h2 * dn * dn + rho_cx * cq + rho_sx * sm - tau_try
                if abs(resid) <= tol:
                    break
                hs = cmath.sinh(0.5 * dn)
                dn = dn - resid / (h2 * dn + rho_sx * (2.0 * hs * hs) + rho_cx * sm)
            else:
                raise PathError(
                    f"path continuation stalled at tau={tau_try!r} (rho={rho!r})",
                    last_good_tau=tau_cur,
                )
            d = dn
            tau_cur = tau_try
            hs = cmath.sinh(0.5 * d)
            cm1 = 2.0 * hs * hs
            hp = h2 * d + rho_sx * cm1 + rho_cx * sm
            if record_all and tau_cur < tau_target:
                out.append((tau_cur, d, g_at(d, cm1, hp, sh)))
        out.append((tau_cur, d, g_at(d, cm1, hp, sh)))
    return out
