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

Each remainder is evaluated once per Newton point and shared: sinh d - d by
Dh and Dh' at an iterate, cosh d - 1 and Dh'(d) by g at an accepted point
and by the next step's predictor.  Each shared value is the expression a
separate evaluation would use, same operands in the same order, and the
series are pure functions of d, so every (tau, d, g) is the same to the bit.

A Newton stall raises PathError carrying the last tau reached.
"""

import cmath
import math

from .errors import PathError

__all__ = ["trace"]

_QUARTER_TURN = cmath.exp(-0.25j * math.pi)

#: Largest accepted continuation step |d_{k+1} - d_k|.
_MAX_DXI = 0.1
#: Newton stops once |Dh(d) - tau| <= _RTOL * tau.
_RTOL = 1e-12
#: Newton iterations allowed per step before the trace stalls.
_MAX_NEWTON = 40


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

    def g_at(d, cm1, hp):
        return (sx + sx * cm1 + cx * cmath.sinh(d)) / hp

    if mode == 2:
        tau_init_cap = 1e-6
    else:
        # keep the seed inside the quadratic trust region |h3 d| << |h2|
        d_trust = min(0.05, 0.1 * abs(h2) / abs(h3)) if h3 != 0 else 0.05
        tau_init_cap = 0.5 * abs(h2) * d_trust * d_trust

    out = []
    d = 0j
    # cosh(d) - 1 and Dh'(d) at the accepted point d, shared by g there and
    # by the next predictor; at d = 0 both vanish (g at the saddle divides by 0)
    cm1 = hp = 0j
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
                step = min(tau_target - tau_cur,
                           abs(hp) * min(_MAX_DXI, 0.5 * abs(d)))
                tau_try = tau_cur + step
                dn = d + step / hp
            converged = False
            for _ in range(_MAX_NEWTON):
                sm = _sinhm(dn)
                resid = 0.5 * h2 * dn * dn + rho_cx * _coshm1q(dn) + rho_sx * sm - tau_try
                if abs(resid) <= _RTOL * tau_try:
                    converged = True
                    break
                dn = dn - resid / (h2 * dn + rho_sx * _coshm1(dn) + rho_cx * sm)
            if not converged:
                raise PathError(
                    f"path continuation stalled at tau={tau_try!r} (rho={rho!r})",
                    last_good_tau=tau_cur,
                )
            d = dn
            tau_cur = tau_try
            cm1 = _coshm1(d)
            hp = h2 * d + rho_sx * cm1 + rho_cx * sm
            if record_all and tau_cur < tau_target:
                out.append((tau_cur, d, g_at(d, cm1, hp)))
        out.append((tau_cur, d, g_at(d, cm1, hp)))
    return out
