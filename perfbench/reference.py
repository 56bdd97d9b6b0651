"""Reference values the benchmark checks the program's outputs against.

Nothing here calls the package.  The saddle is solved and the descent path
traced again in mpmath at 30-60 digits by plain Newton continuation; the
relative error of the leading term comes from the path representation

    vartheta(t, rho) = (2/sqrt(pi)) Int_0^inf e^(-s^2) delta(t s^2, rho) ds,

summed with a Gauss-Hermite rule, and theta is the leading term times
1 + vartheta.  On the certification grid and on point-eval cells in both of
ROADMAP item 4's defect regions this agrees with the oracle run at
measure_vartheta's doubled precision to about 1e-14, at a tenth of its cost.
"""

from __future__ import annotations

import math

import mpmath as mp

#: Gauss-Hermite nodes used for the path representation; 20 positive nodes
#: reproduce the oracle's vartheta to about 1e-14 on the certification grid.
HERMITE_NODES = 40


class ReferenceError(Exception):
    """A reference value could not be computed to its stated accuracy."""


def _saddle(rho):
    """(X, g0, mode) at the current mpmath precision.

    mode follows the package's branch convention: 0 sub-critical (saddle
    x1 + i pi, branch with Im d < 0), 1 super-critical (saddle i y1, branch
    with Re d > 0), 2 degenerate (saddle i pi, fourth-quadrant branch).
    """
    r = mp.mpf(rho)
    if r == 1:
        return mp.mpc(0, mp.pi), mp.sqrt(mp.mpf(3) / 2), 2
    # saddle equations in the form sinh(x)/x = 1/r (sub-critical, saddle x1 + i pi)
    # and sin(s)/s = 1/r (super-critical, saddle i (pi - s)): both stay well
    # conditioned as the root goes to 0 with r -> 1
    guess = mp.sqrt(6 * abs(1 / r - 1))
    if r < 1:
        x1 = mp.findroot(lambda x: mp.sinh(x) / x - 1 / r, (guess / 4, guess + 2 * mp.asinh(1 / r)),
                         solver="anderson")
        g0 = mp.sinh(x1) / mp.sqrt(2 * (r * mp.cosh(x1) - 1))
        return mp.mpc(x1, mp.pi), g0, 0
    s1 = mp.findroot(lambda s: mp.sin(s) / s - 1 / r, (min(guess, mp.pi) / 4, mp.pi), solver="anderson")
    y1 = mp.pi - s1
    g0 = mp.sin(y1) / mp.sqrt(2 * (r * mp.cos(y1) + 1))
    return mp.mpc(0, y1), g0, 1


def _h(xi, r):
    return xi * xi / 2 + r * mp.cosh(xi) - mp.j * mp.pi * xi


def saddle_exponent(rho: float) -> float:
    """F(rho) = h(saddle), real; theta carries e^(-(F - pi^2/2)/t)."""
    with mp.workdps(30):
        x, _, _ = _saddle(rho)
        return float(mp.re(_h(x, mp.mpf(rho))))


def delta_column(rho: float, taus, dps: int = 30) -> list[float]:
    """delta(tau, rho) at increasing positive taus, traced in mpmath."""
    with mp.workdps(dps):
        r = mp.mpf(rho)
        x, g0, mode = _saddle(rho)
        hx = _h(x, r)
        tol = mp.mpf(10) ** (8 - dps)

        def dh(d):
            return _h(x + d, r) - hx

        def dhp(d):
            return x + d + r * mp.sinh(x + d) - mp.j * mp.pi

        def solve(d, target):
            for _ in range(60):
                resid = dh(d) - target
                if abs(resid) <= tol * (abs(hx) + target):
                    return d
                d = d - resid / dhp(d)
            raise ReferenceError(f"reference path stalled at tau={float(target)!r}, rho={rho!r}")

        tau = min(mp.mpf(taus[0]), mp.mpf("1e-8"))
        if mode == 2:
            d = (24 * tau) ** 0.25 * mp.expjpi(-0.25)
        else:
            d = mp.sqrt(2 * tau / (1 + r * mp.cosh(x)))
            if (mode == 0 and mp.im(d) >= 0) or (mode == 1 and mp.re(d) <= 0):
                d = -d
        d = solve(d, tau)
        out = []
        for target in taus:
            target = mp.mpf(target)
            while tau < target:
                hp = dhp(d)
                step = min(target - tau, abs(hp) * min(mp.mpf("0.05"), abs(d) / 2))
                tau += step
                d = solve(d + step / hp, tau)
            g = mp.sinh(x + d) / dhp(d)
            out.append(float(mp.im(g) * mp.sqrt(target) / g0 - 1))
        return out


def delta_slope(rho: float) -> float:
    """delta'(0, rho), Richardson-extrapolated deep inside the quadratic regime.

    Near rho = 1 the quadratic local model of the path holds only for
    tau << 6 (rho - 1)^2, so the sample taus shrink with the distance to 1.
    """
    eps = abs(rho - 1.0)
    base = 1e-6 if eps == 0.0 else min(1e-6, 1e-2 * eps * eps)
    taus = [base * 1e-2, base * 1e-1, base]
    d_small, d_mid, d_large = delta_column(rho, taus, dps=60)
    f1, f2, f3 = d_large / taus[2], d_mid / taus[1], d_small / taus[0]
    r1 = (10.0 * f2 - f1) / 9.0
    r2 = (10.0 * f3 - f2) / 9.0
    rr = (100.0 * r2 - r1) / 99.0
    if not abs(rr - r2) < 1e-12:
        raise ReferenceError(f"reference slope at rho={rho!r} did not converge")
    return rr


def _hermite_positive(n: int):
    """Positive Gauss-Hermite nodes and weights (weight e^(-x^2)), n even.

    Newton iteration on the orthonormal Hermite recurrence, seeded with the
    usual asymptotic guesses for the largest roots.
    """
    xs: list[float] = []
    ws: list[float] = []
    z = 0.0
    for i in range(n // 2):
        if i == 0:
            z = math.sqrt(2 * n + 1) - 1.85575 * (2 * n + 1) ** -0.16667
        elif i == 1:
            z -= 1.14 * n**0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * xs[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * xs[1]
        else:
            z = 2.0 * z - xs[i - 2]
        for _ in range(100):
            p1, p2 = math.pi**-0.25, 0.0
            for j in range(n):
                p1, p2 = z * math.sqrt(2.0 / (j + 1)) * p1 - math.sqrt(j / (j + 1)) * p2, p1
            dp = math.sqrt(2 * n) * p2
            dz = p1 / dp
            z -= dz
            if abs(dz) <= 3e-15:
                break
        xs.append(z)
        ws.append(2.0 / (dp * dp))
    return xs[::-1], ws[::-1]


def vartheta_path(rho: float, t: float) -> float:
    """vartheta(t, rho) from the path representation, independent of the oracle."""
    xs, ws = _hermite_positive(HERMITE_NODES)
    deltas = delta_column(rho, [t * x * x for x in xs])
    return 2.0 / math.sqrt(math.pi) * math.fsum(w * d for w, d in zip(ws, deltas))


def theta_path(rho: float, t: float) -> float:
    """theta(rho/t, t) = G/(2 pi t) e^(-(F - pi^2/2)/t) (1 + vartheta), independent of the package."""
    with mp.workdps(30):
        x, g0, _ = _saddle(rho)
        exponent = mp.re(_h(x, mp.mpf(rho))) - mp.pi**2 / 2
        lead = mp.sqrt(2) * rho * g0 / (2 * mp.pi * t) * mp.exp(-exponent / t)
    return float(lead) * (1.0 + vartheta_path(rho, t))
