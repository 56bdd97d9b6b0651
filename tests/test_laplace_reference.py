"""theta_direct against a reference that shares no code with it: the
Hartman-Watson Laplace transform, inverted numerically.

theta(r, .) is the density with Int_0^inf e^(-mu^2 t/2) theta(r, t) dt =
I_mu(r), so theta(r, t) is the inverse Laplace transform of
s -> I_sqrt(2s)(r) at t, here by mpmath's Talbot contour.
"""

import functools
import math

import mpmath as mp
import pytest

import hwtheta.reference_quadrature as rq
import hwtheta.saddle_geometry as sg


def _inverted(r, t, dps):
    with mp.workdps(dps):
        return mp.invertlaplace(lambda s: mp.besseli(mp.sqrt(2 * s), r), t, method="talbot")


@functools.lru_cache(maxsize=None)
def theta_laplace(r, t):
    """theta(r, t) as a double from the inverted transform.

    The contour's terms cancel about (|F - pi^2/2| + pi^2/2)/t nats, F the
    saddle exponent at rho = r t, and the inversion runs 30 digits above
    that.  The saddle only sizes the digits: a second inversion at 1.5 times
    as many must agree far below a double's rounding.
    """
    cancel = abs(sg.F(r * t) - sg._HALF_PI_SQ) + sg._HALF_PI_SQ
    dps = 30 + math.ceil(cancel / (t * math.log(10.0)))
    value = _inverted(r, t, dps)
    check = _inverted(r, t, math.ceil(1.5 * dps))
    with mp.workdps(dps):
        assert abs(value / check - 1) < mp.mpf(10) ** -25, (r, t, dps)
    return float(value)


# (rho, t): the critical point, both sides of it, ROADMAP item 4's
# sub-critical cell and a large rho
CELLS = [(1.0, 0.5), (2.0, 0.2), (0.5, 0.2), (0.05, 0.1), (10.0, 0.5)]

LARGE_T = pytest.param(
    2.0,
    10.0,
    marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: at (r, t) = (0.2, 10) the 24-point panel rule "
        "is 2.8e-6 off theta while error_estimate reads 1.8e-19",
    ),
    id="2.0-10.0",
)


@pytest.mark.parametrize("rho, t", [*CELLS, LARGE_T])
def test_theta_direct_matches_the_inverted_laplace_transform(rho, t):
    r = rho / t
    assert rq.theta_direct(r, t).theta == pytest.approx(theta_laplace(r, t), rel=1e-14)


def test_the_inversion_at_large_t_is_the_tabulated_value():
    # the reference the large-t cell misses, so that cell fails on theta_direct
    # alone
    assert theta_laplace(0.2, 10.0) == pytest.approx(0.023877424940130704, rel=1e-15)
