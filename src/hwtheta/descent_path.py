"""Steepest-descent path tracing and the error function delta(tau, rho).

Away from its saddle X, the phase h has a level curve xi(tau) defined by
h(xi(tau)) - h(X) = tau with tau real and increasing (the descent path).
Along it the integrand factor

    g(xi) = sinh(xi) / (xi + rho*sinh(xi) - i*pi)

behaves like Im g ~ g0/sqrt(tau) as tau -> 0+, and the relative deviation

    delta(tau, rho) = Im g(xi(tau)) * sqrt(tau) / g0 - 1

is the quantity whose conjectured bound |delta| <= min(tau/35, 1) drives the
error estimate of the leading-order approximation.  This module traces the
path, evaluates delta on grids, extracts the small-tau slope delta'(0, rho)
by Richardson extrapolation, and serializes sweep tables.

The continuation arithmetic lives in the kernel module _descent_py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import _descent_py as _kernel
from . import saddle_geometry as sg
from ._result import csv_text
from .errors import DomainError, ExtrapolationError, PathError, positive_real

__all__ = [
    "PathSample",
    "PathTrace",
    "SweepRow",
    "SweepTable",
    "trace_path",
    "delta",
    "delta_prime_at_zero",
    "delta_double_prime_at_zero",
    "sweep_delta",
]

#: tau values used for the small-tau Richardson extrapolations, ascending.
_RICHARDSON_TAUS = (1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class PathSample:
    """One point on a descent path.

    Attributes
    ----------
    tau : float
        Path parameter, tau = h(xi) - h(X) > 0.
    xi : complex
        Point on the path.
    g : complex
        g(xi) = sinh(xi)/(xi + rho*sinh(xi) - i*pi).
    im_g : float
        Imaginary part of g.
    delta : float
        im_g * sqrt(tau)/g0 - 1.
    """

    tau: float
    xi: complex
    g: complex
    im_g: float
    delta: float


@dataclass(frozen=True)
class PathTrace:
    """A traced descent path: ordered samples plus the saddle they started from."""

    rho: float
    samples: tuple[PathSample, ...]
    saddle: sg.SaddleData


class SweepRow(NamedTuple):
    rho: float
    tau: float
    delta: float
    bound_ratio: float


@dataclass(frozen=True)
class SweepTable:
    """Row-complete delta sweep; failed cells are listed, not silently dropped."""

    rows: tuple[SweepRow, ...]
    failures: tuple[tuple[float, float, str], ...]

    CSV_HEADER = ",".join(SweepRow._fields)

    def to_csv(self) -> str:
        return csv_text(SweepRow._fields, self.rows)


def _expansion_data(sd: sg.SaddleData):
    """Saddle-local constants for the kernel: (rho, sX, cX, h2, h3, mode).

    In the critical band the degenerate machinery is used with rho set to
    exactly 1 (sX = 0, cX = -1, h2 = 0): feeding the band's actual rho into
    the quartic seed follows the wrong local structure at tiny tau.
    """
    if sd.regime is sg.Regime.CRITICAL:
        return 1.0, 0j, complex(-1.0), 0j, 0j, 2
    if sd.regime is sg.Regime.SUB_CRITICAL:
        sx = complex(-math.sinh(sd.x1))
        cx = complex(-math.cosh(sd.x1))
        mode = 0
    else:
        sx = 1j * math.sin(sd.y1)
        cx = complex(math.cos(sd.y1))
        mode = 1
    h2 = 1.0 + sd.rho * cx
    h3 = sd.rho * sx
    return sd.rho, sx, cx, h2, h3, mode


def _run_kernel(sd: sg.SaddleData, targets: Sequence[float], record_all: bool = False):
    """The kernel's (tau, d, g) points; a stall raises PathError."""
    return _kernel.trace(*_expansion_data(sd), list(targets), record_all)


def _delta_of(sd: sg.SaddleData, tau: float, g: complex) -> float:
    """delta = Im g * sqrt(tau)/g0 - 1, or PathError where g or delta is not
    finite (_not_finite); a finite delta has a finite Im g."""
    value = g.imag * math.sqrt(tau) / sd.g0 - 1.0
    if not (abs(value) < math.inf and abs(g.real) < math.inf):  # nan compares false
        raise _not_finite(sd, tau)
    return value


def _not_finite(sd: sg.SaddleData, tau: float) -> PathError:
    """The refusal of a path point whose g or delta is not finite.  The
    kernel forms sinh(X + d) from sinh X, which overflows once Re xi passes
    asinh(DBL_MAX): at rho = 1e-300 (x1 = 698) for tau above about 3e8."""
    return PathError(
        f"delta(tau={tau!r}, rho={sd.rho!r}) is not finite: g overflows where the "
        f"path leaves the double range",
        last_good_tau=tau,
    )


def _to_sample(sd: sg.SaddleData, tau: float, d: complex, g: complex) -> PathSample:
    return PathSample(
        tau=tau,
        xi=sd.xi_saddle + d,
        g=g,
        im_g=g.imag,
        delta=_delta_of(sd, tau, g),
    )


def trace_path(rho: float, tau_max: float) -> PathTrace:
    """Trace the descent path from the saddle out to tau_max.

    Every accepted continuation step is reported, so the samples cover
    (0, tau_max] from the seeding scale upward with |xi_{k+1} - xi_k| <= 0.1.
    The final sample sits exactly at tau_max.  The tracer's tolerances are
    fixed kernel constants (relative residual 1e-12, below the documented
    1e-10 sample invariants).
    """
    rho = positive_real(rho, "rho")
    tau_max = positive_real(tau_max, "tau_max")
    sd = sg.saddle_data(rho)
    points = _run_kernel(sd, [tau_max], record_all=True)
    samples = tuple(_to_sample(sd, tau, d, g) for tau, d, g in points)
    return PathTrace(rho=rho, samples=samples, saddle=sd)


def delta(tau: float, rho: float) -> float:
    """delta(tau, rho) = Im g(xi(tau)) * sqrt(tau)/g0(rho) - 1 from the traced path."""
    tau = positive_real(tau, "tau")
    sd = sg.saddle_data(positive_real(rho, "rho"))
    ((_, _, g),) = _run_kernel(sd, [tau])
    return _delta_of(sd, tau, g)


def _delta_on_grid(sd: sg.SaddleData, taus: Sequence[float]) -> list[float]:
    """delta at each tau of one kernel run, by _delta_of's expression, or nan
    where Re g is not finite."""
    g0 = sd.g0
    inf = math.inf
    return [
        g.imag * math.sqrt(t) / g0 - 1.0 if abs(g.real) < inf else math.nan
        for t, _, g in _run_kernel(sd, taus)
    ]


def _richardson_slope(rho: float) -> tuple[float, float, float]:
    """(f2, f3, slope): delta/tau at tau = 1e-3 and 1e-4, and the converged
    slope delta'(0, rho); see delta_prime_at_zero."""
    rho = positive_real(rho, "rho")
    sd = sg.saddle_data(rho)
    d_small, d_mid, d_large = _delta_on_grid(sd, _RICHARDSON_TAUS)
    tau_small, tau_mid, tau_large = _RICHARDSON_TAUS
    f1 = d_large / tau_large
    f2 = d_mid / tau_mid
    f3 = d_small / tau_small
    r1 = (10.0 * f2 - f1) / 9.0
    r2 = (10.0 * f3 - f2) / 9.0
    rr = (100.0 * r2 - r1) / 99.0
    gap = abs(rr - r2)
    if not (gap < 1e-6):
        raise ExtrapolationError(
            f"delta'(0, rho={rho:.17g}) extrapolation gap {gap:.3e} exceeds 1e-6 "
            f"(extrapolants {r1!r}, {r2!r}, {rr!r})",
            estimate=rr,
            convergence=gap,
        )
    return f2, f3, rr


def delta_prime_at_zero(rho: float) -> float:
    """Small-tau slope delta'(0, rho) by Richardson extrapolation.

    delta/tau is sampled at tau = 1e-2, 1e-3, 1e-4 (one continuation run)
    and extrapolated twice with step ratio 10.  The gap between the last two
    extrapolants must fall below 1e-6, else ExtrapolationError carries the
    best estimate and the observed gap.  The slope is accurate to 1e-6
    absolute, not relative: delta carries about 1e-16 of absolute rounding,
    so where the slope is small (about -1/(4 rho) for rho >= 1e7) few or
    none of its printed digits are right.
    """
    return _richardson_slope(rho)[2]


def delta_double_prime_at_zero(rho: float) -> float:
    """Small-tau curvature delta''(0, rho), extrapolated from traced values.

    Uses the converged slope from delta_prime_at_zero (and raises its
    ExtrapolationError when that does not converge), forms
    (delta/tau - slope)/tau at tau = 1e-3 and 1e-4, and Richardson-steps
    once; twice that limit is the second derivative.  Accurate to roughly
    1e-6 near rho = 1: the slope error enters amplified by 1/tau, so most
    of the budget is spent re-subtracting the first-order term.
    """
    f2, f3, slope = _richardson_slope(rho)
    tau_small, tau_mid, _ = _RICHARDSON_TAUS
    g_mid = (f2 - slope) / tau_mid
    g_small = (f3 - slope) / tau_small
    return 2.0 * (10.0 * g_small - g_mid) / 9.0


def sweep_delta(rho_grid: Sequence[float], tau_grid: Sequence[float]) -> SweepTable:
    """Evaluate delta and its bound ratio |delta|/min(tau/35, 1) on a grid.

    One continuation run per rho covers its whole tau column.  If a column
    run fails, the column is retried cell by cell so that only genuinely
    unreachable cells go missing; those are recorded on ``failures``, as is
    a cell whose g or delta is not finite (rho = 1e-300 at tau above about
    3e8), which delta refuses with PathError.
    """
    rho_grid = [positive_real(r, "rho grid entry") for r in rho_grid]
    tau_grid = [positive_real(t, "tau grid entry") for t in tau_grid]
    if not rho_grid or not tau_grid:
        raise DomainError("sweep grids must be non-empty")
    if sorted(rho_grid) != rho_grid or sorted(tau_grid) != tau_grid:
        raise DomainError("sweep grids must be sorted ascending")
    if len(set(tau_grid)) != len(tau_grid):
        raise DomainError("tau grid must not contain duplicates")

    rows: list[SweepRow] = []
    failures: list[tuple[float, float, str]] = []
    for rho in rho_grid:
        sd = sg.saddle_data(rho)
        try:
            deltas = _delta_on_grid(sd, tau_grid)
            cells = zip(tau_grid, deltas)
        except PathError:
            cells = []
            for tau in tau_grid:
                try:
                    cells.append((tau, _delta_on_grid(sd, [tau])[0]))
                except PathError as exc:
                    failures.append((rho, tau, str(exc)))
        for tau, dval in cells:
            size = abs(dval)
            if size < math.inf:  # nan compares false
                # fields in SweepRow's order: rho, tau, delta, bound_ratio
                rows.append(SweepRow(rho, tau, dval, size / min(tau / 35.0, 1.0)))
            else:
                failures.append((rho, tau, str(_not_finite(sd, tau))))
    return SweepTable(rows=tuple(rows), failures=tuple(failures))
