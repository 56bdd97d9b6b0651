"""Hartman-Watson integral theta(r, t): evaluation and error-bound certification.

Three independent evaluation routes:

* :func:`theta_direct` integrates the defining oscillatory integral under
  extended precision (the reference oracle);
* :func:`theta_leading` evaluates the leading-order saddle-point
  approximation through the geometry in :mod:`hwtheta.saddle_geometry`;
* :func:`theta_series_rho1` provides the exact-rational critical-point
  series at rho = r*t = 1.

The error of the leading term is certified two ways: measured directly as
:func:`measure_vartheta` = theta_direct/theta_leading - 1 against the bounds
t/70 and :func:`vartheta_max`, and traced at the source by following
steepest-descent paths (:mod:`hwtheta.descent_path`) and measuring the
deviation function delta(tau, rho) behind those bounds.
"""

from .approximation_and_bounds import (
    BoundReport,
    BoundRow,
    ThetaApprox,
    check_bound,
    ei_half,
    measure_vartheta,
    theta_approx,
    theta_leading,
    vartheta_max,
)
from .descent_path import (
    PathSample,
    PathTrace,
    SweepRow,
    SweepTable,
    delta,
    delta_double_prime_at_zero,
    delta_prime_at_zero,
    g_of_xi,
    sweep_delta,
    trace_path,
)
from .errors import (
    DomainError,
    ExtrapolationError,
    HwThetaError,
    PathError,
    PoleError,
    PrecisionOverflowError,
)
from .reference_quadrature import (
    DEFAULT_BITS_CEILING,
    EvalResult,
    Method,
    required_bits,
    theta_direct,
)
from .rho_one_series import (
    HalfPowerSeries,
    Q6,
    ThetaSeries,
    delta_large_tau,
    delta_series,
    im_g_series,
    invert_zeta_equation,
    theta_series_rho1,
)
from .saddle_geometry import (
    EPS_CRIT,
    F,
    G,
    Regime,
    SaddleData,
    classify,
    g0,
    h,
    saddle_data,
    solve_x1,
    solve_y1,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_BITS_CEILING",
    "EPS_CRIT",
    # saddle geometry
    "Regime",
    "SaddleData",
    "classify",
    "solve_x1",
    "solve_y1",
    "h",
    "g0",
    "F",
    "G",
    "saddle_data",
    # descent path
    "PathSample",
    "PathTrace",
    "SweepRow",
    "SweepTable",
    "g_of_xi",
    "trace_path",
    "delta",
    "delta_prime_at_zero",
    "delta_double_prime_at_zero",
    "sweep_delta",
    # critical-point series
    "Q6",
    "HalfPowerSeries",
    "ThetaSeries",
    "invert_zeta_equation",
    "im_g_series",
    "delta_series",
    "theta_series_rho1",
    "delta_large_tau",
    # reference quadrature
    "Method",
    "EvalResult",
    "required_bits",
    "theta_direct",
    # approximation and bounds
    "ThetaApprox",
    "BoundRow",
    "BoundReport",
    "theta_leading",
    "theta_approx",
    "measure_vartheta",
    "vartheta_max",
    "ei_half",
    "check_bound",
    # errors
    "HwThetaError",
    "DomainError",
    "PoleError",
    "PathError",
    "ExtrapolationError",
    "PrecisionOverflowError",
]
