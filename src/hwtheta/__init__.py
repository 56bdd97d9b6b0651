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

from . import (
    approximation_and_bounds,
    descent_path,
    errors,
    reference_quadrature,
    rho_one_series,
    saddle_geometry,
)
from .approximation_and_bounds import *
from .descent_path import *
from .errors import *
from .reference_quadrature import *
from .rho_one_series import *
from .saddle_geometry import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (
        saddle_geometry,
        descent_path,
        rho_one_series,
        reference_quadrature,
        approximation_and_bounds,
        errors,
    )
    for name in module.__all__
]
