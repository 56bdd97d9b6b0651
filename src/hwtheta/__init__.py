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

Only the oracle needs mpmath, and it loads on first use: importing the
package or :mod:`hwtheta.cli` leaves :mod:`hwtheta.reference_quadrature` and
mpmath unimported until one of the oracle's names (``theta_direct``, say) is
first looked up here or :func:`measure_vartheta` or :func:`check_bound`
first runs.  ``EvalResult`` and ``Method`` are not the oracle's: they load
with the package.
"""

from . import (
    _result,
    approximation_and_bounds,
    descent_path,
    errors,
    rho_one_series,
    saddle_geometry,
)
from ._result import *
from .approximation_and_bounds import *
from .descent_path import *
from .errors import *
from .rho_one_series import *
from .saddle_geometry import *

__version__ = "0.1.0"

#: reference_quadrature's __all__.  The oracle imports mpmath, so it and these
#: names load on first access, through __getattr__.
_ORACLE_NAMES = ("DEFAULT_BITS_CEILING", "required_bits", "theta_direct")

__all__ = [
    "__version__",
    *saddle_geometry.__all__,
    *descent_path.__all__,
    *rho_one_series.__all__,
    *_result.__all__,
    *_ORACLE_NAMES,
    *approximation_and_bounds.__all__,
    *errors.__all__,
]


def __getattr__(name):
    if name != "reference_quadrature" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    oracle = importlib.import_module(".reference_quadrature", __name__)
    return oracle if name == "reference_quadrature" else getattr(oracle, name)


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES, "reference_quadrature"})
