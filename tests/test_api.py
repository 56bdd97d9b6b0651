"""The package surface: one refusal rule for arguments, and the exported names."""

import math

import pytest

import hwtheta
import hwtheta.approximation_and_bounds as ab
import hwtheta.descent_path as dp
import hwtheta.errors as errors
import hwtheta.reference_quadrature as rq
import hwtheta.rho_one_series as rs
import hwtheta.saddle_geometry as sg
from hwtheta.errors import DomainError

MODULES = (sg, dp, rs, rq, ab, errors)

BAD = (0.0, -1.0, math.nan, math.inf, -math.inf)

# every public entry point that takes rho, t, tau, r or z, with the name its
# refusal gives the argument, called with that argument bad and the rest good.
# Left out: delta_large_tau, whose domain is tau >= 100 with tau = inf as its
# limit -1.
ENTRY_POINTS = {
    "classify": ("rho", sg.classify),
    "solve_x1": ("rho", sg.solve_x1),
    "solve_y1": ("rho", sg.solve_y1),
    "h": ("rho", lambda x: sg.h(1j, x)),
    "g0": ("rho", sg.g0),
    "F": ("rho", sg.F),
    "G": ("rho", sg.G),
    "saddle_data": ("rho", sg.saddle_data),
    "g_of_xi": ("rho", lambda x: dp.g_of_xi(1j, x)),
    "trace_path-rho": ("rho", lambda x: dp.trace_path(x, 1.0)),
    "trace_path-tau_max": ("tau_max", lambda x: dp.trace_path(1.0, x)),
    "delta-tau": ("tau", lambda x: dp.delta(x, 1.0)),
    "delta-rho": ("rho", lambda x: dp.delta(1.0, x)),
    "delta_prime_at_zero": ("rho", dp.delta_prime_at_zero),
    "delta_double_prime_at_zero": ("rho", dp.delta_double_prime_at_zero),
    "sweep_delta-rho": ("rho grid entry", lambda x: dp.sweep_delta([x], [1.0])),
    "sweep_delta-tau": ("tau grid entry", lambda x: dp.sweep_delta([1.0], [1.0, x])),
    "im_g_series": ("tau", rs.im_g_series(4).evaluate),
    "delta_series": ("tau", rs.delta_series(4).evaluate),
    "invert_zeta_equation": ("tau", rs.invert_zeta_equation(4).evaluate),
    "theta_series.bracket": ("t", rs.theta_series_rho1(4).bracket),
    "theta_series.evaluate": ("t", rs.theta_series_rho1(4).evaluate),
    "im_g_series.term_magnitude": ("tau", lambda x: rs.im_g_series(4).term_magnitude(x, 1)),
    "theta_series.term_magnitude": ("t", lambda x: rs.theta_series_rho1(4).term_magnitude(x, 1)),
    "required_bits": ("t", rq.required_bits),
    "theta_direct-r": ("r", lambda x: rq.theta_direct(x, 0.5)),
    "theta_direct-t": ("t", lambda x: rq.theta_direct(2.0, x)),
    "theta_leading-rho": ("rho", lambda x: ab.theta_leading(x, 0.5)),
    "theta_leading-t": ("t", lambda x: ab.theta_leading(1.0, x)),
    "theta_approx-rho": ("rho", lambda x: ab.theta_approx(x, 0.5)),
    "theta_approx-t": ("t", lambda x: ab.theta_approx(1.0, x)),
    "measure_vartheta-rho": ("rho", lambda x: ab.measure_vartheta(x, 0.5)),
    "measure_vartheta-t": ("t", lambda x: ab.measure_vartheta(1.0, x)),
    "vartheta_max": ("t", ab.vartheta_max),
    "ei_half": ("z", ab.ei_half),
    "check_bound-rho": ("rho grid entry", lambda x: ab.check_bound([1.0, x], [0.1])),
    "check_bound-t": ("t grid entry", lambda x: ab.check_bound([1.0], [x])),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_arguments_must_be_positive_finite_reals(entry):
    name, call = entry
    for bad in BAD:
        with pytest.raises(DomainError) as excinfo:
            call(bad)
        assert str(excinfo.value) == f"{name} must be a positive finite real, got {bad!r}"


def test_package_exports_each_module_list_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(hwtheta.__all__) == sorted(["__version__", *names])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hwtheta, name) is getattr(module, name), name
    # errors.py exports its exception types and not the refusal helpers
    assert errors.__all__ == [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    ]


@pytest.mark.parametrize("series", [rs.im_g_series(4), rs.theta_series_rho1(4)], ids=["im_g", "theta"])
def test_term_magnitude_index_must_be_a_coefficient_index(series):
    assert series.term_magnitude(0.1, 0) > 0.0
    assert series.term_magnitude(0.1, 3) > 0.0
    for bad in (-1, -5, 4, 9, 1.5, 2.0, "1", None):
        with pytest.raises(DomainError) as excinfo:
            series.term_magnitude(0.1, bad)
        assert str(excinfo.value) == f"term index k must be an integer in [0, 4), got {bad!r}"


def test_delta_large_tau_takes_inf_as_its_limit():
    # the one entry point outside the positive-finite-real rule, on purpose
    assert rs.delta_large_tau(math.inf) == -1.0
    assert rs.delta_large_tau(100.0) == -1.0 + math.pi * math.sqrt(2.0 / 300.0)
    for bad in (math.nan, 99.9, 0.0, -1.0, -math.inf):
        with pytest.raises(DomainError, match="requires tau >= 100"):
            rs.delta_large_tau(bad)
