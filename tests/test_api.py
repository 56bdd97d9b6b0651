"""The package surface: one refusal rule for arguments, and the exported names."""

import ast
import doctest
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hwtheta
import hwtheta._result as result
import hwtheta.approximation_and_bounds as ab
import hwtheta.descent_path as dp
import hwtheta.errors as errors
import hwtheta.reference_quadrature as rq
import hwtheta.rho_one_series as rs
import hwtheta.saddle_geometry as sg
from hwtheta.errors import DomainError

MODULES = (sg, dp, rs, result, rq, ab, errors)

README = Path(__file__).resolve().parent.parent / "README.md"

# not positive, not finite, or not a real at all: a string is refused even
# where float would parse it, as whole_number refuses "4", and a bool even
# though float(True) is 1.0
BAD = (0.0, -1.0, math.nan, math.inf, -math.inf, None, "abc", "1.0", 1j, True, False)

# every public entry point that takes rho, t, tau, r or z, with the name its
# refusal gives the argument, called with that argument bad and the rest good.
# Left out: delta_large_tau, whose domain is tau >= 100 with tau = inf as its
# limit -1.
ENTRY_POINTS = {
    "h": ("rho", lambda x: sg.h(1j, x)),
    "g0": ("rho", sg.g0),
    "F": ("rho", sg.F),
    "G": ("rho", sg.G),
    "saddle_data": ("rho", sg.saddle_data),
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
    "theta_direct-r": ("r", lambda x: rq.theta_direct(x, 0.5)),
    "theta_direct-t": ("t", lambda x: rq.theta_direct(2.0, x)),
    "theta_leading-rho": ("rho", lambda x: ab.theta_leading(x, 0.5)),
    "theta_leading-t": ("t", lambda x: ab.theta_leading(1.0, x)),
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
    assert len(hwtheta.__all__) == 42
    assert len(errors.__all__) == 5
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hwtheta, name) is getattr(module, name), name
    # the oracle's names load on first access, yet are listed, star-imported
    # and refused like eager ones
    assert hwtheta.reference_quadrature is rq
    assert {"reference_quadrature", *rq.__all__} <= set(dir(hwtheta))
    namespace = {}
    exec("from hwtheta import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(hwtheta.__all__)
    assert namespace["EvalResult"] is rq.EvalResult
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hwtheta.no_such_name
    # errors.py exports its exception types and not the refusal helpers
    assert errors.__all__ == [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    ]


def test_result_types_load_without_the_oracle():
    # EvalResult and Method live in _result, exported eagerly: looking them
    # up imports neither mpmath nor the oracle
    script = """
import sys
import hwtheta
assert hwtheta.EvalResult.__module__ == hwtheta.Method.__module__ == "hwtheta._result"
loaded = {"mpmath", "hwtheta.reference_quadrature"} & set(sys.modules)
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


# every entry point that takes a count, as (call, name, lo, hi): the count
# must be an integer in [lo, hi), or >= lo where hi is None
INTEGER_ENTRY_POINTS = {
    "invert_zeta_equation": (rs.invert_zeta_equation, "order", 2, None),
    "im_g_series": (rs.im_g_series, "order", 1, None),
    "delta_series": (rs.delta_series, "order", 1, None),
    "theta_series_rho1": (rs.theta_series_rho1, "order", 0, None),
    "HalfPowerSeries.term_magnitude": (lambda k: rs.im_g_series(4).term_magnitude(0.1, k), "term index k", 0, 4),
    "ThetaSeries.term_magnitude": (lambda k: rs.theta_series_rho1(4).term_magnitude(0.1, k), "term index k", 0, 4),
    "theta_direct": (lambda bits: rq.theta_direct(2.0, 0.5, bits), "bits", 64, None),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_integer_arguments_follow_one_rule(entry):
    call, name, lo, hi = INTEGER_ENTRY_POINTS[entry]
    call(lo)
    if hi is not None:
        call(hi - 1)
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    # an integral float is refused, never truncated, and a bool is not a
    # count; bits=None asks for the default sizing, so None is a bad count
    # everywhere else
    bads = [lo - 1, float(lo + 2), 4.7, math.nan, math.inf, "4", True, False]
    bads += [] if hi is None else [hi, hi + 5]
    bads += [] if name == "bits" else [None]
    for bad in bads:
        with pytest.raises(DomainError) as excinfo:
            call(bad)
        assert str(excinfo.value) == f"{name} must be an integer {span}, got {bad!r}"


def _used_names(path):
    """Every imported module or name, bare name and dotted attribute of a module."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            used.add(node.module or "")
        if isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(ast.unparse(node))
    return used


def test_integer_and_real_checks_live_in_errors_py():
    # operator, isfinite and float_info.min are used behind errors.py alone
    src = Path(errors.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "errors.py":
            found = {
                name
                for name in _used_names(path)
                if name.split(".")[0] == "operator" or name.endswith(("isfinite", "float_info.min"))
            }
            assert not found, (path.name, found)
    assert {"operator.index", "sys.float_info.min"} <= _used_names(src / "errors.py")


def _calls_by_function(path, match):
    """(file name, innermost enclosing function) of each call match accepts."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and match(node):
            found.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_each_printed_rule_is_written_once():
    src = Path(errors.__file__).parent
    paths = sorted(src.glob("*.py"))
    texts = {path.name: path.read_text() for path in paths}

    # every CSV row is joined, and every boolean lowercased, in csv_text;
    # outside any function only the CSV_HEADERs join their rows' _fields
    def csv_call(node):
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        joined = func.attr == "join" and ast.unparse(func.value) == "','"
        return joined or func.attr == "lower"

    found = {hit for path in paths for hit in _calls_by_function(path, csv_call)}
    assert found == {("_result.py", "csv_text"), ("descent_path.py", None), ("approximation_and_bounds.py", None)}
    assert dp.SweepTable.CSV_HEADER == ",".join(dp.SweepRow._fields)
    assert ab.BoundReport.CSV_HEADER == ",".join(ab.BoundRow._fields)
    assert not [name for name, text in texts.items() if ".17g},{" in text]
    # one failed-cell line, one "no cell was measured"
    assert sum(text.count('"cell ') for text in texts.values()) == 1
    assert 'f"cell (' in texts["cli.py"]
    assert sum(text.count("no cell was measured") for text in texts.values()) == 1
    # the CLI's counts go through errors.whole_number, not a check of its own
    assert "int(args." not in texts["cli.py"]
    assert not re.search(r"<=?\s*[12]\b", texts["cli.py"])


def test_one_rule_sizes_the_oracle():
    # a bit count is computed in reference_quadrature alone, and both runs
    # that size their own bits, theta_direct's default and measure_vartheta,
    # take it from the one rule
    paths = sorted(Path(errors.__file__).parent.glob("*.py"))

    def called(*names):
        def match(node):
            return ast.unparse(node.func).rsplit(".", 1)[-1] in names

        return {hit for path in paths for hit in _calls_by_function(path, match)}

    assert called("_required_bits", "log2") == {
        ("reference_quadrature.py", name)
        for name in ("_required_bits", "_cancellation_bits")
    }
    assert called("_cancellation_bits") == {
        ("reference_quadrature.py", "_validated"),
        ("approximation_and_bounds.py", "measure_vartheta"),
    }


def test_numpy_bool_is_not_a_real():
    # numpy's bool is no bool subclass, and float() takes it as 1.0
    np = pytest.importorskip("numpy")
    assert ab.theta_leading(np.float64(1.0), 0.5) == ab.theta_leading(1.0, 0.5)
    for bad in (np.True_, np.False_, np.array(True)):
        for name, call in ENTRY_POINTS.values():
            with pytest.raises(DomainError) as excinfo:
                call(bad)
            assert str(excinfo.value) == f"{name} must be a positive finite real, got {bad!r}"
        with pytest.raises(DomainError):
            errors.whole_number(bad, "order", 0)


def test_delta_large_tau_takes_inf_as_its_limit():
    # the one entry point outside the positive-finite-real rule, on purpose
    assert rs.delta_large_tau(math.inf) == -1.0
    assert rs.delta_large_tau(100.0) == -1.0 + math.pi * math.sqrt(2.0 / 300.0)
    for bad in (math.nan, 99.9, 0.0, -1.0, -math.inf, None, "1000", 1j, True):
        with pytest.raises(DomainError, match="requires tau >= 100"):
            rs.delta_large_tau(bad)


def test_readme_quick_start_prints_what_it_shows():
    # the README's Quick start block, run as a doctest: every value it shows
    # is the value the package returns, to the last printed digit
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)
    test = doctest.DocTestParser().get_doctest(block.group(1), {}, "README Quick start", str(README), 0)
    assert len(test.examples) == 8
    report = []
    failed, _ = doctest.DocTestRunner().run(test, out=report.append)
    assert failed == 0, "".join(report)
