"""Command-line interface: output formats, exit codes, determinism."""

import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hwtheta.approximation_and_bounds as ab
import hwtheta.cli as cli
import hwtheta.descent_path as dp
from hwtheta.errors import PathError

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_direct_json(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--rho", "1", "--t", "0.5", "--method", "direct", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert payload["method"] == "direct"
    assert payload["precision_used_bits"] == 79
    assert payload["theta"] == pytest.approx(4.045329090148301, rel=1e-13)
    assert payload["error_estimate"] < 1e-12


def test_eval_asymptotic_text(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--rho", "2", "--t", "0.25", "--method", "asymptotic"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("theta = ")
    assert lines[1] == "method = asymptotic"
    assert lines[2] == "precision_used_bits = 53"
    assert lines[3].startswith("error_estimate = ")
    theta = float(lines[0].split("=")[1])
    assert theta == pytest.approx(ab.theta_leading(2.0, 0.25), rel=1e-14)
    err = float(lines[3].split("=")[1])
    assert err == pytest.approx(ab.vartheta_max(0.25), rel=1e-14)


def test_eval_series_requires_critical_rho(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--rho", "1.5", "--t", "0.5", "--method", "series"
    )
    assert code == 2
    assert err
    # the band is saddle_data's: just outside it refused, just inside it served
    for rho in (1.0 + 2e-6, 1.0 - 2e-6):
        code, out, err = run_cli(
            capsys, "eval", "--rho", repr(rho), "--t", "0.5", "--method", "series"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: --method series is valid only within |rho - 1| <= 1e-06, got rho={rho!r}\n"
        )
    for rho in (1.0 + 9e-7, 1.0 - 9e-7):
        code, out, _ = run_cli(
            capsys, "eval", "--rho", repr(rho), "--t", "0.5", "--method", "series"
        )
        assert code == 0 and out.startswith("theta = ")
    # beyond the saddle's range its own refusal comes first, with the same code
    code, out, err = run_cli(capsys, "eval", "--rho", "1e300", "--t", "0.5", "--method", "series")
    assert (code, out) == (2, "")
    assert err.startswith("error: g0 at rho=1e+300 ")


def test_eval_series_at_critical_rho(capsys):
    import hwtheta.rho_one_series as rs

    code, out, _ = run_cli(
        capsys, "eval", "--rho", "1", "--t", "0.25", "--method", "series", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    expected = rs.theta_series_rho1(6).evaluate(0.25)
    assert payload["theta"] == expected
    assert payload["method"] == "series-rho1"


def test_eval_series_below_double_range_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--rho", "1", "--t", "0.001", "--method", "series"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1.4195e-3" in err


def test_eval_series_past_the_double_range_exits_2(capsys):
    # t^k overflows a double here; before the refusal this was a traceback
    code, out, err = run_cli(capsys, "eval", "--rho", "1", "--t", "1e100", "--method", "series")
    assert code == 2
    assert out == ""
    assert err == "error: t^4 overflows a double at t=1e+100\n"


@pytest.mark.parametrize("t", ["24.35", "30", "1e6"])
def test_eval_series_past_the_positive_partial_sum_exits_2(capsys, t):
    # the six-term bracket crosses zero at t = 24.3454; theta is positive
    code, out, err = run_cli(capsys, "eval", "--rho", "1", "--t", t, "--method", "series")
    assert code == 2
    assert out == ""
    assert err.startswith("error: theta series of order 6 has partial sum ")
    code, out, _ = run_cli(capsys, "eval", "--rho", "1", "--t", "24.34", "--method", "series")
    assert code == 0
    assert float(out.split()[2]) > 0.0


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(
    "rho, t, lead",
    [("1", "0.001", "inf"), ("0.01", "0.001", "0.0"), ("0.02", "0.02", "e-313")],
    ids=["overflow", "underflow", "subnormal"],
)
def test_eval_asymptotic_outside_double_range_exits_2(capsys, rho, t, lead, json_flag):
    code, out, err = run_cli(
        capsys, "eval", "--rho", rho, "--t", t, "--method", "asymptotic", *json_flag
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: leading term at ")
    assert f"{lead}, outside the range of a double" in err


@pytest.mark.parametrize("rho, g0", [("1e300", "0.0")])
def test_eval_direct_outside_double_range_exits_2(capsys, rho, g0):
    # the default bits are sized from the saddle, whose g0 underflows first
    code, out, err = run_cli(capsys, "eval", "--rho", rho, "--t", "0.5", "--method", "direct")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: g0 at rho=1e+300 is {g0}, outside the range of a double")


def test_eval_direct_far_sub_critical_exits_3(capsys):
    # theta at rho = 1e-300 is about e^(-486,000): 700,986 bits, above the ceiling
    code, out, err = run_cli(capsys, "eval", "--rho", "1e-300", "--t", "0.5", "--method", "direct")
    assert (code, out) == (3, "")
    assert "needs 700986 bits of working precision, above the ceiling of 4096" in err


def test_eval_direct_rule_and_refusal_of_short_bits(capsys):
    # the default bits cover the saddle's cancellation, and an explicit
    # --bits that does not is refused, not printed as a negative theta
    code, out, _ = run_cli(capsys, "eval", "--rho", "0.05", "--t", "0.1", "--method", "direct")
    assert code == 0
    assert "theta = 2.0964323407950405e-39\n" in out
    argv = ("eval", "--rho", "0.05", "--t", "0.1", "--method", "direct", "--bits", "136")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: theta(r=0.5, t=0.1) at 136 bits is -2.17710841992248e-23")


def test_eval_rejects_bad_domain(capsys):
    code, _, err = run_cli(capsys, "eval", "--rho", "1", "--t", "-1", "--method", "direct")
    assert code == 2
    assert err


def test_eval_precision_ceiling_maps_to_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("HW_MAX_BITS", "100")
    code, _, err = run_cli(
        capsys, "eval", "--rho", "1", "--t", "0.1", "--method", "direct"
    )
    assert code == 3
    assert err


def test_eval_direct_bit_count_beyond_double_range_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--rho", "1e-300", "--t", "1e-320", "--method", "direct"
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: t=1e-320 needs more than 10^308 bits")


def test_eval_bits_out_of_range(capsys):
    argv = ("eval", "--rho", "1", "--t", "0.5", "--method", "direct", "--bits")
    code, out, err = run_cli(capsys, *argv, "32")
    assert (code, out) == (2, "")
    assert "bits must be an integer >= 64" in err
    code, out, err = run_cli(capsys, *argv, "5000")
    assert (code, out) == (3, "")
    assert "ceiling" in err


@pytest.mark.parametrize("method, bits", [("asymptotic", "7"), ("asymptotic", "100"), ("series", "100")])
def test_eval_bits_needs_the_direct_method(capsys, method, bits):
    # only the oracle has a working precision; the other methods ignored it
    argv = ("eval", "--rho", "1", "--t", "0.5", "--method", method, "--bits", bits)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --bits applies to --method direct only, got --method {method}\n"


def test_eval_bits_with_too_many_panels_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "eval", "--rho", "1e-300", "--t", "1e-320", "--method", "direct", "--bits", "100"
    )
    assert (code, out) == (2, "")
    assert "quadrature panels, above the cap" in err


@pytest.mark.parametrize("t", ["1e20", "1e4", "356"])
def test_eval_direct_with_panels_past_the_double_range_exits_2(capsys, t):
    # past xi = asinh(DBL_MAX) the envelope's exponent has thousands of
    # digits: mpmath overflowed at t = 1e20 and ran on past 20 s at 1e4
    code, out, err = run_cli(capsys, "eval", "--rho", "1", "--t", t, "--method", "direct")
    assert (code, out) == (2, "")
    assert err.startswith("error: theta(r=")
    assert "where cosh(xi) leaves the double range" in err


def test_eval_direct_at_the_last_t_below_the_panel_limit(capsys):
    # two panels of width 355 end at 710 < asinh(DBL_MAX) = 710.48
    code, out, _ = run_cli(capsys, "eval", "--rho", "1", "--t", "355", "--method", "direct")
    assert code == 0
    assert out.startswith("theta = 0.000147549829310408")


@pytest.mark.parametrize("rho", ["1e300", "1e-300"])
def test_eval_asymptotic_at_extreme_rho_exits_2(capsys, rho):
    code, out, err = run_cli(capsys, "eval", "--rho", rho, "--t", "0.5", "--method", "asymptotic")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_extreme_rho_commands_do_not_crash(capsys):
    # below rho = 1e-205 x1 is near sinh's overflow; each command answers
    # or reports a failed cell
    for argv in (
        ("sweep-delta", "--rho-list", "1e-300", "--tau-max", "10", "--points", "4"),
        ("delta-prime", "--rho-min", "1e-300", "--rho-max", "1e-299", "--points", "2"),
        ("verify-bound", "--rho-grid", "1e-300,1e300", "--t-grid", "0.1"),
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code in (0, 3), argv


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["eval", "--rho", "1"])  # missing --t
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_usage_error_exit_code_in_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hwtheta.cli", "eval", "--rho", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_sweep_delta_output(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "sweep-delta", "--rho", "0.5,2", "--tau-max", "2", "--points", "8",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho,tau,delta,bound_ratio"
    assert len(lines) == 1 + 2 * 8
    for line in lines[1:]:
        rho, tau, delta, ratio = line.split(",")
        assert float(delta) < 0.0
        assert 0.0 <= float(ratio) <= 1.0 + 1e-3
    # --out writes the same bytes to a file
    target = tmp_path / "sweep.csv"
    code2, out2, _ = run_cli(
        capsys,
        "sweep-delta", "--rho", "0.5,2", "--tau-max", "2", "--points", "8",
        "--out", str(target),
    )
    assert code2 == 0
    assert target.read_bytes().decode() == out


def test_sweep_delta_validation(capsys):
    for argv in (
        ["sweep-delta", "--rho", "1", "--tau-max", "2", "--points", "1"],
        ["sweep-delta", "--rho", "1", "--tau-max", "-1", "--points", "8"],
        ["sweep-delta", "--rho", "", "--tau-max", "2", "--points", "8"],
        ["sweep-delta", "--rho", "1,abc", "--tau-max", "2", "--points", "8"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err


def test_sweep_delta_refuses_a_subnormal_tau_max(capsys):
    # the grid at tau_max = 1e-320 printed bound_ratio inf and exited 0
    argv = ("sweep-delta", "--rho-list", "2", "--tau-max", "1e-320", "--points", "2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tau-max must be at least the least normal double")


def test_sweep_delta_exit_3_on_failed_cells(capsys, monkeypatch):
    real_trace = dp._kernel.trace

    def stall_above_one(rho, *args):
        if rho > 1.0:
            raise PathError("synthetic stall", last_good_tau=0.0)
        return real_trace(rho, *args)

    monkeypatch.setattr(dp._kernel, "trace", stall_above_one)
    code, out, err = run_cli(
        capsys, "sweep-delta", "--rho", "0.5,2", "--tau-max", "1", "--points", "3"
    )
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "rho,tau,delta,bound_ratio"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5"] * 3
    # failed cells print at the CSV's 17 significant digits
    assert "cell (rho=2, tau=0.33333333333333331) failed: synthetic stall" in err
    assert err.count("failed") == 3


def test_delta_prime_output(capsys):
    code, out, _ = run_cli(
        capsys, "delta-prime", "--rho-min", "0.5", "--rho-max", "2", "--points", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rho,delta_prime0"
    assert len(lines) == 4
    mid = lines[2].split(",")
    assert float(mid[0]) == pytest.approx(1.0, rel=1e-12)
    assert float(mid[1]) == pytest.approx(-1.0 / 35.0, abs=1e-6)


def test_delta_prime_exit_3_on_failed_cell(capsys):
    # just outside the critical band the slope extrapolation does not converge
    code, out, err = run_cli(
        capsys, "delta-prime", "--rho-min", "1.000002", "--rho-max", "1.0001",
        "--points", "2",
    )
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "rho,delta_prime0"
    assert len(lines) == 2 and lines[1].startswith("1.0001,")
    assert "cell (rho=1.0000020000000001) failed: " in err
    # the CLI prefix and the embedded ExtrapolationError spell rho alike
    (line,) = [ln for ln in err.splitlines() if ln.startswith("cell (rho=")]
    assert re.findall(r"rho=([^,) ]+)", line) == ["1.0000020000000001"] * 2


def test_delta_prime_validation(capsys):
    code, _, err = run_cli(
        capsys, "delta-prime", "--rho-min", "2", "--rho-max", "1", "--points", "3"
    )
    assert code == 2
    assert err


def test_series_fractions(capsys):
    code, out, _ = run_cli(capsys, "series", "--order", "6")
    assert code == 0
    for frag in (
        "(3)/sqrt(6)",
        "(-3/35)/sqrt(6)",
        "(7/2750)/sqrt(6)",
        "(-44081/656906250)/sqrt(6)",
        "(1495665023/1039685521875000)/sqrt(6)",
        "(-136866795413/7532521605984375000)/sqrt(6)",
    ):
        assert frag in out, frag
    assert "t^1  -1/70" in out
    assert "t^2  7/11000" in out


def test_series_decimal_and_full(capsys):
    code, out, _ = run_cli(capsys, "series", "--order", "4", "--decimal", "10")
    assert code == 0
    assert "  =  " in out
    code, full_out, _ = run_cli(capsys, "series", "--order", "4", "--full")
    assert code == 0
    assert "(-tau)^" in full_out
    assert len(full_out) > len(out.replace("  =  ", ""))


def test_series_full_decimal_renders_the_reversion_coefficients(capsys):
    code, out, _ = run_cli(capsys, "series", "--order", "3", "--full", "--decimal", "8")
    assert code == 0
    assert out.endswith(
        "zeta^2(tau): sum of b_m (-tau)^(m/2) under sqrt(-tau) = -i sqrt(tau), 3 terms\n"
        "  (-tau)^(1/2)  2*sqrt(6)  =  4.8989795\n"
        "  (-tau)^(1)  -2/5  =  -0.40000000\n"
        "  (-tau)^(3/2)  (2/105)*sqrt(6)  =  0.046656947\n"
    )


def test_series_order_validation(capsys):
    code, _, err = run_cli(capsys, "series", "--order", "0")
    assert code == 2
    assert err


@pytest.mark.parametrize("decimal", ["0", "-5"])
def test_series_decimal_validation(capsys, decimal):
    code, out, err = run_cli(capsys, "series", "--order", "2", "--decimal", decimal)
    assert (code, out) == (2, "")
    assert "--decimal must be an integer >= 1" in err


def test_verify_bound_small_grid(capsys):
    code, out, err = run_cli(
        capsys, "verify-bound", "--rho-grid", "0.5,1", "--t-grid", "0.1,0.2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("rho,t,vartheta,")
    assert len(lines) == 5
    assert "true" in out and "True" not in out
    assert "over 4 cells" in err
    assert "max |vartheta|*70/t" in err


def test_verify_bound_exit_1_when_bound_violated(capsys, monkeypatch):
    monkeypatch.setattr(ab, "measure_vartheta", lambda rho, t: 1.0)
    code, _, _ = run_cli(
        capsys, "verify-bound", "--rho-grid", "1", "--t-grid", "0.2"
    )
    assert code == 1


def test_verify_bound_exit_3_on_oracle_failure(capsys, monkeypatch):
    monkeypatch.setenv("HW_MAX_BITS", "100")
    code, _, _ = run_cli(
        capsys, "verify-bound", "--rho-grid", "1", "--t-grid", "0.05,0.2"
    )
    assert code == 3


def test_verify_bound_exit_3_on_underflowing_leading_term(capsys):
    code, out, err = run_cli(
        capsys, "verify-bound", "--rho-grid", "0.01", "--t-grid", "0.025"
    )
    assert code == 3
    assert "cell" in err and "failed" in err
    assert out.splitlines()[0].startswith("rho,t,vartheta")


def test_verify_bound_summary_without_measured_cells(capsys, tmp_path):
    argv = ("verify-bound", "--rho-grid", "0.01", "--t-grid", "0.025")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.splitlines()[-1] == "max |vartheta|*70/t: no cell was measured"
    assert "over 0 cells" not in err
    out_file = tmp_path / "bound.csv"
    code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 3
    assert out == "max |vartheta|*70/t: no cell was measured\n"
    assert out_file.read_text() == ab.BoundReport.CSV_HEADER + "\n"


def test_verify_bound_empty_grid(capsys):
    code, _, _ = run_cli(capsys, "verify-bound", "--rho-grid", "", "--t-grid", "0.1")
    assert code == 2


def test_readme_examples_match_pinned_outputs(capsys):
    # the README's command-line examples print byte-identical output; the
    # pins are shared with the benchmark's cli check and read, never written
    pinned = json.loads((REPO / "perfbench" / "pinned.json").read_text())["cli"]
    readme = (REPO / "README.md").read_text()
    assert len(pinned) == 7
    for line, expected in pinned.items():
        assert line in readme, line
        code, out, _ = run_cli(capsys, *shlex.split(line)[1:])
        assert (code, out) == (expected["exit"], expected["stdout"]), line


def test_eval_direct_in_subprocess_prints_pinned_bytes_once():
    # stdout is a pipe, so block-buffered, while the oracle forks its check
    line = "hwtheta eval --rho 1 --t 0.5 --method direct --json"
    expected = json.loads((REPO / "perfbench" / "pinned.json").read_text())["cli"][line]
    proc = subprocess.run(
        [sys.executable, "-m", "hwtheta.cli", *shlex.split(line)[1:]],
        capture_output=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    assert (proc.returncode, proc.stdout.decode()) == (expected["exit"], expected["stdout"])


def test_only_oracle_routes_import_mpmath():
    # every subcommand but eval --method direct and verify-bound runs without
    # the oracle, whose module and mpmath then load on first use
    line = "hwtheta eval --rho 1 --t 0.5 --method direct --json"
    expected = json.loads((REPO / "perfbench" / "pinned.json").read_text())["cli"][line]
    script = """
import io, shlex, sys
from contextlib import redirect_stdout
from hwtheta.cli import main
for argv in (
    "sweep-delta --rho-list 0.5,1 --tau-max 2 --points 4",
    "delta-prime --rho-min 0.5 --rho-max 2 --points 3",
    "series --order 4",
    "eval --rho 2 --t 0.25 --method asymptotic",
    "eval --rho 1 --t 0.25 --method series",
):
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv.split()) == 0, argv
    assert out.getvalue(), argv
    loaded = {"mpmath", "hwtheta.reference_quadrature"} & set(sys.modules)
    assert not loaded, (argv, loaded)
sys.exit(main(shlex.split(sys.argv[1])[1:]))
"""
    proc = subprocess.run([sys.executable, "-c", script, line], capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout.decode()) == (expected["exit"], expected["stdout"]), proc.stderr


def test_sweep_delta_deterministic_across_processes():
    argv = [
        sys.executable, "-m", "hwtheta.cli",
        "sweep-delta", "--rho", "0.25,1,4", "--tau-max", "10", "--points", "20",
    ]
    first = subprocess.run(argv, capture_output=True).stdout
    second = subprocess.run(argv, capture_output=True).stdout
    assert first and first == second


def test_console_script_target_runs_the_readme_example(capsys):
    # the [project.scripts] target resolves without installing the package
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    module_name, _, attr = scripts["hwtheta"].partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    line = "hwtheta eval --rho 1 --t 0.5 --method direct --json"
    assert line in (REPO / "README.md").read_text()
    assert entry(shlex.split(line)[1:]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == pytest.approx(4.045329090148301, rel=1e-13)


def test_console_script_entry_point():
    try:
        proc = subprocess.run(
            ["hwtheta", "eval", "--rho", "1", "--t", "0.5", "--method", "direct", "--json"],
            capture_output=True,
            text=True,
        )
    except FileNotFoundError:
        pytest.skip("console script not on PATH")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["theta"] == pytest.approx(
        4.045329090148301, rel=1e-13
    )
