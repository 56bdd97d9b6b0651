"""Smoke test of the benchmark harness: one op per workload at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ONE_OP = {
    "certify-grid": (1.0, 0.2),
    "point-eval": (1.0, 0.5),
    "delta-sweep": (1.0, True),
    "series-exact": 6,
}


def test_one_op_per_workload_checks_ok():
    pins = wl.load_pins()
    for name, inp in ONE_OP.items():
        spec = wl.WORKLOADS[name]
        assert spec.check(inp, spec.op(inp), pins, {}) == wl.OK, name


def test_block_inputs_are_seeded():
    for name, spec in wl.WORKLOADS.items():
        assert next(spec.blocks(3)) == next(spec.blocks(3)), name
    grid = next(wl.certify_blocks(0))
    assert grid == [(rho, t) for rho in wl.DEFAULT_RHO for t in wl.DEFAULT_T]
    assert len(wl.delta_rhos(0)) == 26 and 1.0 in wl.delta_rhos(5)


def test_tracer_keeps_outputs_and_counts_steps():
    inp = (0.5, True)
    plain = wl.delta_op(inp)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.delta_op(inp)
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracing.layer_metrics(tracer.summary())
    assert metrics["descent_path.columns"] == 2
    assert metrics["descent_path.steps"] > 200
    assert metrics["reference_quadrature.calls"] == 0


def test_repeats_are_timing_samples_of_one_op():
    ops = [(0.3, 0.1, "a", wl.OK), (0.6, 0.2, "a", wl.OK), (0.9, 0.3, "b", wl.OK), (0.9, 0.3, "b", wl.KNOWN)]
    assert run.input_states(ops) == {"a": wl.OK, "b": wl.KNOWN}
    stats = run.op_stats(ops)
    assert stats["times"] == pytest.approx([0.15, 0.3])
    assert stats["ok"] == 1 and stats["repeats"] == 2
    assert run.op_stats(ops, scaled=False)["times"] == pytest.approx([0.45, 0.9])


def test_clock_scales_by_the_nearest_samples():
    clock = hostspeed.Clock()
    clock.samples = [(float(i), 2 * hostspeed.REFERENCE_S if i < 10 else hostspeed.REFERENCE_S) for i in range(20)]
    assert clock.scale(1.0, 3.0, 3.0) == 0.5
    assert clock.scale(1.0, 16.0, 16.0) == 1.0
    assert clock.net(1.5, 3.5) == pytest.approx(2.0 - 4 * hostspeed.REFERENCE_S)
    with clock:
        time.sleep(0.2)
    assert len(clock.samples) >= 22 and clock.samples[-1][0] > 19.0


def test_pins_hold_the_exact_sixth_im_g_coefficient():
    a, b = wl.load_pins()["series"]["im_g"][5]
    assert Fraction(a) == 0
    assert Fraction(b) * 6 == Fraction(-136866795413, 7532521605984375000)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(run.per_layer_unit(name) == unit for name, unit in per_layer.items())
    layer_names = set(tracing.layer_metrics(tracing.merge([tracing.Tracer().summary()])))
    assert layer_names | {"cli.import_s", "cli.outputs_changed", "trace.overhead_frac"} == set(per_layer)


def test_run_refuses_a_directory_without_the_package():
    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tmp*"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series-exact", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_end_to_end():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delta-sweep", "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 30
    assert "cli.outputs_changed" in result["metrics"]
