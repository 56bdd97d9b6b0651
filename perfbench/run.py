"""The hwtheta benchmark: four workloads, end-to-end metrics and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installation.  Workloads (see workloads.py):
certify-grid, point-eval, delta-sweep and series-exact.  Load is closed-loop,
one caller in one process with no threads.

With ``--trace 0`` the workload runs untraced for S seconds and the result
holds the end-to-end metrics.  With ``--trace 1`` it runs S/2 seconds
untraced and S/2 seconds traced, each in a fresh interpreter, and the result
holds the per-layer metrics, the tracing overhead and the byte-identity
count of the README's command-line examples.  Every op's output is checked.
An op is one distinct input; its repeats within the run are timing samples,
and every time is scaled to a reference host speed (hostspeed.py).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it give the environment and details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl
from hostspeed import Clock

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170
FAILED_STATES = (wl.REFUSED, wl.KNOWN, wl.WRONG, wl.UNCHECKED)
#: An input seen in several states is counted in the last of them.
STATE_RANK = {state: rank for rank, state in enumerate((wl.OK, *FAILED_STATES))}
#: The layer each workload was chosen to isolate.
EXPECTED_LAYER = {
    "certify-grid": "reference_quadrature",
    "point-eval": "reference_quadrature",
    "delta-sweep": "descent_path",
    "series-exact": "rho_one_series",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or "time_s" in name:
        return "s"
    return {
        "descent_path.us_per_step": "us",
        "reference_quadrature.bits_mean": "bits",
        "trace.overhead_frac": "fraction",
    }.get(name, "count")


class BenchError(Exception):
    pass


def run_child(argv: list[str], src: Path) -> dict:
    """Run a Python child with only the checkout's package importable; its last line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(src: Path) -> tuple[float, float]:
    """Median wall of a fresh interpreter importing hwtheta.cli, and of the import alone.

    Both are scaled to the reference host speed by calibration samples taken
    around each interpreter.
    """
    code = (
        "import time; t0 = time.perf_counter(); import hwtheta.cli; "
        "import json; print(json.dumps([time.perf_counter() - t0, hwtheta.cli.__file__]))"
    )
    _, origin = run_child(["-c", code], src)  # also compiles the bytecode cache
    if not Path(origin).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"hwtheta imported from {origin}, not from {src}")
    clock = Clock()
    clock.calibrate()
    timed = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        import_s, _ = run_child(["-c", code], src)
        wall = time.perf_counter() - start
        clock.calibrate()
        timed.append((start, wall, import_s))
    return (statistics.median(clock.scale(wall, start, start + wall) for start, wall, _ in timed),
            statistics.median(clock.scale(import_s, start, start + wall) for start, wall, import_s in timed))


def measure(workload: str, seed: int, seconds: float, traced: bool, src: Path) -> dict:
    """Run the workload in fresh interpreters until the time is up, in whole blocks.

    series-exact starts one interpreter per op: an op must compute an order
    its process has not computed before, or it would time a cache lookup.
    point-eval starts one per block, so that each repeat of the block starts
    with a cold node cache; only the first block's outputs are checked, and
    a later output must equal the checked one for its input.  The others run
    in one interpreter.  Returns the ops as [seconds, seconds at reference
    speed, input repr, state], with the peak RSS and the environment.
    """
    spec = wl.WORKLOADS[workload]
    worker = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
              "--traced", str(int(traced))]
    if spec.fresh_process is None:
        parts = [run_child(worker + ["--seconds", repr(seconds)], src)]
    else:
        parts = []
        deadline = time.perf_counter() + seconds
        for block in spec.blocks(seed):
            if spec.fresh_process == "op":
                parts += [run_child(worker + ["--seconds", "0", "--order", str(order)], src) for order in block]
            else:
                parts.append(run_child(worker + ["--seconds", "0", "--check", str(int(not parts))], src))
            if time.perf_counter() >= deadline:
                break
    checked = {(inp, out): state for part in parts for inp, out, state in part["outputs"] if state is not None}
    ops = []
    for part in parts:
        for elapsed, scaled, index in part["ops"]:
            inp, out, state = part["outputs"][index]
            ops.append((elapsed, scaled, inp, state or checked.get((inp, out), wl.UNCHECKED)))
    merged = {
        "ops": ops,
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "env": parts[0]["env"],
    }
    if traced:
        merged["layers"] = tracing.merge([part["layers"] for part in parts])
    return merged


def input_states(ops: list) -> dict[str, str]:
    """The state of each distinct input; an op is one distinct input, its repeats are timing samples."""
    states: dict[str, str] = {}
    for _, _, key, state in ops:
        if STATE_RANK[state] >= STATE_RANK[states.get(key, wl.OK)]:
            states[key] = state
    return states


def op_stats(ops: list, scaled: bool = True) -> dict:
    """One time per distinct input, the median of its repeats, and correct ops per second.

    Every workload runs the same inputs each block, so an input's repeats do
    the same work; their median, at reference host speed (hostspeed.py),
    leaves out the host's changing load.  Failed inputs count in the time.
    """
    samples: dict[str, list[float]] = {}
    for elapsed, at_reference, key, _ in ops:
        samples.setdefault(key, []).append(at_reference if scaled else elapsed)
    times = [statistics.median(values) for values in samples.values()]
    ok = sum(state == wl.OK for state in input_states(ops).values())
    return {"times": times, "ok": ok, "ops_per_s": ok / sum(times), "repeats": min(map(len, samples.values()))}


def latencies_ms(times: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (interpolated) of the inputs' times."""
    ms = [1e3 * t for t in times]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[-1]


def end_to_end(run: dict, setup_s: float, notes: list[str]) -> dict:
    stats = op_stats(run["ops"])
    n = len(stats["times"])
    p50, tail = latencies_ms(stats["times"])
    raw = op_stats(run["ops"], scaled=False)
    raw_p50, raw_tail = latencies_ms(raw["times"])
    notes.append(f"latency_tail_ms is p90 of {n} distinct inputs, each the median of at least "
                 f"{stats['repeats']} repeats, at reference host speed")
    notes.append(f"unscaled: ops_per_s {raw['ops_per_s']:.6g}, latency_p50_ms {raw_p50:.6g}, "
                 f"latency_tail_ms {raw_tail:.6g}")
    return {
        "setup_s": setup_s,
        "ops_per_s": stats["ops_per_s"],
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "ok_frac": stats["ok"] / n,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(workload: str, base: dict, traced: dict, import_s: float, cli: dict, notes: list[str]) -> dict:
    layers = traced["layers"]
    metrics = tracing.layer_metrics(layers)
    metrics["cli.import_s"] = import_s
    metrics["cli.outputs_changed"] = cli["outputs_changed"]
    base_rate = op_stats(base["ops"])["ops_per_s"]
    traced_stats = op_stats(traced["ops"])
    metrics["trace.overhead_frac"] = 1.0 - traced_stats["ops_per_s"] / base_rate if base_rate else 0.0

    # spans, unlike op times, include the calibration loops that ran inside them
    span_time = sum(layers[f"{layer}.time_s"] for layer in tracing.LAYERS)
    shares = {layer: layers[f"{layer}.time_s"] / span_time for layer in tracing.LAYERS}
    ranked = sorted(shares.items(), key=lambda item: -item[1])
    notes.append("self-time share of traced span time: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in ranked))
    expected = EXPECTED_LAYER[workload]
    isolated = ranked[0][0] == expected and (
        workload != "delta-sweep" or metrics["reference_quadrature.calls"] == 0
    )
    notes.append(f"{workload} {'isolates' if isolated else 'does NOT isolate'} {expected}")
    if cli["changed"]:
        notes.append("CLI outputs changed: " + "; ".join(cli["changed"]))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = Path.cwd() / "src"
    if not (src / "hwtheta" / "cli.py").is_file():
        print(f"error: no package source at {src / 'hwtheta'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        setup_s, import_s = measure_setup(src)
        notes: list[str] = []
        if args.trace:
            runs = [measure(args.workload, args.seed, args.seconds / 2, traced, src) for traced in (False, True)]
            cli = run_child([str(HERE / "cli_check.py")], src)
            metrics = per_layer(args.workload, *runs, import_s, cli, notes)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            runs = [measure(args.workload, args.seed, args.seconds, False, src)]
            metrics = end_to_end(runs[0], setup_s, notes)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    states = list(input_states([op for run in runs for op in run["ops"]]).values())
    counts = {state: states.count(state) for state in (wl.OK, *FAILED_STATES)}
    print("env: " + json.dumps(runs[0]["env"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(states)} distinct inputs, "
          f"{sum(len(run['ops']) for run in runs)} ops, " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for note in notes:
        print(note)
    result = {
        "correct": counts[wl.WRONG] == 0 and counts[wl.UNCHECKED] == 0,
        "attempted": len(states),
        "failed": sum(counts[state] for state in FAILED_STATES),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
