"""Measure one workload in a fresh interpreter and print one JSON line.

Started by run.py with the package's ``src`` directory on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --traced 0|1 [--order N] [--check 0]

Ops run back to back (closed loop, one caller, no threads) for whole blocks
until S seconds have passed, after the workload's untimed warm-up blocks;
``--order`` runs the single series-exact op of that order instead.  While
ops run a :class:`hostspeed.Clock` samples the host's speed; an op's time
leaves out the samples taken during it, and is also given scaled to the
reference speed.  Outputs are checked only after
the timed loop and after the tracer, if any, is removed.  An op whose output
equals an earlier output for the same input shares that output's check.
With ``--check 0`` nothing is checked: each op carries its output's repr,
which run.py matches against a checked run of the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import workloads as wl
from hostspeed import Clock
from reference import ReferenceError
from tracing import Tracer


def environment() -> dict:
    import mpmath

    import hwtheta

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        # without the attribute the package has a single pure-Python kernel
        "descent_backend": getattr(hwtheta, "DESCENT_BACKEND", "python"),
        "nproc": len(os.sched_getaffinity(0)),
        "hw_max_bits_set": "HW_MAX_BITS" in os.environ,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, order: int | None = None,
            check_outputs: bool = True) -> dict:
    import hwtheta.cli  # noqa: F401  (import cost is setup_s, not op time)
    from hwtheta.errors import HwThetaError

    spec = wl.WORKLOADS[workload]
    op, check = spec.op, spec.check
    stream = iter([[order]] if order is not None else spec.blocks(seed))
    for _ in range(spec.warmup_blocks):
        for inp in next(stream):
            try:
                op(inp)
            except HwThetaError:
                pass
    clock = Clock()
    clock.calibrate(3)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    outputs: list[tuple] = []  # distinct (input, output) pairs
    by_input: dict = {}
    records: list[tuple[float, float, int]] = []  # (start, end, output index)
    deadline = time.perf_counter() + seconds
    try:
        with clock:
            for block in stream:
                for inp in block:
                    if tracer:
                        tracer.op += 1
                    start = time.perf_counter()
                    try:
                        out = op(inp)
                    except HwThetaError:
                        out = None
                    end = time.perf_counter()
                    seen = by_input.setdefault(inp, [])
                    index = next((i for i in seen if outputs[i][1] == out), None)
                    if index is None:
                        index = len(outputs)
                        outputs.append((inp, out))
                        seen.append(index)
                    records.append((start, end, index))
                if time.perf_counter() >= deadline:
                    break
    finally:
        if tracer:
            tracer.uninstall()
    clock.calibrate(3)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    pins = wl.load_pins()
    cache: dict = {}
    statuses = []
    for inp, out in outputs:
        if not check_outputs:
            statuses.append(None)
            continue
        if out is None:
            statuses.append(wl.REFUSED)
            continue
        try:
            statuses.append(check(inp, out, pins, cache))
        except ReferenceError as exc:
            print(f"unchecked op {inp!r}: {exc}", file=sys.stderr)
            statuses.append(wl.UNCHECKED)
    result = {
        # distinct outputs: [input repr, output repr, state or None if unchecked]
        "outputs": [[repr(inp), repr(out), state] for (inp, out), state in zip(outputs, statuses)],
        # [seconds, seconds at reference speed, index into outputs]
        "ops": [],
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    for start, end, index in records:
        elapsed = clock.net(start, end)
        result["ops"].append([elapsed, clock.scale(elapsed, start, end), index])
    if tracer:
        result["layers"] = tracer.summary()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    result = measure(args.workload, args.seed, args.seconds, bool(args.traced), args.order, bool(args.check))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
