"""Regenerate perfbench/pinned.json from the package in src/.

    PYTHONPATH=src python3 perfbench/make_pins.py

The pins are the benchmark's regression references: the exact critical-point
series at order 16, the vartheta values of verify-bound's default grid, and
the README examples' output.  Regenerate them only for an intended change of
output, and say so in the change.
"""

from __future__ import annotations

import json
from fractions import Fraction

import cli_check
import workloads

#: Exact sixth Im g coefficient, times sqrt(6); the paper tabulates another value.
IM_G_SIXTH_OVER_ROOT6 = Fraction(-136866795413, 7532521605984375000)


def main() -> int:
    order = max(workloads.SERIES_ORDERS)
    theta, img, delta, zeta = workloads.series_op(order)
    if img.coeffs[5].as_over_root6() != IM_G_SIXTH_OVER_ROOT6:
        raise SystemExit("sixth Im g coefficient differs from its exact value; not pinning")
    cli = cli_check.run_examples()
    csv = cli["hwtheta verify-bound"]["stdout"].splitlines()[1:]
    grid = {f"{float(r)!r},{float(t)!r}": float(v) for r, t, v, *_ in (line.split(",") for line in csv)}
    pins = {
        "series": {
            "theta": [str(c) for c in theta.coeffs],
            "im_g": [workloads.q6_pair(q) for q in img.coeffs],
            "delta": [workloads.q6_pair(q) for q in delta.coeffs],
            "zeta": [workloads.q6_pair(q) for q in zeta.coeffs],
        },
        "default_grid_vartheta": grid,
        "cli": cli,
    }
    workloads.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
