"""Byte-identity check of the README's command-line examples.

Runs each example in process through ``hwtheta.cli.main`` with stdout
captured and counts the examples whose stdout or exit code differs from the
pinned one.  ``verify-bound`` with its defaults prints the certify-grid
seed-0 CSV.  Prints one JSON line; run.py starts it in its own interpreter so
that its work warms no cache of a measured run.
"""

from __future__ import annotations

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout

EXAMPLES = (
    "hwtheta eval --rho 1 --t 0.5 --method direct --json",
    "hwtheta eval --rho 2 --t 0.25 --method asymptotic",
    "hwtheta eval --rho 1 --t 0.25 --method series",
    "hwtheta sweep-delta --rho 0.25,1,4 --tau-max 50 --points 200",
    "hwtheta delta-prime --rho-min 0.5 --rho-max 2 --points 9",
    "hwtheta series --order 6 --decimal 12",
    "hwtheta verify-bound",
)


def run_examples() -> dict:
    from hwtheta.cli import main

    outputs = {}
    for line in EXAMPLES:
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            try:
                code = main(shlex.split(line)[1:])
            except SystemExit as exc:  # argparse rejects a usage error by exiting
                code = exc.code
        outputs[line] = {"stdout": stdout.getvalue(), "exit": code}
    return outputs


def main() -> int:
    import workloads

    pinned = workloads.load_pins()["cli"]
    outputs = run_examples()
    changed = [line for line in EXAMPLES if outputs[line] != pinned.get(line)]
    print(json.dumps({"outputs_changed": len(changed), "changed": changed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
