"""Compare two saved outputs of run.py, refusing runs from different environments.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the stdout of one run.py run.  When the two ``env:`` lines
differ (Python, mpmath version or backend, descent kernel, core count,
HW_MAX_BITS) the numbers are not comparable: the differences are printed and
the exit code is 2.  Otherwise each metric is printed with its relative change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().splitlines()
    env = next((line[5:] for line in lines if line.startswith("env: ")), None)
    if env is None or not lines:
        raise SystemExit(f"{path}: not an output of run.py")
    return json.loads(env), json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    if env_a != env_b:
        for key in sorted(set(env_a) | set(env_b)):
            if env_a.get(key) != env_b.get(key):
                print(f"environment differs: {key}: {env_a.get(key)!r} vs {env_b.get(key)!r}", file=sys.stderr)
        print("refusing to compare runs from different environments", file=sys.stderr)
        return 2
    for name, metric in res_a["metrics"].items():
        new = res_b["metrics"].get(name)
        if new is None:
            print(f"{name}: missing from {argv[1]}")
            continue
        base = metric["value"]
        change = f"{100.0 * (new['value'] - base) / base:+.1f}%" if base else "n/a"
        print(f"{name:42s} {base:14.6g} {new['value']:14.6g} {metric['unit']:9s} {change}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
