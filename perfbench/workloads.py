"""The four workloads: seeded inputs, one op each, and the check of every op.

Inputs come in blocks.  A run always finishes the block it is in, so every
run covers whole blocks, and draws are stratified (one per equal stratum of
the log range) so that a block's cost depends little on the seed.  Every
workload repeats its inputs within a run, so each input is timed several
times; see run.py for how the repeats are used.

Each op ends in one of four states:

* ``ok``: the output agrees with its reference;
* ``refused``: the package raised (or recorded per cell) a typed
  ``HwThetaError``, the honest way to decline;
* ``known_defect``: a wrong value inside a defect class ROADMAP item 4
  names (the oracle's bits sized without the saddle exponent, or the
  regular tracer just outside the critical band);
* ``wrong``: any other disagreement, a silently wrong answer.

All but ``ok`` count as failed; a ``wrong`` op, or one that could not be
checked (``unchecked``), makes the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

OK, REFUSED, KNOWN, WRONG = "ok", "refused", "known_defect", "wrong"
#: A reference could not be computed, so the op could not be checked.
UNCHECKED = "unchecked"

PINNED = Path(__file__).with_name("pinned.json")

#: Relative agreement demanded of theta_direct against its reference.
THETA_RTOL = 1e-10
#: Absolute agreement demanded of delta cells (the tracer's documented 1e-10)
#: and of vartheta.
DELTA_ATOL = 1e-10
VARTHETA_ATOL = 1e-10
#: Slope accuracy: delta_prime_at_zero's own extrapolation gate.
SLOPE_ATOL = 1e-6
#: |rho - 1| inside which a wrong slope is ROADMAP item 4's known defect.
NEAR_BAND = 1e-4

DEFAULT_RHO = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)
DEFAULT_T = (0.05, 0.1, 0.2)
TAU_GRID = tuple(50.0 * (j + 1) / 200 for j in range(200))
NEAR_BAND_RHOS = (1 - 1e-5, 1 - 2e-6, 1 + 2e-6, 1 + 1e-5)
SERIES_ORDERS = tuple(range(6, 17))


def load_pins() -> dict:
    return json.loads(PINNED.read_text())


def _in_stratum(lo: float, hi: float, i: int, n: int, u: float) -> float:
    """Position u in [0, 1) of the i-th of n equal strata of [lo, hi] in log space."""
    return math.exp(math.log(lo) + math.log(hi / lo) * (i + u) / n)


def _strata(us: list[float], lo: float, hi: float) -> list[float]:
    """One log-uniform value per stratum, at the stratum positions us."""
    return [_in_stratum(lo, hi, i, len(us), u) for i, u in enumerate(us)]


# ---------------------------------------------------------------- certify-grid

def certify_grid(seed: int) -> list[tuple[float, float]]:
    """A 7 x 3 (rho, t) grid in verify-bound's order; seed 0 gives its default grid.

    Other seeds move each default rho other than 1 by a seeded factor
    within e^(+-0.05), which keeps it inside its saddle regime.  A cell's
    cost depends steeply on t (the oracle's bits grow like 1/t) and, below
    rho = 0.53, on rho, so wider draws make the run's medians follow the
    seed rather than the program.  Every block repeats the grid after one
    untimed warm-up block, so the oracle's node cache is warm as in a long
    certification; cold node generation is point-eval's concern.
    """
    rng = random.Random(seed)
    rhos = [rho if seed == 0 or rho == 1.0 else rho * math.exp(0.05 * (2 * rng.random() - 1))
            for rho in DEFAULT_RHO]
    return [(rho, t) for rho in rhos for t in DEFAULT_T]


def certify_blocks(seed: int):
    return itertools.repeat(certify_grid(seed))


def certify_op(inp):
    import hwtheta.approximation_and_bounds as ab

    rho, t = inp
    return ab.check_bound([rho], [t])


def certify_check(inp, report, pins, cache) -> str:
    if report.failures:
        return REFUSED
    (row,) = report.rows
    if inp not in cache:
        cache[inp] = ref.vartheta_path(*inp)
    good = abs(row.vartheta - cache[inp]) <= VARTHETA_ATOL
    pinned = pins["default_grid_vartheta"].get(f"{inp[0]!r},{inp[1]!r}")
    if pinned is not None:
        good = good and abs(row.vartheta - pinned) <= 1e-12
    return OK if good else WRONG


# ------------------------------------------------------------------ point-eval

def point_blocks(seed: int):
    """40 requests on a rank-1 lattice over (log t, log rho), each placed in its cell by the seed.

    Request k takes the k-th of 40 equal log-t strata and the (13k mod 40)-th
    of 40 equal log-rho strata, so the 40 requests cover both ranges the same
    way for every seed.  Only their positions within the middle half of
    each stratum (a 2.9% span in t, 6.8% in rho) follow the seed.  A
    request's cost moves tenfold across the ranges, so freer draws made the
    run's median and tail follow the seed.  The
    requests run in order of rising t; every t is new to the process.  Each
    repeat of the block runs in a fresh process, so every repeat starts with
    a cold node cache, as each ``hwtheta eval`` does.
    """
    rng = random.Random(seed)
    n = 40
    block = [
        (_in_stratum(0.05, 10.0, 13 * k % n, n, rng.uniform(0.25, 0.75)),
         _in_stratum(0.05, 0.5, k, n, rng.uniform(0.25, 0.75)))
        for k in range(n)
    ]
    return itertools.repeat(block)


def point_op(inp):
    import hwtheta.approximation_and_bounds as ab
    import hwtheta.reference_quadrature as rq

    rho, t = inp
    return rq.theta_direct(rho / t, t), ab.theta_leading(rho, t), ab.vartheta_max(t)


def point_check(inp, out, pins, cache) -> str:
    rho, t = inp
    direct, lead, vmax = out
    theta = ref.theta_path(rho, t)
    # the asymptotic route must meet the accuracy it reports: vartheta_max(t) <= t/70
    asymptotic_ok = (
        0.0 < vmax <= t / 70.0 * (1 + 1e-12)
        and abs(theta / lead - 1.0) <= vmax * (1 + 1e-9) + 1e-15
    )
    if not asymptotic_ok:
        return WRONG
    if abs(direct.theta - theta) <= THETA_RTOL * abs(theta):
        return OK
    # ROADMAP item 4: theta_direct sizes its bits from pi^2/(2t) alone, which
    # falls short wherever the saddle exponent F exceeds pi^2/2
    return KNOWN if ref.saddle_exponent(rho) > 0.5 * math.pi**2 else WRONG


# ----------------------------------------------------------------- delta-sweep

def delta_rhos(seed: int) -> list[float]:
    """Seed 0: benchmarks/bench_descent.py's 25 geometric columns.

    Other seeds keep that grid's end columns 0.05 and 10 (rho = 10 is the
    slowest column, so it sets the latency tail) and draw 23 columns between
    them, one per stratum.  Every seed adds rho = 1, the degenerate mode.
    """
    if seed == 0:
        lo, hi = math.log(0.05), math.log(10.0)
        rhos = [math.exp(lo + (hi - lo) * i / 24) for i in range(25)]
    else:
        rng = random.Random(seed)
        rhos = [0.05, 10.0] + _strata([rng.random() for _ in range(23)], 0.05, 10.0)
    return sorted(rhos + [1.0])


def delta_blocks(seed: int):
    """The same pass every block: each column with its slope, then the near-band slopes."""
    return itertools.repeat([(rho, True) for rho in delta_rhos(seed)] + [(rho, False) for rho in NEAR_BAND_RHOS])


def delta_op(inp):
    import hwtheta.descent_path as dp

    rho, column = inp
    table = dp.sweep_delta([rho], TAU_GRID) if column else None
    return table, dp.delta_prime_at_zero(rho)


def _delta_series_value(pins, tau: float) -> float | None:
    """delta(tau, 1) from the pinned exact series, None where it is not converged."""
    coeffs = [float(Fraction(a)) for a, _ in pins["series"]["delta"]]
    if abs(coeffs[-1]) * tau ** len(coeffs) > 1e-14:
        return None
    return math.fsum(c * tau ** (j + 1) for j, c in enumerate(coeffs))


def delta_check(inp, out, pins, cache) -> str:
    rho, column = inp
    table, slope = out
    if inp not in cache:
        cells = list(zip(TAU_GRID, ref.delta_column(rho, TAU_GRID))) if column else []
        if column and rho == 1.0:
            # small-tau cells of the degenerate column also against the exact series
            for tau in TAU_GRID:
                series = _delta_series_value(pins, tau)
                if series is not None:
                    cells.append((tau, series))
        cache[inp] = (cells, ref.delta_slope(rho))
    cells, ref_slope = cache[inp]
    if table is not None and table.failures:
        return REFUSED
    good = abs(slope - ref_slope) <= SLOPE_ATOL
    if table is not None:
        got = {row.tau: row.delta for row in table.rows}
        good = good and all(abs(got[tau] - d) <= DELTA_ATOL for tau, d in cells)
    if good:
        return OK
    return KNOWN if rho != 1.0 and abs(rho - 1.0) <= NEAR_BAND else WRONG


# ---------------------------------------------------------------- series-exact

def series_blocks(seed: int):
    """Every order 6..16 once per block, in a seeded order."""
    rng = random.Random(seed)
    while True:
        block = list(SERIES_ORDERS)
        rng.shuffle(block)
        yield block


def series_op(order):
    import hwtheta.rho_one_series as rs

    return (
        rs.theta_series_rho1(order),
        rs.im_g_series(order),
        rs.delta_series(order),
        rs.invert_zeta_equation(order),
    )


def q6_pair(q) -> list[str]:
    return [str(q.a), str(q.b)]


def series_check(order, out, pins, cache) -> str:
    theta, img, delta, zeta = out
    p = pins["series"]
    good = (
        [str(c) for c in theta.coeffs] == p["theta"][:order]
        and [q6_pair(q) for q in img.coeffs] == p["im_g"][:order]
        and [q6_pair(q) for q in delta.coeffs] == p["delta"][:order]
        and [q6_pair(q) for q in zeta.coeffs] == p["zeta"][:order]
    )
    return OK if good else WRONG


@dataclass(frozen=True)
class Workload:
    blocks: Callable  # seed -> iterator over blocks of op inputs
    op: Callable  # input -> output; may raise HwThetaError
    check: Callable  # (input, output, pins, cache) -> state
    warmup_blocks: int = 0  # untimed blocks run first in each process
    fresh_process: str | None = None  # "op" or "block": start each in a new interpreter


WORKLOADS = {
    "certify-grid": Workload(certify_blocks, certify_op, certify_check, warmup_blocks=1),
    "point-eval": Workload(point_blocks, point_op, point_check, fresh_process="block"),
    "delta-sweep": Workload(delta_blocks, delta_op, delta_check),
    "series-exact": Workload(series_blocks, series_op, series_check, fresh_process="op"),
}
