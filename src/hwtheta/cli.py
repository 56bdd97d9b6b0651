"""Command-line front end.

Subcommands
-----------
eval          one theta value by a chosen method (direct quadrature,
              leading-order asymptotic, or the critical-point series)
sweep-delta   CSV table of delta(tau, rho) and its bound ratio over a grid
delta-prime   CSV table of the small-tau slope delta'(0, rho) over a rho range
series        exact coefficients of the critical-point expansions
verify-bound  grid certification of the error bounds, CSV plus summary

Exit codes: 0 success, 2 usage or domain error, 3 numerical or precision
failure, including any failed cell of sweep-delta, delta-prime or
verify-bound (the CSV still lists every cell that evaluated).  verify-bound
additionally exits 1 when every cell evaluated but some cell violates the
strong bound (a certification negative, not an error).  All CSV output is
UTF-8 with LF line endings, a header row, and numbers at 17 significant
digits; identical invocations produce byte identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import approximation_and_bounds as ab
from . import descent_path as dp
from . import rho_one_series as rs
from . import saddle_geometry as sg
from ._result import EvalResult, Method, csv_text
from .errors import DomainError, HwThetaError, positive_normal, positive_real, whole_number

__all__ = ["main"]


def _parse_float_list(text: str, name: str) -> list[float]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise DomainError(f"{name} must be a non-empty comma-separated list of numbers")
    try:
        return [float(piece) for piece in items]
    except ValueError:
        raise DomainError(f"{name} contains a non-numeric entry: {text!r}") from None


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _write_grid(csv: str, failures, names: tuple[str, ...], path: str | None) -> int:
    """Report each failed cell, as `cell (name=value, ...) failed: message`
    with the cell's coordinates named by `names`, then write the CSV to path
    or stdout; returns 3 when any cell failed, else 0."""
    for *cell, message in failures:
        where = ", ".join(f"{name}={value:.17g}" for name, value in zip(names, cell))
        print(f"cell ({where}) failed: {message}", file=sys.stderr)
    _write_output(csv, path)
    return 3 if failures else 0


def _cmd_eval(args) -> int:
    rho = positive_real(args.rho, "--rho")
    t = positive_real(args.t, "--t")
    if args.bits is not None and args.method != "direct":
        raise DomainError(f"--bits applies to --method direct only, got --method {args.method}")

    if args.method == "direct":
        from . import reference_quadrature as rq  # the oracle loads mpmath: import on first use

        result = rq.theta_direct(rho / t, t, args.bits)
    elif args.method == "asymptotic":
        value = ab.theta_leading(rho, t)
        result = EvalResult(
            theta=value,
            method=Method.ASYMPTOTIC,
            precision_used_bits=53,
            error_estimate=min(ab.vartheta_max(t), 1.0),
        )
    else:  # series
        if sg.saddle_data(rho).regime is not sg.Regime.CRITICAL:
            raise DomainError(
                f"--method series is valid only within |rho - 1| <= {sg.EPS_CRIT:g}, "
                f"got rho={rho!r}"
            )
        series = rs.theta_series_rho1(6)
        value = series.evaluate(t)  # refuses a partial sum <= 0
        result = EvalResult(
            theta=value,
            method=Method.SERIES_RHO1,
            precision_used_bits=53,
            error_estimate=rs.theta_series_rho1(7).term_magnitude(t, 6) / series.bracket(t),
        )

    if args.json:
        payload = {
            "theta": result.theta,
            "method": result.method.value,
            "precision_used_bits": result.precision_used_bits,
            "error_estimate": result.error_estimate,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(
            f"theta = {result.theta:.17g}\n"
            f"method = {result.method.value}\n"
            f"precision_used_bits = {result.precision_used_bits}\n"
            f"error_estimate = {result.error_estimate:.17g}\n"
        )
    return 0


def _cmd_sweep_delta(args) -> int:
    rho_grid = sorted(_parse_float_list(args.rho_list, "--rho-list"))
    points = whole_number(args.points, "--points", 2)
    tau_max = positive_normal(args.tau_max, "--tau-max")
    tau_grid = [tau_max * i / points for i in range(1, points + 1)]
    table = dp.sweep_delta(rho_grid, tau_grid)
    return _write_grid(table.to_csv(), table.failures, ("rho", "tau"), args.out)


def _cmd_delta_prime(args) -> int:
    rho_min = positive_real(args.rho_min, "--rho-min")
    rho_max = positive_real(args.rho_max, "--rho-max")
    points = whole_number(args.points, "--points", 2)
    if not rho_min < rho_max:
        raise DomainError(
            f"need --rho-min < --rho-max, got {args.rho_min!r}, {args.rho_max!r}"
        )
    log_lo = math.log(rho_min)
    log_hi = math.log(rho_max)
    rows, failures = [], []
    for i in range(points):
        rho = math.exp(log_lo + (log_hi - log_lo) * i / (points - 1))
        try:
            rows.append((rho, dp.delta_prime_at_zero(rho)))
        except HwThetaError as exc:
            failures.append((rho, str(exc)))
    csv = csv_text(("rho", "delta_prime0"), rows)
    return _write_grid(csv, failures, ("rho",), args.out)


def _series_line(exponent, coeff: rs.Q6, decimals: int | None) -> str:
    over6 = coeff.as_over_root6()
    if over6 is not None and coeff.b != 0:
        text = f"({over6})/sqrt(6)"
    else:
        text = str(coeff)
    if decimals is not None:
        text += f"  =  {coeff.decimal_str(decimals)}"
    return f"  tau^({exponent})  {text}"


def _cmd_series(args) -> int:
    order = whole_number(args.order, "--order", 1)
    decimals = None if args.decimal is None else whole_number(args.decimal, "--decimal", 1)
    out = []
    img = rs.im_g_series(order)
    out.append(f"Im g(tau, 1): sum of a_k tau^(k - 1/2), {order} terms")
    for exponent, coeff in img.terms():
        out.append(_series_line(exponent, coeff, decimals))
    theta = rs.theta_series_rho1(order)
    out.append("")
    out.append(
        f"theta(1/t, t) = {rs.ThetaSeries.PREFACTOR_TEXT} * sum of c_k t^k, "
        f"{order} terms"
    )
    for k, c in enumerate(theta.coeffs):
        line = f"  t^{k}  {c}"
        if decimals is not None:
            line += f"  =  {rs.Q6.rational(c).decimal_str(decimals)}"
        out.append(line)
    delta = rs.delta_series(order)
    out.append("")
    out.append(f"delta(tau, 1): sum of d_j tau^j, {order} terms")
    for exponent, coeff in delta.terms():
        out.append(_series_line(exponent, coeff, decimals))
    if args.full:
        zeta2 = rs.invert_zeta_equation(max(order, 2))
        out.append("")
        out.append(
            f"zeta^2(tau): sum of b_m (-tau)^(m/2) under sqrt(-tau) = -i sqrt(tau), "
            f"{zeta2.order} terms"
        )
        for exponent, coeff in zeta2.terms():
            line = f"  (-tau)^({exponent})  {coeff}"
            if decimals is not None:
                line += f"  =  {coeff.decimal_str(decimals)}"
            out.append(line)
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_verify_bound(args) -> int:
    rho_grid = sorted(_parse_float_list(args.rho_grid, "--rho-grid"))
    t_grid = sorted(_parse_float_list(args.t_grid, "--t-grid"))
    report = ab.check_bound(rho_grid, t_grid)
    code = _write_grid(report.to_csv(), report.failures, ("rho", "t"), args.out)
    try:
        summary = (
            f"max |vartheta|*70/t = {report.max_ratio_simple:.17g} "
            f"over {len(report.rows)} cells"
        )
    except DomainError as exc:  # every cell failed
        summary = str(exc)
    print(summary, file=sys.stderr if args.out is None else sys.stdout)
    return code or (0 if report.all_pass_strong else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwtheta",
        description=(
            "Evaluate the Hartman-Watson integral theta(rho/t, t) and certify "
            "its leading-order error bounds (rho = r*t is the similarity "
            "variable)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate theta(rho/t, t) by one method")
    p_eval.add_argument("--rho", type=float, required=True)
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.add_argument(
        "--method",
        choices=["direct", "asymptotic", "series"],
        required=True,
        help="direct extended-precision quadrature, leading-order saddle-point "
        f"approximation, or the critical-point series (needs |rho - 1| <= {sg.EPS_CRIT:g})",
    )
    p_eval.add_argument(
        "--bits",
        type=int,
        default=None,
        help="working precision for --method direct (default: automatic)",
    )
    p_eval.add_argument("--json", action="store_true", help="emit a JSON object")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser(
        "sweep-delta", help="CSV of delta(tau, rho) over a tau grid per rho"
    )
    p_sweep.add_argument("--rho-list", required=True, help="comma-separated rho values")
    p_sweep.add_argument("--tau-max", type=float, required=True)
    p_sweep.add_argument(
        "--points", type=int, required=True, help="tau samples: tau_max*i/points"
    )
    p_sweep.add_argument("--out", default=None, help="output file (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep_delta)

    p_prime = sub.add_parser(
        "delta-prime", help="CSV of delta'(0, rho) on a log-spaced rho grid"
    )
    p_prime.add_argument("--rho-min", type=float, required=True)
    p_prime.add_argument("--rho-max", type=float, required=True)
    p_prime.add_argument("--points", type=int, required=True)
    p_prime.add_argument("--out", default=None, help="output file (default stdout)")
    p_prime.set_defaults(func=_cmd_delta_prime)

    p_series = sub.add_parser(
        "series", help="exact coefficients of the critical-point expansions"
    )
    p_series.add_argument("--order", type=int, required=True, help="terms per series")
    p_series.add_argument(
        "--decimal",
        type=int,
        default=None,
        metavar="P",
        help="also print P-digit decimal renderings",
    )
    p_series.add_argument(
        "--full",
        action="store_true",
        help="also print the zeta^2 reversion coefficients",
    )
    p_series.set_defaults(func=_cmd_series)

    p_verify = sub.add_parser(
        "verify-bound", help="certify the error bounds on a (rho, t) grid"
    )
    p_verify.add_argument(
        "--rho-grid",
        default="0.25,0.5,0.9,1,1.1,2,4",
        help="comma-separated rho values",
    )
    p_verify.add_argument(
        "--t-grid", default="0.05,0.1,0.2", help="comma-separated t values"
    )
    p_verify.add_argument("--out", default=None, help="output file (default stdout)")
    p_verify.set_defaults(func=_cmd_verify_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HwThetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
