"""Spans around every call into the package's layers, for the traced run.

The tracer replaces each public module-level function of every layer (the
names in the module's ``__all__``) with a wrapper that records a span: layer,
function, start, end, parent span and the op it belongs to.  Calls from one
layer into another become child spans, so each layer's self time is its span
time minus the time of its children.  Spans stay in memory; :meth:`summary`
reduces them to additive per-layer counters when the run ends.  No source
file of the package is touched and :meth:`uninstall` restores every function.
"""

from __future__ import annotations

import importlib
import inspect
import time

#: Package module -> layer.  The pure-Python descent kernel belongs to the
#: descent_path layer.
LAYER_MODULES = {
    "hwtheta.saddle_geometry": "saddle_geometry",
    "hwtheta.descent_path": "descent_path",
    "hwtheta._descent_py": "descent_path",
    "hwtheta.rho_one_series": "rho_one_series",
    "hwtheta.reference_quadrature": "reference_quadrature",
    "hwtheta.approximation_and_bounds": "approximation_and_bounds",
    "hwtheta.cli": "cli",
}
LAYERS = tuple(dict.fromkeys(LAYER_MODULES.values()))

LAYER, NAME, START, END, PARENT, OP, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = 0

    def install(self) -> None:
        from hwtheta.errors import HwThetaError

        for modname, layer in LAYER_MODULES.items():
            module = importlib.import_module(modname)
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    wrapped = self._wrap(layer, f"{modname[8:]}.{name}", fn, HwThetaError)
                    self._patched.append((module, name, fn))
                    setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _wrap(self, layer, name, fn, error_type):
        counts_steps = name == "_descent_py.trace" and "record_all" in inspect.signature(fn).parameters
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                if counts_steps:
                    result = _trace_counting_steps(fn, span, *args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            except error_type:
                span[INFO] = "error"
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if span[INFO] is None:
                span[INFO] = _info(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Additive counters; merge several with :func:`merge` and finish with :func:`layer_metrics`."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {f"{layer}.{key}": 0 for layer in LAYERS for key in ("calls", "time_s")}
        out.update(
            steps=0, kernel_runs=0, rq_direct_calls=0, rq_bits_sum=0, cold_bits_calls=0, cold_bits_time_s=0.0,
            selfcheck_over_tol=0, cells=0, order_time={},
        )
        failed_ops = set()
        seen_bits = set()
        for i, span in enumerate(spans):
            layer, name, info = span[LAYER], span[NAME], span[INFO]
            wall = span[END] - span[START]
            out[f"{layer}.time_s"] += wall - child_time[i]
            entry = span[PARENT] < 0 or spans[span[PARENT]][LAYER] != layer
            if entry:
                out[f"{layer}.calls"] += 1
            if layer == "descent_path" and (info == "error" or (entry and info == "failures")):
                failed_ops.add(span[OP])
            if name == "_descent_py.trace":
                out["kernel_runs"] += 1
                out["steps"] += info if isinstance(info, int) else 0
            elif name == "reference_quadrature.theta_direct" and isinstance(info, tuple):
                bits, estimate = info
                out["rq_direct_calls"] += 1
                out["rq_bits_sum"] += bits
                if bits not in seen_bits:
                    seen_bits.add(bits)
                    out["cold_bits_calls"] += 1
                    out["cold_bits_time_s"] += wall
                out["selfcheck_over_tol"] += estimate > 1e-8
            elif name == "approximation_and_bounds.check_bound" and isinstance(info, int):
                out["cells"] += info
            elif layer == "rho_one_series" and entry and isinstance(info, int):
                out["order_time"][info] = out["order_time"].get(info, 0.0) + wall
        out["descent_failed_ops"] = len(failed_ops)
        return out


def _trace_counting_steps(fn, span, rho, sx, cx, h2, h3, mode, targets, record_all=False, *args, **kwargs):
    """Run the kernel recording every accepted step, then return what the caller asked for.

    With record_all the kernel also reports each accepted step below the next
    target; the entry that reaches a target is the first with tau >= target.
    """
    points = fn(rho, sx, cx, h2, h3, mode, targets, True, *args, **kwargs)
    span[INFO] = len(points)
    if record_all:
        return points
    kept, k = [], 0
    for point in points:
        if k < len(targets) and point[0] >= targets[k]:
            kept.append(point)
            k += 1
    return kept


def _info(name, args, result):
    if name == "reference_quadrature.theta_direct":
        return (result.precision_used_bits, result.error_estimate)
    if name == "approximation_and_bounds.check_bound":
        return len(result.rows) + len(result.failures)
    if name.startswith("rho_one_series.") and args and isinstance(args[0], int):
        return args[0]
    if name == "descent_path.sweep_delta" and result.failures:
        return "failures"
    return None


def merge(summaries: list[dict]) -> dict:
    total: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key == "order_time":
                times = total.setdefault(key, {})
                for order, seconds in value.items():
                    times[int(order)] = times.get(int(order), 0.0) + seconds
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(total: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json (all but cli.* and trace.*)."""
    direct_calls = total["rq_direct_calls"]
    steps = total["steps"]
    orders = total.get("order_time") or {}
    return {
        "saddle_geometry.calls": total["saddle_geometry.calls"],
        "saddle_geometry.time_s": total["saddle_geometry.time_s"],
        "descent_path.columns": total["kernel_runs"],
        "descent_path.steps": steps,
        "descent_path.time_s": total["descent_path.time_s"],
        "descent_path.us_per_step": 1e6 * total["descent_path.time_s"] / steps if steps else 0.0,
        "descent_path.failed_ops": total["descent_failed_ops"],
        "reference_quadrature.calls": total["reference_quadrature.calls"],
        "reference_quadrature.time_s": total["reference_quadrature.time_s"],
        "reference_quadrature.bits_mean": total["rq_bits_sum"] / direct_calls if direct_calls else 0.0,
        "reference_quadrature.cold_bits_calls": total["cold_bits_calls"],
        "reference_quadrature.cold_bits_time_s": total["cold_bits_time_s"],
        "reference_quadrature.selfcheck_over_tol": total["selfcheck_over_tol"],
        "approximation_and_bounds.cells": total["cells"],
        "approximation_and_bounds.self_time_s": total["approximation_and_bounds.time_s"],
        "rho_one_series.calls": total["rho_one_series.calls"],
        "rho_one_series.time_s": total["rho_one_series.time_s"],
        "rho_one_series.time_s_max_order": orders[max(orders)] if orders else 0.0,
    }
