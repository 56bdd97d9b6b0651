"""The benchmark's traced run still wraps the package: perfbench/tracing.py,
loaded from its file and left as it is, counts the kernel's steps and the
oracle's bits, and puts every function back."""

import types
from pathlib import Path

import hwtheta._descent_py as kernel
import hwtheta.descent_path as dp
import hwtheta.reference_quadrature as rq

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_run_counts_kernel_steps_and_oracle_bits():
    # compiled from its text, so no bytecode is written beside it
    source = TRACING.read_bytes()
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(source, str(TRACING), "exec"), tracing.__dict__)
    untraced = (kernel.trace, dp.sweep_delta, rq.theta_direct)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kernel.trace is not untraced[0]  # the kernel is wrapped by name
        table = dp.sweep_delta([1.0, 2.0], [1.0, 2.0])
        result = rq.theta_direct(2.0, 0.5)
    finally:
        tracer.uninstall()
    assert (kernel.trace, dp.sweep_delta, rq.theta_direct) == untraced
    assert not table.failures and result.precision_used_bits == 79
    metrics = tracing.layer_metrics(tracing.merge([tracer.summary()]))
    assert metrics["descent_path.columns"] == 2
    assert metrics["descent_path.steps"] > 0
    assert metrics["descent_path.failed_ops"] == 0
    assert metrics["reference_quadrature.calls"] == 1
    assert metrics["reference_quadrature.bits_mean"] == 79
    assert TRACING.read_bytes() == source
