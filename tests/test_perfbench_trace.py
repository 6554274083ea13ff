"""The names the benchmark's tracer binds still exist and still take its calls.

``perfbench/bench_trace.py`` imports every layer module by name, wraps the
public functions of each, and reads call arguments (``regime``, ``n_arm``,
``n_arc``) of the residual profiles to count work.  A rename or a deleted
keyword breaks the benchmark only when it runs; this runs the tracer over the
calls its workloads make, without changing anything under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import numpy as np

from stokesgreen import FourierMode, kernels

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_the_kernel_layer():
    bench_trace = _load_bench_trace()
    tracer = bench_trace.Tracer()  # imports every module of LAYERS, contours included
    assert "contours" in bench_trace.LAYERS
    mode, s = FourierMode(1, 0), np.linspace(0.0, 4.0, 9)
    with tracer.record(bench_trace.Recording()) as rec:
        # looked up on the module, where the tracer installed its wrappers
        kernels.residual_profiles_general(0.5, 1.0, mode, s, mode.norm)
        kernels.residual_kernel_time(0.5, 1.0, mode, 0.3, 0.6, method="adaptive")
        kernels.residual_kernel_general(0.5, 1.0, mode, None, 0.3, 0.6, check=True)
    assert not rec.errors, dict(rec.errors)
    # the first call and the fixed path of the third evaluate profiles
    assert rec.counts["kernels.profiles.s_evals"] == s.size + 1
    assert rec.calls()["kernels.residual_kernel_time"] == 1
    # the wrappers are gone again
    assert kernels.residual_profiles_general.__module__ == "stokesgreen.kernels"
    assert not hasattr(kernels.residual_profiles_general, "__wrapped__")
