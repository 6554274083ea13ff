"""The names the benchmark binds still exist and still take its calls.

``perfbench/bench_trace.py`` imports every layer module by name, wraps the
public functions of each, and reads call arguments by name to count work
(``regime``, ``n_arm`` and ``n_arc`` of the residual profiles; ``grid``,
``f``, ``problem``, ``dt`` and ``args`` of the other counted functions);
``perfbench/bench_workloads.py``
calls the package through its module names.  A rename or a deleted keyword
breaks the benchmark only when it runs; these run the tracer over the calls
its workloads make, and read the workloads' source, without changing
anything under ``perfbench/``.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from stokesgreen import (
    FourierMode,
    HalfLineGrid,
    ModeField,
    actions,
    cli,
    core,
    kernels,
    resolvent,
    solver,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_TRACE = PERFBENCH / "bench_trace.py"
BENCH_WORKLOADS = PERFBENCH / "bench_workloads.py"


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


def test_tracer_counts_every_counted_function(tmp_path):
    # each COUNTERS entry the package still defines, called under the tracer:
    # a counter reads the call's arguments by name (grid, f, problem, dt,
    # args), so renaming one fails here rather than in a traced benchmark run
    bench_trace = _load_bench_trace()
    tracer = bench_trace.Tracer()
    counted = {"kernels.residual_profiles_general", "actions.image_action_gauss",
               "actions.image_action_exp", "solver.crank_nicolson_oracle",
               "cli.cmd_kernel", "cli.cmd_verify"}
    assert {q for q in tracer.originals.values() if q in bench_trace.COUNTERS} == counted
    mode, grid = FourierMode(1, 0), HalfLineGrid.uniform(12.0, 33)
    bump = np.exp(-((grid.nodes - 4.0) ** 2))
    f = np.array([[1.0], [2.0j]]) * bump
    vals = np.zeros((3, grid.n), dtype=complex)
    vals[1] = bump
    problem = solver.StokesProblem(mode=mode, nu=1.0, omega0=ModeField(grid, vals),
                                   t_final=0.1)
    with tracer.record(bench_trace.Recording()) as rec:
        kernels.residual_profiles_general(0.5, 1.0, mode, grid.nodes, mode.norm)
        actions.image_action_exp(grid, f, 1.5, parity=-1)
        actions.image_action_gauss(grid, f, 0.2, parity=1)
        solver.crank_nicolson_oracle(problem, dt=0.01)
        assert cli.main(["kernel", "--grid", "0:4:8", "--out", str(tmp_path / "k.csv")]) == 0
        assert cli.main(["verify", "--out", str(tmp_path / "v.json")]) == 0
    assert not rec.errors, dict(rec.errors)
    assert counted <= set(rec.calls())
    for key in ("actions.toeplitz_elements", "solver.cn_steps", "cli.bytes_written"):
        assert rec.counts[key] > 0, key
    assert rec.counts["solver.cn_steps"] == 10
    assert rec.counts["cli.bytes_written"] == sum(
        (tmp_path / name).stat().st_size for name in ("k.csv", "v.json"))


# the package modules bench_workloads.py imports and calls through
WORKLOAD_MODULES = {"cli": cli, "core": core, "kernels": kernels, "resolvent": resolvent,
                    "solver": solver}


def _dotted(node):
    """The chain ``module.name[.attr...]`` of an attribute node rooted at one of
    WORKLOAD_MODULES, as a list of names, or None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    if chain and isinstance(node, ast.Name) and node.id in WORKLOAD_MODULES:
        return [node.id, *chain]
    return None


def _resolve(chain):
    obj = WORKLOAD_MODULES[chain[0]]
    for name in chain[1:]:
        obj = getattr(obj, name)
    return obj


def test_workloads_bind_existing_names_and_keywords():
    tree = ast.parse(BENCH_WORKLOADS.read_text())
    names, calls = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in WORKLOAD_MODULES:
            names.add((node.value.id, node.attr))
        if isinstance(node, ast.Call) and (chain := _dotted(node.func)):
            calls.update((tuple(chain), kw.arg) for kw in node.keywords if kw.arg)
    missing = sorted((m, a) for m, a in names if not hasattr(WORKLOAD_MODULES[m], a))
    assert missing == []
    unknown = sorted((chain, kw) for chain, kw in calls
                     if kw not in inspect.signature(_resolve(chain)).parameters)
    assert unknown == []
    # the parse found the workloads' calls: the no-slip kernel with its oracle method
    assert ("kernels", "residual_kernel_time") in names
    assert (("kernels", "residual_kernel_time"), "method") in calls
