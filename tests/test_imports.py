"""Which SciPy subpackages (and mpmath) load, checked in fresh interpreters.

The package and its production paths need only scipy.linalg, scipy.special
and scipy.fft.  The oracles (adaptive contour quadrature, Crank-Nicolson, the
finite-difference resolvent) import what they need on their first call.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import stokesgreen

# modules the production paths must not load: the scipy subpackages of the
# oracles (scipy.integrate alone pulls in optimize, sparse and spatial) and
# mpmath, the tests' extended-precision reference
ORACLE_ONLY = ("scipy.integrate", "scipy.sparse", "scipy.optimize", "scipy.spatial",
               "scipy.signal", "mpmath")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout; return its stdout."""
    src = str(Path(stokesgreen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


PRODUCTION_STAGES = ("import", "cli kernel", "cli verify", "resolvent_apply", "duhamel_solve")


@pytest.fixture(scope="module")
def loaded_after_stage():
    """Oracle-only modules in sys.modules after each production stage, all run
    in one interpreter in the order of ``PRODUCTION_STAGES``."""
    out = run_fresh(f"""
        import contextlib, io, json, sys
        import stokesgreen, stokesgreen.cli
        loaded = {{}}

        def record(stage):
            loaded[stage] = [m for m in {ORACLE_ONLY!r} if m in sys.modules]

        record("import")
        import numpy as np
        from stokesgreen import (FourierMode, HalfLineGrid, ModeField, SpectralPoint,
                                 StokesProblem, duhamel_solve, resolvent_apply)
        for stage, argv in [
                ("cli kernel", ["kernel", "--xi", "1", "0", "--t", "0.5", "--grid", "0:10:16"]),
                ("cli verify", ["verify"])]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert stokesgreen.cli.main(argv) == 0
            record(stage)

        mode = FourierMode(1, 0)
        grid = HalfLineGrid.uniform(10.0, 65)
        bump = np.exp(-(grid.nodes - 5.0) ** 2)
        resolvent_apply(ModeField(grid, np.array([bump, 1j * bump])),
                        SpectralPoint(3.0 + 1.0j, 0.5, mode))
        record("resolvent_apply")

        vals = np.array([bump, 1j * bump, bump], dtype=complex)
        problem = StokesProblem(mode=mode, nu=0.5, omega0=ModeField(grid, vals), t_final=0.2,
                                forcing=lambda t: t * vals, boundary_g=lambda t: [t, 0.0])
        duhamel_solve(problem, [0.1, 0.2])
        record("duhamel_solve")
        print(json.dumps(loaded))
    """)
    return json.loads(out)


@pytest.mark.parametrize("stage", PRODUCTION_STAGES)
def test_production_leaves_oracle_scipy_unloaded(loaded_after_stage, stage):
    assert loaded_after_stage[stage] == []


# each snippet sets ``result``; it runs once in a fresh interpreter and once here
ORACLE_SNIPPETS = {
    "crank_nicolson_oracle": ("scipy.sparse", """
        from stokesgreen import FourierMode, HalfLineGrid, ModeField, StokesProblem
        from stokesgreen import crank_nicolson_oracle
        grid = HalfLineGrid.uniform(10.0, 65)
        bump = np.exp(-(grid.nodes - 5.0) ** 2)
        vals = np.array([bump, 1j * bump, bump], dtype=complex)
        problem = StokesProblem(mode=FourierMode(1, 0), nu=0.5,
                                omega0=ModeField(grid, vals), t_final=0.2)
        result = crank_nicolson_oracle(problem, dt=0.01).states[-1].values
    """),
    "finite_difference_resolvent_general": ("scipy.sparse", """
        import math
        from stokesgreen import BoundaryOperatorD, FourierMode, HalfLineGrid, ModeField
        from stokesgreen import SpectralPoint, finite_difference_resolvent_general
        mode = FourierMode(2, 1)
        grid = HalfLineGrid.uniform(10.0, 129)
        bump = np.exp(-(grid.nodes - 4.0) ** 2)
        D = BoundaryOperatorD(0.5, 0.3, math.sqrt(0.15), c0=2.0, mode=mode)
        result = finite_difference_resolvent_general(
            ModeField(grid, np.array([bump, (0.5 - 0.3j) * bump])),
            SpectralPoint(4.0 + 2.0j, 0.7, mode), D)
    """),
    "residual_kernel_time adaptive": ("scipy.integrate", """
        from stokesgreen import FourierMode, residual_kernel_time
        r = residual_kernel_time(1.0, 1.0, FourierMode(1, 0), 0.6, 0.9, method="adaptive")
        result = np.stack([r["R1"], r["R2"]])
    """),
}


@pytest.mark.parametrize("oracle", ORACLE_SNIPPETS)
def test_oracle_first_call_loads_its_dependencies(oracle, tmp_path):
    module, snippet = ORACLE_SNIPPETS[oracle]
    path = tmp_path / "result.npy"
    out = run_fresh(f"import sys\nimport numpy as np\nimport stokesgreen\n"
                    f"before = {module!r} in sys.modules\n"
                    + textwrap.dedent(snippet)
                    + f"np.save({str(path)!r}, result)\n"
                    f"print(before, {module!r} in sys.modules)\n")
    assert out.split() == ["False", "True"]
    ns = {"np": np}
    exec(textwrap.dedent(snippet), ns)
    fresh = np.load(path)
    assert (fresh.dtype, fresh.shape) == (ns["result"].dtype, ns["result"].shape)
    assert fresh.tobytes() == ns["result"].tobytes()
