"""README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # what its comments claim
    assert namespace["sol"].boundary_residual() < 1e-15
    G = namespace["G"]
    assert G.shape == (2, 2) and np.isrealobj(G)
    assert np.array_equal(namespace["traj"].times, [0.0, 0.5, 1.0])
