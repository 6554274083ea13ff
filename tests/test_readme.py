"""README's library quick start and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from stokesgreen import cli

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


def test_command_line_block_runs(tmp_path):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(lines) == 5 and all(argv[0] == "stokesgreen" for argv in lines)
    for argv in lines:
        # each example writes the file its --out names, here under tmp_path
        i = argv.index("--out") + 1
        out = tmp_path / argv[i]
        argv[i] = str(out)
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        assert out.stat().st_size > 0
        if "--oracle" in argv:
            assert Path(f"{out}.oracle.json").stat().st_size > 0
