"""In-process tests of the command-line interface."""

import dataclasses
import inspect
import json
import re
import tracemalloc

import numpy as np
import pytest

from stokesgreen import BoundaryOperatorD, FourierMode, ModeField, cli, kernels, solver
from stokesgreen.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _build_parser,
    _fmt,
    _fmt_each,
    _parse_general_bc,
    _parse_grid,
    main,
)


def run(argv):
    return main(argv)


class TestKernelCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "kernel.csv"
        rc = run(["kernel", "--xi", "1", "0", "--nu", "1.0", "--t", "0.5",
                  "--grid", "0:4:8", "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        header, *rest = text.splitlines()
        assert header.startswith("#")
        assert "y,z,entry,part,re,im" in text
        assert any(line.split(",")[3] == "R2" for line in rest if "," in line
                   and not line.startswith("#") and line[0].isdigit())

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["kernel", "--xi", "2", "1", "--nu", "0.5", "--t", "0.3",
                "--grid", "0:4:8"]
        assert run(args + ["--out", str(a)]) == EXIT_OK
        assert run(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_general_bc(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = run(["kernel", "--xi", "2", "0", "--nu", "1.0", "--t", "0.3",
                  "--grid", "0:4:8", "--general-bc", "alpha=0.5,beta=0,gamma=0,c0=1",
                  "--out", str(out)])
        assert rc == EXIT_OK
        assert "general-bc" in out.read_text()


def reference_kernel_rows(argv):
    """Data rows of ``kernel`` as the original one-value-at-a-time loop wrote them."""
    args = _build_parser().parse_args(argv)
    mode = FourierMode(*args.xi)
    grid = _parse_grid(args.grid)
    D = (_parse_general_bc(args.general_bc, mode) if args.general_bc is not None
         else BoundaryOperatorD.no_slip(mode))
    sample = kernels.sample_green_function(args.t, args.nu, mode, grid.nodes,
                                           grid.nodes, D=D)
    parts = {"H": sample.H[..., None, None] * np.eye(2), "R1": sample.R1, "R2": sample.R2}
    lines = []
    for i, y in enumerate(sample.y_nodes):
        for j, z in enumerate(sample.z_nodes):
            for a in range(2):
                for b in range(2):
                    for pname, arr in parts.items():
                        v = arr[i, j, a, b]
                        lines.append(f"{_fmt(y)},{_fmt(z)},{a + 1}{b + 1},{pname},"
                                     f"{_fmt(v.real)},{_fmt(v.imag)}")
    return lines


class TestKernelWriter:
    @pytest.mark.parametrize("argv", [
        ["kernel", "--xi", "2", "1", "--grid", "0:4:8"],
        ["kernel", "--xi", "1", "0", "--t", "0.3", "--grid", "0:4:8",
         "--general-bc", "alpha=0.2,beta=0.5,gamma=0.31622776601683794"],
        ["kernel", "--xi", "1", "0", "--grid", "0:7:20"],
        ["kernel", "--xi", "3", "2", "--nu", "0.04", "--t", "0.01", "--grid", "0:2:8"],
        # 257 distinct s
        ["kernel", "--xi", "1", "0", "--t", "0.6", "--grid", "0:10:128"],
    ])
    def test_rows_match_reference_loop(self, tmp_path, capsys, argv):
        out = tmp_path / "k.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.endswith("\n")
        rows = text.splitlines()[4:]
        ref = reference_kernel_rows(argv)
        n = _parse_grid(argv[argv.index("--grid") + 1]).n
        assert len(rows) == 12 * n * n
        assert rows == ref
        if "--general-bc" not in argv:
            # -0.0 == 0.0, but the two print differently and both occur here
            fields = [f for row in rows for f in row.split(",")[4:]]
            assert "-0" in fields and "0" in fields
        capsys.readouterr()
        assert run(argv + ["--out", "-"]) == EXIT_OK
        assert capsys.readouterr().out == text

    def test_complex_parts_refused(self, tmp_path, monkeypatch):
        # the im column is the literal 0, so a complex part must not reach it
        assert _fmt_each(np.array([[-0.0], [0.5]])).tolist() == [["-0"], ["0.5"]]
        with pytest.raises(TypeError):
            _fmt_each(np.array([1.0 + 2.0j]))
        real = kernels.sample_green_function

        def complex_sample(*args, **kwargs):
            sample = real(*args, **kwargs)
            return dataclasses.replace(sample, R2=sample.R2 + 1e-3j)

        monkeypatch.setattr(kernels, "sample_green_function", complex_sample)
        out = tmp_path / "k.csv"
        with pytest.raises(TypeError):
            run(["kernel", "--grid", "0:4:8", "--out", str(out)])
        assert not out.exists()

    def test_traced_peak_memory(self, tmp_path):
        # the table is formatted per distinct value and written row by row:
        # no full-table temporaries
        tracemalloc.start()
        try:
            assert run(["kernel", "--xi", "1", "0", "--t", "0.6", "--grid", "0:10:128",
                        "--out", str(tmp_path / "k.csv")]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestResolventCommand:
    def test_runs_and_reports_residual(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = run(["resolvent", "--xi", "1", "0", "--nu", "1.0",
                  "--lambda", "3.0", "0.0", "--grid", "0:12:128",
                  "--seed", "7", "--out", str(out)])
        assert rc == EXIT_OK
        text = out.read_text()
        resid = [l for l in text.splitlines() if "boundary_residual=" in l][0]
        assert float(resid.split("boundary_residual=")[1]) < 1e-10

    def test_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["resolvent", "--grid", "0:12:64"]
        run(base + ["--seed", "1", "--out", str(a)])
        run(base + ["--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


def reference_solve_rows(argv):
    """Data rows of ``solve`` as the original one-value-at-a-time loop wrote them."""
    args = _build_parser().parse_args(argv)
    grid = _parse_grid(args.grid)
    bump = cli._bump_params(3, args.seed, grid.z_max, interior=True)
    vals = cli._bump_values(grid, bump)
    vals[2, 0] = 0.0
    problem = solver.StokesProblem(mode=FourierMode(*args.xi), nu=args.nu,
                                   omega0=ModeField(grid, vals), t_final=args.t)
    traj = solver.duhamel_solve(problem, np.linspace(0.0, args.t, 5))
    lines = []
    for t, st in zip(traj.times, traj.states):
        for comp in range(3):
            for z, v in zip(grid.nodes, st.values[comp]):
                lines.append(f"{_fmt(t)},{_fmt(z)},{comp + 1},{_fmt(v.real)},{_fmt(v.imag)}")
    return lines


class TestSolveCommand:
    def test_rows_match_reference_loop(self, tmp_path):
        argv = ["solve", "--xi", "2", "1", "--nu", "0.5", "--t", "0.3",
                "--grid", "0:8:40", "--seed", "4"]
        out = tmp_path / "s.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.endswith("\n")
        rows = text.splitlines()
        assert rows[2] == "t,z,component,re,im"
        assert rows[3:] == reference_solve_rows(argv)
        assert len(rows) == 3 + 5 * 3 * 41

    def test_solve_with_oracle(self, tmp_path):
        out = tmp_path / "solve.csv"
        rc = run(["solve", "--xi", "1", "0", "--nu", "0.5", "--t", "0.4",
                  "--grid", "0:12:256", "--seed", "0", "--oracle",
                  "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "solve.csv.oracle.json").read_text())
        assert report["pass"]
        assert all(e < 1e-3 for e in report["max_rel_errors"].values())

    @pytest.mark.parametrize("out", [[], ["--out", "-"]])
    def test_oracle_report_to_stderr_with_stdout_csv(self, out, tmp_path, capsys):
        argv = ["solve", "--grid", "0:12:32", "--t", "0.2", "--oracle"]
        rc = run(argv + out)
        captured = capsys.readouterr()
        assert run(argv + ["--out", str(tmp_path / "s.csv")]) == rc
        assert captured.out == (tmp_path / "s.csv").read_text()
        rows = [line.split(",") for line in captured.out.splitlines()
                if not line.startswith("#")]
        assert rows[0] == ["t", "z", "component", "re", "im"]
        assert len(rows) == 1 + 5 * 3 * 33 and all(len(r) == 5 for r in rows)
        assert json.loads(captured.err) == json.loads(
            (tmp_path / "s.csv.oracle.json").read_text())


class TestVerifyCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = run(["verify", "--xi", "1", "0", "--grid", "0:10:512",
                  "--tol", "1e-3", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["pass"]
        names = {c["name"] for c in report["checks"]}
        assert names == {"kernel_bound_certificate", "resolvent_sector_bound",
                         "biot_savart_roundtrip"}
        rb = [c for c in report["checks"] if c["name"] == "resolvent_sector_bound"][0]
        assert rb["report"]["lambda"] == [3.0, 0.0]


    def test_default_grid_passes(self, tmp_path):
        # fourth-order dz keeps the roundtrip within the default 1e-3 on 0:10:256
        out = tmp_path / "verify.json"
        assert run(["verify", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["pass"] is True
        rt = [c for c in report["checks"] if c["name"] == "biot_savart_roundtrip"][0]
        assert rt["report"]["rel_error"] < 1e-3

    def test_pass_fields_are_json_booleans(self, tmp_path):
        # a failing check must write the literal false, not the string "False"
        out = tmp_path / "verify.json"
        assert run(["verify", "--tol", "1e-12", "--out", str(out)]) == EXIT_NUMERICAL
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert all(isinstance(c["pass"], bool) for c in report["checks"])
        assert [c["pass"] for c in report["checks"]] == [True, True, False]


class TestBiotSavartCommand:
    def test_roundtrip_and_traces(self, tmp_path):
        out = tmp_path / "bs.json"
        rc = run(["biot-savart", "--xi", "2", "1", "--grid", "0:20:1024",
                  "--tol", "1e-3", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["pass"]
        assert report["trace_identity_errors"]["dirichlet"] < 1e-6


class TestConfigAndErrors:
    def test_config_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": 0.5, "seed": 9, "grid": "0:4:8"}))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        # config-supplied nu
        assert run(["--config", str(cfg), "kernel", "--t", "0.3",
                    "--out", str(a)]) == EXIT_OK
        assert "nu=0.5" in a.read_text()
        # flag overrides config
        assert run(["--config", str(cfg), "kernel", "--t", "0.3", "--nu", "1.0",
                    "--out", str(b)]) == EXIT_OK
        assert "nu=1" in b.read_text()

    @pytest.mark.parametrize("command", ["kernel", "resolvent"])
    def test_unknown_general_bc_key(self, command, capsys):
        # an empty spec names no key, so it is rejected rather than read as no-slip
        for spec, key in (("alpah=0.3,beta=0.2", "'alpah'"), ("", "''")):
            rc = run([command, "--grid", "0:4:8", "--general-bc", spec, "--out", "-"])
            assert rc == EXIT_CONFIG
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("config", [{"nu": "1.0"}, {"func": 1}, {"nuu": 0.5}],
                             ids=["string-nu", "func", "unknown-key"])
    def test_malformed_config_rejected(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["--config", str(cfg), "kernel", "--grid", "0:4:8",
                    "--out", str(tmp_path / "k.csv")]) == EXIT_CONFIG
        assert not (tmp_path / "k.csv").exists()

    def test_flag_beats_config_under_another_dest(self, tmp_path):
        # --lambda stores into args.lam; the explicit flag must still win
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": [5, 0]}))
        out = tmp_path / "r.csv"
        assert run(["--config", str(cfg), "resolvent", "--lambda", "3", "0",
                    "--grid", "0:4:8", "--out", str(out)]) == EXIT_OK
        assert "lambda=3+0j" in out.read_text()

    def test_bad_config_path(self):
        assert run(["--config", "/nonexistent.json", "kernel"]) == EXIT_CONFIG

    def test_config_error_codes(self):
        assert run(["kernel", "--nu", "-1.0"]) == EXIT_CONFIG
        assert run(["verify", "--tol", "2.0"]) == EXIT_CONFIG
        assert run(["kernel", "--t", "-0.5"]) == EXIT_CONFIG
        assert run(["kernel", "--grid", "1:5:64", "--out", "-"]) == EXIT_CONFIG
        # kernel reads no tolerance, so it takes no --tol
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--tol", "1e-3"])
        assert exc.value.code == EXIT_CONFIG
        # a non-finite nu or t is a configuration error, not rows of nan
        for flag, val in (("--nu", "nan"), ("--nu", "inf"), ("--t", "nan"), ("--t", "inf")):
            assert run(["solve", flag, val, "--grid", "0:4:8", "--out", "-"]) == EXIT_CONFIG
        # a grid the constructor rejects is a configuration error too
        for spec in ("0:-5:9", "0:0:9", "0:nan:9", "0:inf:9", "0:10:1"):
            assert run(["kernel", "--grid", spec, "--out", "-"]) == EXIT_CONFIG
        # theta0 outside (0, 1) would make the R1 bound certify nothing
        for val in ("-5", "0", "1", "nan"):
            assert run(["verify", "--theta0", val, "--out", "-"]) == EXIT_CONFIG

    def test_command_looked_up_when_parsing(self, monkeypatch):
        # a cmd_* rebound on the module (as a tracing wrapper is) is the one main calls
        calls = []

        def fake(args):
            calls.append(args.grid)
            return EXIT_OK

        monkeypatch.setattr(cli, "cmd_kernel", fake)
        assert run(["kernel", "--grid", "0:3:4", "--out", "-"]) == EXIT_OK
        assert calls == ["0:3:4"]

    def test_every_flag_is_read(self):
        # each command registers exactly the flags its cmd_* reads
        commands = next(a.choices for a in _build_parser()._actions
                        if a.dest == "command")
        for name, p in commands.items():
            src = inspect.getsource(p.get_default("func"))
            dests = {a.dest for a in p._actions} - {"help", "command", "func", "config"}
            unread = {d for d in dests if f"args.{d}" not in src}
            assert not unread, f"{name} registers flags it never reads: {unread}"
            unregistered = set(re.findall(r"args\.(\w+)", src)) - dests
            assert not unregistered, f"{name} reads unregistered flags: {unregistered}"

    @pytest.mark.parametrize("argv", [["kernel", "--grid", "0:10:8"],
                                      ["verify", "--xi", "1", "0", "--grid", "0:10:64"]],
                             ids=["kernel", "verify"])
    def test_unwritable_out_exits_config(self, tmp_path, capsys, argv):
        # an --out in a directory that does not exist: one error line, no traceback
        out = tmp_path / "missing" / "out.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_oracle_report_exits_config(self, tmp_path, capsys):
        # PATH.oracle.json is a directory, so the oracle report cannot be written
        out = tmp_path / "s.csv"
        (tmp_path / "s.csv.oracle.json").mkdir()
        rc = run(["solve", "--grid", "0:12:32", "--t", "0.2", "--oracle", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # neither file is written: no CSV without its report
        assert not out.exists()

    def test_unwritable_oracle_report_keeps_existing_csv(self, tmp_path):
        # a CSV already at PATH is neither truncated nor removed
        out = tmp_path / "s.csv"
        out.write_text("earlier table\n")
        (tmp_path / "s.csv.oracle.json").mkdir()
        rc = run(["solve", "--grid", "0:12:32", "--t", "0.2", "--oracle", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert out.read_text() == "earlier table\n"
        # once the report can be written, both files are written in full (the
        # comparison fails its tolerance on this coarse grid: exit 3)
        (tmp_path / "s.csv.oracle.json").rmdir()
        rc = run(["solve", "--grid", "0:12:32", "--t", "0.2", "--oracle", "--out", str(out)])
        report = json.loads((tmp_path / "s.csv.oracle.json").read_text())
        assert rc == (EXIT_OK if report["pass"] else EXIT_NUMERICAL)
        assert out.read_text().startswith("# per-mode evolution")

    def test_numerical_error_code(self, capsys):
        # lambda on the negative real branch cut -> numerical failure exit
        rc = run(["resolvent", "--xi", "1", "0", "--nu", "1.0",
                  "--lambda", "-2.0", "0.0", "--grid", "0:10:64"])
        assert rc == EXIT_NUMERICAL
        assert "numerical error" in capsys.readouterr().err

    def test_non_finite_kernel_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # a NaN from a closed form: no table, numerical exit
        real = kernels._erfc_rho2

        def poisoned(*args):
            rho = real(*args)
            rho[..., 0] = np.nan
            return rho

        monkeypatch.setattr(kernels, "_erfc_rho2", poisoned)
        out = tmp_path / "k.csv"
        rc = run(["kernel", "--t", "1", "--grid", "0:2:4", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "QuadratureUnderresolved" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("xi,t", [(("1", "0"), "50"), (("1", "0"), "20"),
                                      (("1", "0"), "1000")])
    def test_large_t_kernel_matches_erfc(self, tmp_path, xi, t):
        # the low-frequency arc at large t was unresolved (corner drift 3e10
        # at t = 50) or overflowed (t = 1000), and no table was written; from
        # the closed forms the table is written, and the corner
        # R1 + R2 = rho(0) D is erfc(-|xi| sqrt(nu t)) D to 40 digits
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "k.csv"
        rc = run(["kernel", "--xi", *xi, "--nu", "1", "--t", t, "--grid", "0:4:8",
                  "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# green-function sample: heat-image part + residual "
                                   "erfc closed form")
        assert lines[2].startswith("# split: R1 = 2 e^(lambda* t - sigma (y+z)) D")
        mode = FourierMode(int(xi[0]), int(xi[1]))
        D = BoundaryOperatorD.no_slip(mode)
        corner = {(row[2], row[3]): float(row[4]) for row in
                  (line.split(",") for line in lines[4:]) if row[:2] == ["0", "0"]}
        with mpmath.workdps(40):
            rho = float(mpmath.erfc(-mpmath.mpf(mode.norm) * mpmath.sqrt(mpmath.mpf(t))))
        for a in range(2):
            for b in range(2):
                got = corner[(f"{a + 1}{b + 1}", "R1")] + corner[(f"{a + 1}{b + 1}", "R2")]
                assert abs(got - rho * D.matrix[a, b]) <= 1e-13 * rho * np.abs(D.matrix).max()

    def test_small_nu_t_kernel_matches_erfc(self, tmp_path):
        # at nu t = 1e-7 the high-frequency residual is a closed form, as at
        # every nu |xi|^2, and the corner R1 + R2 = rho(0) D is
        # erfc(-|xi| sqrt(nu t)) D (lambda* = 0 for no-slip) to 40 digits
        mpmath = pytest.importorskip("mpmath")
        out = tmp_path / "k.csv"
        rc = run(["kernel", "--xi", "2", "1", "--nu", "1", "--t", "1e-7", "--grid", "0:4:8",
                  "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# green-function sample: heat-image part + residual "
                                   "erfc closed form")
        assert lines[2].startswith("# split: R1 = 2 e^(lambda* t - sigma (y+z)) D")
        mode = FourierMode(2, 1)
        D = BoundaryOperatorD.no_slip(mode)
        corner = {(row[2], row[3]): float(row[4]) for row in
                  (line.split(",") for line in lines[4:]) if row[:2] == ["0", "0"]}
        with mpmath.workdps(40):
            rho = float(mpmath.erfc(-mpmath.mpf(mode.norm) * mpmath.sqrt(mpmath.mpf(1e-7))))
        for a in range(2):
            for b in range(2):
                got = corner[(f"{a + 1}{b + 1}", "R1")] + corner[(f"{a + 1}{b + 1}", "R2")]
                assert abs(got - rho * D.matrix[a, b]) <= 1e-13 * rho * np.abs(D.matrix).max()

    @pytest.mark.parametrize("command", ["kernel", "resolvent"])
    @pytest.mark.parametrize("spec", ["alpha=nan", "alpha=0.5,c0=nan", "alpha=0.5,c0=inf",
                                      "alpha=5"])
    def test_inadmissible_general_bc_exits_numerical(self, tmp_path, capsys, command, spec):
        # a non-finite entry would otherwise write a table of nan (or pass the trace gate)
        out = tmp_path / "out.csv"
        rc = run([command, "--xi", "1", "0", "--grid", "0:4:8", "--general-bc", spec,
                  "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "HypothesisViolated" in capsys.readouterr().err
        assert not out.exists()
