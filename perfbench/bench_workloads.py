"""The benchmark's workloads: inputs drawn from the seed, tasks, and gates.

A workload lists *jobs* (one call into the program each).  A job yields one
or more *tasks* (the unit of user work that latency and ``fail_frac`` count);
only ``verify_full`` splits one CLI call into its three checks.  The seed
draws bump data, lambda points and parameters within fixed classes; it never
changes which classes are present.

Program functions are looked up as module attributes at call time, so the
tracer's wrappers see every call.

Every task is checked by a gate that runs outside the timed region:
``digest`` reduces a task's result between tasks (clock stopped),
``prepare_gate`` computes the once-per-seed references after the timed
passes, and ``check`` returns the reasons the task failed (none if it
passed).  ``perturb`` yields deliberately wrong results for the gate
self-test, each with the words its failure reason must contain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from stokesgreen import cli, core, kernels, resolvent, solver

_COMPONENTS = np.array([1.0, 1j])


def _bump_values(rng, z, ncomp, lo, hi, widths):
    centers = rng.uniform(lo, hi, size=(ncomp, 1))
    w = rng.uniform(*widths, size=(ncomp, 1))
    amps = rng.normal(size=(ncomp, 2)) @ _COMPONENTS
    return amps[:, None] * np.exp(-((z - centers) / w) ** 2)


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(values)))


class Workload:
    name = ""
    # task name -> cause, for defects present at the commit that added the
    # benchmark; they still count as failed tasks
    known_defects: dict[str, str] = {}

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def jobs(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def task_names(self, job: str) -> list[str]:
        return [job]

    def split(self, job: str, result, elapsed: float):
        """(task name, latency in s, raw result) for each task of a finished job."""
        return [(job, elapsed, result)]

    def warm_up(self) -> None:
        raise NotImplementedError

    def digest(self, task: str, raw):
        return raw

    def prepare_gate(self) -> None:
        pass

    def check(self, task: str, record) -> list[str]:
        raise NotImplementedError

    def selftest_tasks(self) -> list[str]:
        raise NotImplementedError

    def perturb(self, task: str, raw):
        """(what was perturbed, perturbed raw result, expected reason) triples."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# evolve: Duhamel evolution, one forced task and six homogeneous tasks


class Evolve(Workload):
    name = "evolve"
    known_defects = {
        "homog-lowfreq-t50": "low-frequency contour arc sits at Re lambda ~ 1.1, so "
                             "e^{lambda t} cancels catastrophically at t=50 "
                             "(ROADMAP open item 2)",
    }
    FORCED_T = 0.5
    HOMOG_T = (0.01, 1.0, 50.0)
    # oracle grid refinement and step count for the forced-task reference
    CN_REFINE = 4
    CN_STEPS = 1000
    TOL_FORCED = 1e-3  # acceptance criterion 7

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # forced task: criterion 7's shape, nu = 0.1, xi = (1, 0), z_max = 16
        self.f_omega = [(5.0 + rng.uniform(-0.5, 0.5), 1.0, rng.uniform(0.8, 1.2)),
                        (6.0 + rng.uniform(-0.5, 0.5), 1.2, 0.5j * rng.uniform(0.8, 1.2)),
                        (7.0 + rng.uniform(-0.5, 0.5), 1.0, rng.uniform(0.8, 1.2))]
        self.f_force = [(4.0 + rng.uniform(-0.5, 0.5), 0.8, rng.uniform(0.8, 1.2)),
                        (6.0 + rng.uniform(-0.5, 0.5), 1.0, (0.3 - 0.2j) * rng.uniform(0.8, 1.2)),
                        (5.0 + rng.uniform(-0.5, 0.5), 1.0, 0.5 * rng.uniform(0.8, 1.2))]
        self.f_freq = rng.uniform(1.5, 2.5)
        self.g_amp = (rng.uniform(0.3, 0.5), rng.uniform(0.1, 0.3))
        self.g_freq = rng.uniform(2.5, 3.5)
        self.forced = self._forced_problem(core.HalfLineGrid.uniform(16.0, 513))
        # homogeneous tasks: low-frequency (nu |xi|^2 = 1) and high-frequency
        # (nu |xi|^2 = 5) regime, interior bumps on [0, 20]
        grid = core.HalfLineGrid.uniform(20.0, 1025)
        self.homog = {}
        for regime, xi in (("lowfreq", (1, 0)), ("highfreq", (2, 1))):
            vals = _bump_values(rng, grid.nodes, 3, 5.0, 10.0, (0.6, 1.0))
            vals[2, 0] = 0.0
            self.homog[regime] = solver.StokesProblem(
                mode=core.FourierMode(*xi), nu=1.0, omega0=core.ModeField(grid, vals),
                t_final=max(self.HOMOG_T))
        self.reference = None

    def _forced_problem(self, grid):
        z = grid.nodes
        vals = np.array([a * np.exp(-((z - c) ** 2) / w) for c, w, a in self.f_omega],
                        dtype=complex)
        vals[2, 0] = 0.0
        prof = np.array([a * np.exp(-((z - c) ** 2) / w) for c, w, a in self.f_force],
                        dtype=complex)
        freq, (g1, g2), gf = self.f_freq, self.g_amp, self.g_freq
        return solver.StokesProblem(
            mode=core.FourierMode(1, 0), nu=0.1, omega0=core.ModeField(grid, vals),
            forcing=lambda t: math.cos(freq * t) * prof,
            boundary_g=lambda t: np.array([g1 * math.sin(gf * t),
                                           g2 * (1.0 - math.exp(-t))], dtype=complex),
            t_final=self.FORCED_T)

    def jobs(self):
        out = [("forced", lambda: solver.duhamel_solve(self.forced, [self.FORCED_T]))]
        for regime, problem in self.homog.items():
            for t in self.HOMOG_T:
                out.append((f"homog-{regime}-t{t:g}",
                            lambda p=problem, t=t: solver.duhamel_solve(p, [t])))
        return out

    def warm_up(self):
        for problem in self.homog.values():
            solver.duhamel_solve(problem, [1.0])
        quiet = dataclasses.replace(self.forced, forcing=None, boundary_g=None)
        solver.duhamel_solve(quiet, [self.FORCED_T])

    def _problem(self, task):
        if task == "forced":
            return self.forced, self.FORCED_T
        _, regime, t = task.split("-")
        return self.homog[regime], float(t[1:])

    def digest(self, task, raw):
        _, t = self._problem(task)
        return raw.state_at(t).values.copy()

    def prepare_gate(self):
        # Crank-Nicolson on a 4x refined grid; coarse nodes are every 4th fine node
        n = self.CN_REFINE * (self.forced.omega0.grid.n - 1) + 1
        fine = self._forced_problem(core.HalfLineGrid.uniform(16.0, n))
        oracle = solver.crank_nicolson_oracle(fine, dt=self.FORCED_T / self.CN_STEPS,
                                              snapshot_times=[self.FORCED_T])
        self.reference = oracle.state_at(self.FORCED_T).values[:, ::self.CN_REFINE]

    def check(self, task, record):
        reasons = [] if _finite(record) else ["non-finite state"]
        if task == "forced":
            ref = self.reference
            rel = float(np.max(np.abs(record - ref)) / np.max(np.abs(ref)))
            if not rel <= self.TOL_FORCED:
                reasons.append(f"rel error {rel:.3e} vs Crank-Nicolson > {self.TOL_FORCED:g}")
            return reasons
        problem, _ = self._problem(task)
        n0 = problem.omega0.norm_l2()
        n1 = problem.omega0.grid.norm_l2(record)
        if not n1 <= n0:
            reasons.append(f"||omega(t)|| = {n1:.4g} > ||omega0|| = {n0:.4g}")
        return reasons

    def selftest_tasks(self):
        return ["forced", "homog-highfreq-t1"]

    def perturb(self, task, raw):
        problem, t = self._problem(task)
        vals = raw.state_at(t).values
        bad = []
        if task == "forced":
            bad.append(("state scaled by 1.01", vals * 1.01, "Crank-Nicolson"))
        else:
            n0 = problem.omega0.norm_l2()
            n1 = problem.omega0.grid.norm_l2(vals)
            bad.append(("norm raised above ||omega0||", vals * (1.001 * n0 / n1),
                        "||omega0||"))
        nan = vals.copy()
        nan[0, vals.shape[1] // 2] = np.nan
        bad.append(("one NaN node", nan, "non-finite"))
        return [(what, solver.Trajectory(times=[0.0, t], states=[
                    problem.omega0, core.ModeField(problem.omega0.grid, v)]), expect)
                for what, v, expect in bad]


# ---------------------------------------------------------------------------
# kernel_table: `stokesgreen kernel --grid 0:10:128` through cli.main


class KernelTable(Workload):
    name = "kernel_table"
    GRID = "0:10:128"
    N = 129  # the CLI rounds 128 up to an odd node count
    N_SAMPLES = 6
    SAMPLE_MAX = 2.5  # sampled y, z stay where the adaptive oracle keeps relative accuracy
    TOL = 1e-6  # acceptance criterion 3 (fixed vs adaptive Bromwich inversion)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.configs = {}
        for label, xi in (("lowfreq", (1, 0)), ("highfreq", (2, 1)), ("general", (1, 0))):
            t = float(rng.uniform(0.25, 1.0))
            argv = ["--xi", str(xi[0]), str(xi[1]), "--nu", "1", "--t", repr(t)]
            D = None
            if label == "general":
                sigma = rng.uniform(0.3, 0.9) * math.hypot(*xi)
                split = rng.uniform(0.2, 0.8)
                alpha, beta = split * sigma, (1.0 - split) * sigma
                gamma = math.sqrt(alpha * beta)
                argv += ["--general-bc", f"alpha={alpha!r},beta={beta!r},gamma={gamma!r}"]
                D = (alpha, beta, gamma)
            self.configs[label] = {"xi": xi, "t": t, "D": D, "argv": argv}
        h = 10.0 / (self.N - 1)
        kmax = int(self.SAMPLE_MAX / h)
        self.samples = rng.integers(0, kmax + 1, size=(self.N_SAMPLES, 2))
        self.first_hash: dict[str, str] = {}
        self._parsed: dict[str, dict] = {}
        self.references: dict[str, list] = {}

    def _argv(self, label, grid, out):
        return ["kernel", *self.configs[label]["argv"], "--grid", grid, "--out", str(out)]

    def jobs(self):
        out = []
        for label in self.configs:
            path = self.workdir / f"kernel-{label}.csv"
            argv = self._argv(label, self.GRID, path)
            out.append((label, lambda argv=argv, path=path: (cli.main(argv), path)))
        return out

    def warm_up(self):
        for label in self.configs:
            cli.main(self._argv(label, "0:10:8", self.workdir / "warm.csv"))

    def digest(self, task, raw):
        # Only hash here: the next pass overwrites the file, so a copy of each
        # distinct output is kept and parsed in ``check``, after the peak
        # memory of the passes has been read.
        rc, path = raw
        if rc != 0:
            return {"rc": rc}
        data = Path(path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        self.first_hash.setdefault(task, digest)
        kept = self.workdir / f"kept-{digest}.csv"
        if not kept.exists():
            kept.write_bytes(data)
        return {"rc": rc, "hash": digest, "kept": kept}

    def _parse(self, data: bytes) -> dict:
        lines = data.decode().split("\n")
        n = self.N
        if len(lines) != 4 + 12 * n * n + 1 or lines[3] != "y,z,entry,part,re,im" \
                or lines[-1] != "":
            return {"error": f"unexpected CSV layout ({len(lines)} lines)"}
        try:
            cols = np.loadtxt(lines[4:-1], delimiter=",", usecols=(0, 1, 4, 5))
        except ValueError as exc:
            return {"error": f"unparsable CSV: {exc}"}
        if not _finite(cols):
            return {"error": "non-finite value in CSV"}
        nodes = np.linspace(0.0, 10.0, n)
        yz = cols[:, :2].reshape(n, n, 12, 2)
        if not (np.array_equal(yz[:, 0, 0, 0], nodes)
                and np.array_equal(yz[0, :, 0, 1], nodes)):
            return {"error": "y/z columns do not match the grid"}
        # rows run over y, z, entry (11, 12, 21, 22), part (H, R1, R2)
        vals = (cols[:, 2] + 1j * cols[:, 3]).reshape(n, n, 2, 2, 3)
        return {"samples": [vals[i, j] for i, j in self.samples]}

    def prepare_gate(self):
        nodes = np.linspace(0.0, 10.0, self.N)
        for label, cfg in self.configs.items():
            mode = core.FourierMode(*cfg["xi"])
            refs = []
            for i, j in self.samples:
                y, z = nodes[i], nodes[j]
                if cfg["D"] is None:
                    parts = kernels.residual_kernel_time(cfg["t"], 1.0, mode, y, z,
                                                         method="adaptive")
                else:
                    D = resolvent.BoundaryOperatorD(*cfg["D"], c0=1.0, mode=mode)
                    parts = kernels.residual_kernel_general(cfg["t"], 1.0, mode, D, y, z,
                                                            check=True)
                H = kernels.heat_kernel_neumann(cfg["t"], 1.0, mode, y, z) * np.eye(2)
                refs.append(np.stack([H, parts["R1"], parts["R2"]], axis=-1))
            self.references[label] = refs

    def check(self, task, record):
        if record["rc"] != 0:
            return [f"CLI exit code {record['rc']}"]
        reasons = []
        if record["hash"] != self.first_hash[task]:
            reasons.append("output differs from the first run of the same config")
        if record["hash"] not in self._parsed:
            self._parsed[record["hash"]] = self._parse(record["kept"].read_bytes())
        parsed = self._parsed[record["hash"]]
        if "error" in parsed:
            return reasons + [parsed["error"]]
        worst = 0.0
        for got, ref in zip(parsed["samples"], self.references[task]):
            worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
        if not worst <= self.TOL:
            reasons.append(f"sampled entries differ from the reference by {worst:.3e}"
                           f" > {self.TOL:g}")
        return reasons

    def selftest_tasks(self):
        return ["lowfreq", "general"]

    def perturb(self, task, raw):
        _, path = raw
        lines = Path(path).read_text().split("\n")
        # the largest real part among the 12 rows of the first sampled (y, z)
        i, j = self.samples[0]
        first = 4 + (i * self.N + j) * 12
        rows = [lines[first + r].split(",") for r in range(12)]
        r = max(range(12), key=lambda r: abs(float(rows[r][4])))
        changed = lines.copy()
        changed[first + r] = ",".join(rows[r][:4] + [repr(float(rows[r][4]) * (1 + 1e-4)),
                                                     rows[r][5]])
        appended = lines.copy()
        appended[-2] += "0"  # a byte outside the samples
        bad = []
        for k, (what, text, expect) in enumerate((
                ("largest sampled value changed by 1e-4", changed, "sampled entries"),
                ("one digit appended to the last row", appended, "differs from the first"))):
            p = self.workdir / f"selftest-{task}-{k}.csv"
            p.write_text("\n".join(text))
            bad.append((what, (0, p), expect))
        bad.append(("exit code 3", (3, path), "exit code"))
        return bad


# ---------------------------------------------------------------------------
# verify_full: `stokesgreen verify --full` through cli.main, one task per check


class VerifyFull(Workload):
    name = "verify_full"
    known_defects = {
        "biot_savart_roundtrip": "rel_error 2.5e-3 > tol 1e-3 on 0:10:256, and its "
                                 "'pass' is written as the string \"False\" "
                                 "(ROADMAP open item 2)",
    }
    CHECKS = ("kernel_bound_certificate", "resolvent_sector_bound", "biot_savart_roundtrip")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # the seed draws the resolvent-bound trial data; the sweep is fixed
        self.cli_seed = int(self.rng.integers(0, 2**31 - 1))
        self.out = workdir / "verify.json"
        self.marks: list[float] = []
        # end-of-check marks: the first two checks end when these calls return
        self._patched = []
        for mod, attr in ((kernels, "verify_kernel_bounds"), (cli, "check_resolvent_bound")):
            fn = getattr(mod, attr)
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, self._marked(fn))

    def _marked(self, fn):
        marks = self.marks

        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks.append(time.perf_counter())
            return result

        marked.__wrapped__ = fn
        return marked

    def close(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)

    def _run(self, argv):
        self.marks.clear()
        start = time.perf_counter()
        rc = cli.main(argv)
        end = time.perf_counter()
        return rc, [start, *self.marks, end]

    def jobs(self):
        argv = ["verify", "--full", "--seed", str(self.cli_seed), "--out", str(self.out)]

        def job():
            self.out.unlink(missing_ok=True)  # never read a previous pass's report
            rc, marks = self._run(argv)
            text = self.out.read_text() if self.out.exists() else ""
            return rc, text, marks

        return [("verify", job)]

    def task_names(self, job):
        return list(self.CHECKS)

    def split(self, job, result, elapsed):
        rc, text, marks = result
        if len(marks) == len(self.CHECKS) + 1:
            lat = np.diff(marks)
        else:  # the CLI stopped early; share the time evenly
            lat = [elapsed / len(self.CHECKS)] * len(self.CHECKS)
        return [(name, float(lat[k]), (rc, text, k)) for k, name in enumerate(self.CHECKS)]

    def warm_up(self):
        self._run(["verify", "--seed", str(self.cli_seed),
                   "--out", str(self.workdir / "warm.json")])

    def digest(self, task, raw):
        rc, text, k = raw
        try:
            checks = json.loads(text)["checks"]
            names = [c["name"] for c in checks]
            passes = [c["pass"] for c in checks]
        except (ValueError, KeyError, TypeError) as exc:
            return {"rc": rc, "error": f"unreadable report: {exc!r}"}
        if names != list(self.CHECKS):
            return {"rc": rc, "error": f"unexpected checks {names}"}
        return {"rc": rc, "passes": passes, "k": k}

    def check(self, task, record):
        if "error" in record:
            return [record["error"]]
        reasons = []
        passes = record["passes"]
        expected_rc = 0 if all(p is True for p in passes) else cli.EXIT_NUMERICAL
        if record["rc"] != expected_rc:
            reasons.append(f"CLI exit code {record['rc']}, report implies {expected_rc}")
        mine = passes[record["k"]]
        if mine is not True:
            reasons.append(f"pass is {json.dumps(mine)}, not the JSON literal true")
        return reasons

    def selftest_tasks(self):
        return ["kernel_bound_certificate"]

    def perturb(self, task, raw):
        rc, text, k = raw
        report = json.loads(text)
        as_string = json.loads(text)
        as_string["checks"][k]["pass"] = "True"
        all_true = json.loads(text)
        for c in all_true["checks"]:
            c["pass"] = True
        return [("pass written as the string \"True\"", (rc, json.dumps(as_string), k),
                 "literal true"),
                ("exit code 3 with every check true", (3, json.dumps(all_true), k),
                 "exit code"),
                ("truncated report", (rc, text[: len(text) // 2], k), "unreadable"),
                ("check missing", (rc, json.dumps({"checks": report["checks"][:2]}), k),
                 "unexpected checks")]


# ---------------------------------------------------------------------------
# resolvent_sweep: 200 resolvent solves at n = 8193


class ResolventSweep(Workload):
    name = "resolvent_sweep"
    N = 8193
    Z_MAX = 30.0
    N_FIELDS = 4
    FD_EVERY = 40
    TOL_BOUNDARY = 1e-8  # acceptance criterion 1, relative to ||f||
    # The interior residual lambda u - apply_delta_xi(u) - f, relative to the
    # equation's largest term, is the truncation error of the 3-point
    # Laplacian: of order h^2/12 (|mu|^2 + |f''|/|f|), mu^2 = lambda/nu +
    # |xi|^2.  Over 1 600 tasks (seeds 1-8) it reached 1.2 times that
    # estimate with the general boundary operator and 6.7 times with no-slip,
    # whose boundary layer is largest against the other terms at small
    # |lambda|.  Each task may have about five times the observed maximum, and
    # never more than 1e-2 of the largest term.
    TOL_INTERIOR_C = {"general": 6.0, "noslip": 30.0}
    TOL_INTERIOR_MAX = 1e-2
    TOL_FD = 1e-3  # tests/test_resolvent.py finite-difference comparison

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.grid = core.HalfLineGrid.uniform(self.Z_MAX, self.N)
        self.mode = core.FourierMode(2, 1)
        self.nu = float(rng.uniform(0.2, 1.0))
        xin = self.mode.norm
        sigma = rng.uniform(0.3, 0.9) * xin
        split = rng.uniform(0.2, 0.8)
        a, b = split * sigma, (1.0 - split) * sigma
        self.D = resolvent.BoundaryOperatorD(a, b, math.sqrt(a * b), c0=1.0, mode=self.mode)
        # the no-slip condition is the general one with D = P(xi)/|xi|
        P = core.projection_matrix(self.mode).real / xin
        self.D_noslip = resolvent.BoundaryOperatorD(P[0, 0], P[1, 1], P[0, 1], c0=2.0,
                                                    mode=self.mode)
        self.fields = [core.ModeField(self.grid, _bump_values(rng, self.grid.nodes, 2,
                                                              0.5, 0.6 * self.Z_MAX,
                                                              (0.3, 1.5)))
                       for _ in range(self.N_FIELDS)]
        lams = []
        for t in np.exp(rng.uniform(math.log(0.05), math.log(2.0), size=3)):
            # lambda = m (1 + i u)^2, m = pi N / (12 t), u = k 3/N, N = 16
            m = math.pi * 16 / (12.0 * t)
            u = np.arange(-16, 17) * (3.0 / 16)
            lams.extend(m * (1.0 + 1j * u) ** 2)
        r = np.exp(rng.uniform(math.log(0.1), math.log(100.0), size=200 - len(lams)))
        phi = rng.uniform(-0.75 * math.pi, 0.75 * math.pi, size=r.size)
        lams.extend(r * np.exp(1j * phi))
        self.points = [core.SpectralPoint(lam=complex(lam), nu=self.nu, mode=self.mode)
                       for lam in lams]
        h = self.grid.nodes[1] - self.grid.nodes[0]
        curvature = []  # max |f''| / max |f| per field, by second differences
        for f in self.fields:
            v = f.values
            d2 = np.abs(v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / h**2
            curvature.append(float(np.max(d2) / np.max(np.abs(v))))
        xi2 = self.mode.norm**2
        self.tol_interior = [
            min(self.TOL_INTERIOR_MAX, self.TOL_INTERIOR_C[self._task(k).split("-")[0]]
                * h**2 / 12.0 * (abs(p.lam / p.nu + xi2) + curvature[k % self.N_FIELDS]))
            for k, p in enumerate(self.points)]
        self.fd: dict[str, np.ndarray] = {}
        self.fd_kept: set[str] = set()

    def _task(self, k):
        kind = "general" if k % 2 else "noslip"
        return f"{kind}-{k:03d}"

    def _inputs(self, task):
        kind, k = task.split("-")
        k = int(k)
        return kind, self.fields[k % self.N_FIELDS], self.points[k]

    def _solve(self, task):
        kind, f, point = self._inputs(task)
        if kind == "general":
            return resolvent.resolvent_apply_general(f, point, self.D)
        return resolvent.resolvent_apply(f, point)

    def jobs(self):
        return [(self._task(k), lambda task=self._task(k): self._solve(task))
                for k in range(len(self.points))]

    def warm_up(self):
        self._solve(self._task(0))
        self._solve(self._task(1))

    def digest(self, task, raw):
        kind, f, point = self._inputs(task)
        u = raw.u.values
        if not _finite(u):
            return {"error": "non-finite solution"}
        if kind == "general":
            # du/dz(0) + D u(0), with dv/dz(0) = 0 and dw/dz(0) = -mu c0 exactly
            bres = float(np.linalg.norm(-point.mu * raw.c0 + self.D.matrix @ u[:, 0]))
        else:
            bres = raw.boundary_residual()
        lap = core.apply_delta_xi(raw.u, point.nu, point.mode).values[:, 2:-2]
        lam_u, fv = point.lam * u[:, 2:-2], f.values[:, 2:-2]
        scale = max(np.max(np.abs(lam_u)), np.max(np.abs(lap)), np.max(np.abs(fv)))
        record = {"bres": bres / f.norm_l2(),
                  "ires": float(np.max(np.abs(lam_u - lap - fv)) / scale)}
        # a subset is compared with finite differences: the first pass's
        # solutions, and any digested once the references exist (self-test)
        if self._fd_task(task) and (task not in self.fd_kept or task in self.fd):
            self.fd_kept.add(task)
            record["u"] = u.copy()
        return record

    def prepare_gate(self):
        for task in self.fd_kept:
            kind, f, point = self._inputs(task)
            D = self.D if kind == "general" else self.D_noslip
            self.fd[task] = solver.finite_difference_resolvent_general(f, point, D)

    def check(self, task, record):
        if "error" in record:
            return [record["error"]]
        reasons = []
        if not record["bres"] <= self.TOL_BOUNDARY:
            reasons.append(f"boundary residual {record['bres']:.3e} > {self.TOL_BOUNDARY:g}")
        tol = self.tol_interior[int(task.split("-")[1])]
        if not record["ires"] <= tol:
            reasons.append(f"interior PDE residual {record['ires']:.3e} > {tol:.3e}")
        if "u" in record:
            u = record["u"]
            rel = float(np.max(np.abs(u - self.fd[task])) / np.max(np.abs(u)))
            if not rel <= self.TOL_FD:
                reasons.append(f"differs from finite differences by {rel:.3e} > {self.TOL_FD:g}")
        return reasons

    def _fd_task(self, task):
        return int(task.split("-")[1]) % self.FD_EVERY in (0, 1)

    def selftest_tasks(self):
        # the first two finite-difference tasks, and the task with the
        # tightest interior tolerance among the others
        k = min((k for k in range(len(self.points)) if not self._fd_task(self._task(k))),
                key=self.tol_interior.__getitem__)
        return [self._task(0), self._task(1), self._task(k)]

    def perturb(self, task, raw):
        u = raw.u.values

        def with_u(vals):
            return dataclasses.replace(raw, u=core.ModeField(self.grid, vals))

        _, f, _ = self._inputs(task)
        boundary = u.copy()
        boundary[:, 0] += 1e-6 * f.norm_l2()
        interior = u.copy()
        interior[:, self.N // 3] += 1e-3 * np.max(np.abs(u))
        scaled = u * 1.01
        nan = u.copy()
        nan[1, -1] = np.nan
        return [("boundary value moved by 1e-6", with_u(boundary), "boundary residual"),
                ("one interior node moved by 1e-3", with_u(interior), "interior PDE"),
                ("solution scaled by 1.01", with_u(scaled),
                 "finite differences" if self._fd_task(task) else "interior PDE"),
                ("one NaN node", with_u(nan), "non-finite")]


WORKLOADS = {w.name: w for w in (Evolve, KernelTable, VerifyFull, ResolventSweep)}
