"""Command-line front end: deterministic data tables and verification reports.

Commands: ``kernel``, ``resolvent``, ``solve``, ``verify``, ``biot-savart``.
Parameters come from flags, optionally seeded by a JSON config file
(``--config``); flags override the file.  CSV output uses 17-significant-digit
round-trip floats and '#' provenance headers naming the formulas and
parameters used, so identical configs produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import signal
import stat
import sys
import threading

import numpy as np

from . import biot_savart as bs
from . import kernels, solver
from .core import FourierMode, HalfLineGrid, ModeField, SpectralPoint
from .errors import StokesGreenError
from .resolvent import BoundaryOperatorD, check_resolvent_bound, resolvent_apply_general

__all__ = ["main", "cmd_kernel", "cmd_resolvent", "cmd_solve", "cmd_verify",
           "cmd_biot_savart"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# signals whose default action would end a rewrite without cutting the file
_STOP_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP")
                      if hasattr(signal, name))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_each(x: np.ndarray) -> np.ndarray:
    """``_fmt`` of every element of a real float64 array, as an object array
    of its shape, formatting each distinct bit pattern once (bits, not values:
    -0.0 == 0.0 but prints as -0).  TypeError on complex input, whose
    imaginary part a cast to float would drop."""
    if np.iscomplexobj(x):
        raise TypeError("_fmt_each formats real arrays only")
    bits, inv = np.unique(np.ascontiguousarray(x, dtype=float).view(np.int64),
                          return_inverse=True)
    text = np.array([_fmt(v) for v in bits.view(np.float64)], dtype=object)
    return text[inv.reshape(x.shape)]


def _parse_grid(spec: str) -> HalfLineGrid:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise ValueError(f"grid spec must be A:B:N, got {spec!r}") from exc
    if a != 0.0:
        raise ValueError("grid must start at 0")
    if n % 2 == 0:
        n += 1  # composite Simpson needs an odd node count
    try:
        return HalfLineGrid.uniform(b, n)
    except StokesGreenError as exc:
        raise ValueError(f"grid spec {spec!r}: {exc}") from exc


def _parse_general_bc(spec: str, mode: FourierMode) -> BoundaryOperatorD:
    """D from ``K=V,...`` with each of alpha, beta, gamma (default 0) and c0
    (default 1) given at most once; any other key, or a repeated one, raises
    ValueError."""
    kv = {}
    for item in spec.split(","):
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in ("alpha", "beta", "gamma", "c0"):
            raise ValueError(f"unknown --general-bc key {key!r} "
                             "(expected alpha, beta, gamma, c0)")
        if key in kv:
            raise ValueError(f"--general-bc key {key!r} given twice")
        kv[key] = float(val)
    return BoundaryOperatorD(alpha=kv.get("alpha", 0.0), beta=kv.get("beta", 0.0),
                             gamma_off=kv.get("gamma", 0.0), c0=kv.get("c0", 1.0), mode=mode)


def _open_in_place(path: str):
    """``path`` as a text file written from offset 0, created with mode 0o666
    (less the umask) if missing and not truncated on open."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        return open(fd, "w")
    except BaseException:
        os.close(fd)
        raise


def _write(*outputs) -> None:
    """Write each (path, chunks) pair: its text chunks in order, to stdout for
    no path or '-', else over the file at ``path`` in place.

    Every path is opened before any is written: when one cannot be opened,
    none is written, the files this call created are removed, and ValueError
    makes ``main`` exit 2 with one line instead of a traceback.  A regular
    file is cut at the end of what reached it, also when writing raises, so no
    byte of a longer earlier file survives after the new text; stdout, devices
    and FIFOs are never truncated.  While a regular file is written, SIGTERM
    and SIGHUP raise SystemExit (``_stop_signals_raise``), so they cut it too.
    A process ended without cleanup (SIGKILL, another signal left at its
    default action, a crash, power loss) can leave a plausible mixed file: the
    new header and rows followed by rows of the old file.  No output is
    fsync'ed.
    """
    new = [p for p, _ in outputs if p not in (None, "-") and not os.path.lexists(p)]
    with contextlib.ExitStack() as stack:
        try:
            handles = [sys.stdout if p in (None, "-") else stack.enter_context(_open_in_place(p))
                       for p, _ in outputs]
        except OSError as exc:
            stack.close()
            for p in filter(os.path.lexists, new):
                os.remove(p)
            raise ValueError(f"cannot write output: {exc}") from exc
        for fh, (_, chunks) in zip(handles, outputs):
            if fh is sys.stdout or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.writelines(chunks)
                continue
            with _stop_signals_raise():
                try:
                    fh.writelines(chunks)
                    fh.flush()
                finally:  # at the file's own offset: a failed flush must not keep the old tail
                    os.ftruncate(fh.fileno(), os.lseek(fh.fileno(), 0, os.SEEK_CUR))


@contextlib.contextmanager
def _stop_signals_raise():
    """Meanwhile, SIGTERM and SIGHUP raise SystemExit(128 + signum) instead of
    ending the process at once.  Only signals left at their default action
    are taken, and only in the main thread: an ignored SIGHUP (nohup) stays
    ignored and a caller's own handlers stay in place."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def stop(signum, frame):
        raise SystemExit(128 + signum)

    taken = {s: signal.signal(s, stop) for s in _STOP_SIGNALS
             if signal.getsignal(s) == signal.SIG_DFL}
    try:
        yield
    finally:
        for s, handler in taken.items():
            signal.signal(s, handler)


def _bump_params(ncomp: int, seed: int, z_max: float, interior: bool = False):
    """Random Gaussian bump parameters; ``interior`` keeps the bumps away from
    both boundaries (needed when data must be compatible with the BC)."""
    rng = np.random.default_rng(seed)
    lo = 0.25 * z_max if interior else 0.5
    centers = rng.uniform(lo, 0.5 * z_max, size=(ncomp, 1))
    widths = (rng.uniform(0.6, 1.0, size=(ncomp, 1)) if interior
              else rng.uniform(0.3, 1.5, size=(ncomp, 1)))
    amps = rng.normal(size=(ncomp, 2)) @ np.array([1.0, 1j])
    return centers, widths, amps


def _bump_values(grid: HalfLineGrid, params) -> np.ndarray:
    centers, widths, amps = params
    return amps[:, None] * np.exp(-((grid.nodes - centers) / widths) ** 2)


def _bump_field(grid: HalfLineGrid, ncomp: int, seed: int) -> np.ndarray:
    return _bump_values(grid, _bump_params(ncomp, seed, grid.z_max))


# ---------------------------------------------------------------------------
# commands


def cmd_kernel(args) -> int:
    mode = FourierMode(args.xi[0], args.xi[1])
    grid = _parse_grid(args.grid)
    if args.general_bc is not None:
        D = _parse_general_bc(args.general_bc, mode)
        kind = f"general-bc kernel alpha={D.alpha} beta={D.beta} gamma={D.gamma_off}"
    else:
        D = BoundaryOperatorD.no_slip(mode)
        kind = "no-slip vorticity kernel"
    sample = kernels.sample_green_function(args.t, args.nu, mode,
                                           grid.nodes, grid.nodes, D=D)
    header = [
        f"# green-function sample: heat-image part + residual erfc closed form ({kind})",
        f"# xi=({mode.xi1},{mode.xi2}) nu={_fmt(args.nu)} t={_fmt(args.t)} "
        f"grid=0:{_fmt(grid.z_max)}:{grid.n}",
        "# split: R1 = 2 e^(lambda* t - sigma (y+z)) D where y+z < 2 sigma nu t, else 0;"
        " R2 = rho D - R1",
        "y,z,entry,part,re,im",
    ]
    # one row per (y, z, entry, part), in that nesting order.  R1 and R2 are
    # rho1 D and rho2 D, formed and formatted once per distinct float
    # s = y + z and taken by each pair through s_index; the heat part once
    # per (y, z), and its off-diagonal entries H * 0 are the literal 0, since
    # H is finite and >= 0.  _fmt_each raises TypeError on a complex part
    # (the im column is 0).  r_parts is (s, a, b, part): each s's 8 rows in order.
    r_parts = np.moveaxis(sample.rho[..., None, None] * sample.D.matrix, 0, -1)
    # per distinct s, the tail ",ab,part,re,0\n" of each of its 8 residual rows
    r_labels = np.array([f",{a + 1}{b + 1},{pname}," for a in range(2) for b in range(2)
                         for pname in ("R1", "R2")], dtype=object)
    r_tails = r_labels + _fmt_each(r_parts).reshape(-1, 8) + ",0\n"
    h_text = _fmt_each(sample.H)
    z_text = "," + _fmt_each(sample.z_nodes)
    # one y-row of the table as items "y,z" | tail, 12 rows per (y, z): the
    # H rows 0, 9 (entries 11, 22) take the heat value, 3, 6 are constant
    cells = np.empty((len(z_text), 12, 2), dtype=object)
    cells[:, 3, 1] = ",12,H,0,0\n"
    cells[:, 6, 1] = ",21,H,0,0\n"
    r_rows = [1, 2, 4, 5, 7, 8, 10, 11]
    y_text = _fmt_each(sample.y_nodes)

    def chunks():  # the header, then one y-row of the table at a time
        yield "\n".join(header) + "\n"
        for y, h_y, s_y in zip(y_text, h_text, sample.s_index):
            cells[:, :, 0] = (y + z_text)[:, None]
            h_tail = h_y + ",0\n"
            cells[:, 0, 1] = ",11,H," + h_tail
            cells[:, 9, 1] = ",22,H," + h_tail
            cells[:, r_rows, 1] = r_tails[s_y]
            yield "".join(cells.ravel().tolist())

    _write((args.out, chunks()))
    return EXIT_OK


def cmd_resolvent(args) -> int:
    mode = FourierMode(args.xi[0], args.xi[1])
    grid = _parse_grid(args.grid)
    lam = complex(args.lam[0], args.lam[1])
    point = SpectralPoint(lam=lam, nu=args.nu, mode=mode)
    f = ModeField(grid, _bump_field(grid, 2, args.seed))
    if args.general_bc is not None:
        D = _parse_general_bc(args.general_bc, mode)
        kind = f"general-bc alpha={D.alpha} beta={D.beta} gamma={D.gamma_off}"
    else:
        D = BoundaryOperatorD.no_slip(mode)
        kind = "no-slip vorticity condition"
    sol = resolvent_apply_general(f, point, D)
    lines = [
        "# resolvent solve u = v + w: even-image free part + boundary-layer correction",
        f"# xi=({mode.xi1},{mode.xi2}) nu={_fmt(args.nu)} lambda={_fmt(lam.real)}"
        f"{lam.imag:+.17g}j mu={_fmt(point.mu.real)}{point.mu.imag:+.17g}j ({kind})",
        f"# seed={args.seed} boundary_residual={_fmt(sol.boundary_residual())}",
        "z,component,part,re,im",
    ]
    # rows "z,component,part,re,im" for the parts u, v, w, f and both components
    parts = np.array([sol.u.values, sol.v.values, sol.w.values, f.values])
    labels = np.array([[f",{comp + 1},{name}," for comp in range(2)] for name in "uvwf"],
                      dtype=object)
    rows = (_fmt_each(grid.nodes) + labels[:, :, None] + _fmt_each(parts.real) + ","
            + _fmt_each(parts.imag))
    lines.extend(rows.ravel().tolist())
    _write((args.out, ["\n".join(lines) + "\n"]))
    return EXIT_OK


def cmd_solve(args) -> int:
    mode = FourierMode(args.xi[0], args.xi[1])
    grid = _parse_grid(args.grid)
    bump = _bump_params(3, args.seed, grid.z_max, interior=True)
    vals = _bump_values(grid, bump)
    vals[2, 0] = 0.0
    problem = solver.StokesProblem(mode=mode, nu=args.nu,
                                   omega0=ModeField(grid, vals), t_final=args.t)
    times = np.linspace(0.0, args.t, 5)
    traj = solver.duhamel_solve(problem, times)
    lines = [
        "# per-mode evolution by the Green's-function (Duhamel) representation",
        f"# xi=({mode.xi1},{mode.xi2}) nu={_fmt(args.nu)} t_final={_fmt(args.t)} "
        f"seed={args.seed} grid=0:{_fmt(grid.z_max)}:{grid.n}",
        "t,z,component,re,im",
    ]
    # rows "t,z,component,re,im" for every output time and component
    values = np.array([st.values for st in traj.states])
    labels = np.array([f",{comp + 1}," for comp in range(3)], dtype=object)
    rows = (_fmt_each(traj.times)[:, None, None] + "," + _fmt_each(grid.nodes)
            + labels[:, None] + _fmt_each(values.real) + "," + _fmt_each(values.imag))
    lines.extend(rows.ravel().tolist())
    # the oracle and its report come first: a failure writes neither file
    outputs = [(args.out, ["\n".join(lines) + "\n"])]
    passed = True
    if args.oracle:
        # run the oracle on a 4x refined grid so its own O(h^2) error does not
        # dominate the comparison; the coarse nodes are a subset of the fine ones
        refine = 4
        fine = HalfLineGrid.uniform(grid.z_max, refine * (grid.n - 1) + 1)
        fine_vals = _bump_values(fine, bump)
        fine_vals[2, 0] = 0.0
        fine_problem = solver.StokesProblem(mode=mode, nu=args.nu,
                                            omega0=ModeField(fine, fine_vals),
                                            t_final=args.t)
        oracle = solver.crank_nicolson_oracle(fine_problem, dt=args.t / 2000,
                                              snapshot_times=times[1:])
        errs = {}
        for t in times[1:]:
            a = traj.state_at(t).values
            b = oracle.state_at(t).values[:, ::refine]
            errs[_fmt(t)] = float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))
        passed = all(e < args.tol for e in errs.values())
        text = json.dumps({"comparison": "finite-difference oracle, ghost-node boundary",
                           "max_rel_errors": errs, "tol": args.tol, "pass": passed},
                          indent=2, sort_keys=True)
        if args.out and args.out != "-":
            outputs.append((args.out + ".oracle.json", [text + "\n"]))
    _write(*outputs)
    if args.oracle and len(outputs) == 1:
        print(text, file=sys.stderr)  # stdout holds the CSV alone
    return EXIT_OK if passed else EXIT_NUMERICAL


def cmd_verify(args) -> int:
    mode = FourierMode(args.xi[0], args.xi[1])
    checks = []

    bounds = kernels.verify_kernel_bounds(
        nu_values=(1.0, 0.04) if args.full else (1.0,),
        xi_values=tuple(range(1, 9)) if args.full else (1, 4, 8),
        t_values=(0.01, 0.0316, 0.1, 0.316, 1.0) if args.full else (0.01, 0.1, 1.0),
        theta0=args.theta0)
    checks.append({"name": "kernel_bound_certificate",
                   "sup_ratios": {k: bounds[k]["sup"] for k in ("no_slip", "general")},
                   "argmax(nu,xi,t,k,s)": {k: bounds[k]["argmax(nu,xi,t,k,s)"]
                                           for k in ("no_slip", "general")},
                   "tolerance": "finite sup ratios", "pass": bounds["pass"]})

    point = SpectralPoint(lam=3.0 + 0.0j, nu=args.nu, mode=mode)
    rb = check_resolvent_bound(point, trials=10, seed=args.seed)
    rb["lambda"] = [point.lam.real, point.lam.imag]
    rb_pass = np.isfinite(rb["l2_ratio"]) and np.isfinite(rb["h1_ratio"])
    checks.append({"name": "resolvent_sector_bound", "report": rb,
                   "tolerance": "finite sup ratios", "pass": bool(rb_pass)})

    grid = _parse_grid(args.grid)
    stream = np.exp(-((grid.nodes - 0.5 * grid.z_max) / (0.1 * grid.z_max)) ** 2)
    W = ModeField(grid, np.array([stream, 0.5 * stream, 0.2 * stream]))
    h = bs.curl_mode(W, mode)
    rt = bs.check_biot_savart_roundtrip(h, mode)
    checks.append({"name": "biot_savart_roundtrip", "report": rt,
                   "tolerance": args.tol, "pass": bool(rt["rel_error"] < args.tol)})

    report = {"checks": checks, "pass": all(c["pass"] for c in checks)}
    _write((args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"]))
    return EXIT_OK if report["pass"] else EXIT_NUMERICAL


def cmd_biot_savart(args) -> int:
    mode = FourierMode(args.xi[0], args.xi[1])
    grid = _parse_grid(args.grid)
    rng = np.random.default_rng(args.seed)
    c = rng.uniform(0.4, 0.5) * grid.z_max
    w = 0.07 * grid.z_max
    stream = np.exp(-((grid.nodes - c) / w) ** 2)
    amps = rng.normal(size=3)
    W = ModeField(grid, np.array([amps[0] * stream, amps[1] * stream, amps[2] * stream]))
    h = bs.curl_mode(W, mode)
    rt = bs.check_biot_savart_roundtrip(h, mode)
    fvals = np.exp(-2.0 * grid.nodes)
    lap = (mode.norm**2 - 4.0) * fvals
    errs = bs.check_trace_identities(ModeField(grid, fvals), mode,
                                     laplacian=lap, df0=-2.0)
    report = {"roundtrip": rt,
              "trace_identity_errors": {"dirichlet": errs[0], "neumann": errs[1]},
              "seed": args.seed, "tolerance": args.tol,
              "pass": bool(rt["rel_error"] < args.tol and max(errs) < args.tol)}
    _write((args.out, [json.dumps(report, indent=2, sort_keys=True) + "\n"]))
    return EXIT_OK if report["pass"] else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# argument plumbing


# every flag of some command, by name; a command registers only the flags its
# cmd_* reads, so any other flag is an argparse error (exit 2)
_FLAGS = {
    "xi": dict(nargs=2, type=int, default=[1, 0], metavar=("I", "J")),
    "nu": dict(type=float, default=1.0),
    "t": dict(type=float, default=0.5),
    "lambda": dict(dest="lam", nargs=2, type=float, default=[3.0, 0.0],
                   metavar=("RE", "IM")),
    "grid": dict(default="0:10:256", metavar="A:B:N"),
    "general-bc": dict(default=None, metavar="K=V[,K=V...]"),
    "seed": dict(type=int, default=0),
    "tol": dict(type=float, default=1e-3),
    "oracle": dict(action="store_true"),
    "full": dict(action="store_true", help="full bound-certificate sweep"),
    "theta0": dict(type=float, default=0.25),
    "out": dict(default=None, metavar="PATH"),
}

# each command runs the cmd_* of its name ('-' as '_'), looked up by ``main``
# on each call, so a function rebound on the module (a wrapper) is the one called
_COMMANDS = (
    ("kernel", "sample the Green's function on a grid",
     ("xi", "nu", "t", "grid", "general-bc", "out")),
    ("resolvent", "solve one resolvent problem",
     ("xi", "nu", "lambda", "grid", "general-bc", "seed", "out")),
    ("solve", "evolve one mode and optionally compare oracles",
     ("xi", "nu", "t", "grid", "seed", "tol", "oracle", "out")),
    ("verify", "run the verification suites",
     ("xi", "nu", "grid", "seed", "tol", "full", "theta0", "out")),
    ("biot-savart", "roundtrip and trace-identity checks",
     ("xi", "grid", "seed", "tol", "out")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stokesgreen",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="JSON file of defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call without ``--config``, built on first use.

    Parsing leaves a parser as it was, so one serves every such call; a
    ``--config`` call installs its file's defaults on a fresh ``_build_parser``
    instead, so they never reach a later call."""
    return _build_parser()


def _config_value_ok(action: argparse.Action, val) -> bool:
    """Whether a JSON config value has the type the flag ``action`` parses."""
    if action.nargs == 0:  # store_true
        return isinstance(val, bool)
    kinds = {float: (int, float), int: (int,), None: (str,)}[action.type]
    items = val if action.nargs is not None else [val]
    return (isinstance(items, list) and len(items) == (action.nargs or 1)
            and all(isinstance(v, kinds) and not isinstance(v, bool) for v in items))


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Install a JSON config file's values as subcommand defaults, so flags win.

    Each key names a subcommand flag, by flag or destination name ('-' and
    '_' alike), and its value must have that flag's type; ValueError if not.
    """
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    flags = {}
    for p in commands.values():
        for a in p._actions:
            if a.dest != "help":
                for name in (a.dest, *(o.lstrip("-") for o in a.option_strings)):
                    flags[name.replace("-", "_")] = a
    for key, val in config.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} names no flag")
        if not _config_value_ok(action, val):
            raise ValueError(f"config value {val!r} for {key!r} does not have "
                             "its flag's type")
        for p in commands.values():
            if action.dest in {a.dest for a in p._actions}:
                p.set_defaults(**{action.dest: val})


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if args.config:
            parser = _build_parser()
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        # each check runs only for the commands that take the flag
        if hasattr(args, "nu") and not 0.0 < args.nu < math.inf:
            raise ValueError(f"viscosity must be finite and positive, got {args.nu}")
        if hasattr(args, "t") and not 0.0 < args.t < math.inf:
            raise ValueError(f"time must be finite and positive, got {args.t}")
        if hasattr(args, "tol") and not 0.0 < args.tol < 1.0:
            raise ValueError(f"tolerance must be in (0,1), got {args.tol}")
        if hasattr(args, "theta0") and not 0.0 < args.theta0 < 1.0:
            raise ValueError(f"theta0 must be in (0,1), got {args.theta0}")
        if hasattr(args, "seed") and args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StokesGreenError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
