"""Per-mode evolution of the forced Stokes vorticity system, plus oracles.

``duhamel_solve`` evaluates omega(t) = e^{tA} omega_0 + int_0^t e^{(t-s)A} (f, g)(s) ds
for A = nu Delta_xi, omega_3(0) = 0 and du/dz + D u = -g/nu on the tangential
pair, D = ``BoundaryOperatorD.no_slip(xi)`` (P(xi)/|xi|, or 0 at xi = 0).
All three terms are contour integrals of the resolvent on one
Weideman-Trefethen parabola, summed by the trapezoid rule over 33 nodes:
e^{tA} (f, g) = sum_k w_k e^{lambda_k t} (lambda_k - A)^{-1} (f, g), each solve
taking f in the interior and g in the boundary condition.  Each solve is the
resolvent's own, ``resolvent._solve_rows``: an O(n) image-exponential action
(even on the tangential pair, odd on omega_3) plus its boundary layer.  The
time integrals use the substitution s = t - sigma^2 with Gauss-Legendre in
sigma, which removes the (nu (t-s))^{-1/2} trace singularity of the boundary
term and keeps all integrands smooth.

Two finite-difference oracles validate the representation and the resolvent.
Both use one 3-point operator for nu Delta_xi on (omega_1, omega_2, omega_3):
its tangential boundary row eliminates the ghost node through the mixed
condition du/dz + D u = 0, and omega_3 at z = 0 and every far node are pinned.
``crank_nicolson_oracle`` steps it with theta = 1/2 (unconditionally stable)
for the vorticity condition's D; ``finite_difference_resolvent_general``
solves (lambda - nu Delta_xi) u = f on its tangential block for any admissible D.
Both factor a sparse matrix with ``scipy.sparse.linalg.splu``; they import
``scipy.sparse`` on their first call, so the package import does not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .actions import _as_rows
from .core import FourierMode, HalfLineGrid, ModeField, SpectralPoint
from .errors import IncompatibleData, StabilityWarning
from .resolvent import BoundaryOperatorD, _solve_rows

__all__ = [
    "StokesProblem",
    "Trajectory",
    "duhamel_solve",
    "crank_nicolson_oracle",
    "finite_difference_resolvent_general",
]


@dataclass
class StokesProblem:
    """One per-mode initial-boundary-value problem on the half line, with the
    vorticity boundary condition D = ``BoundaryOperatorD.no_slip(mode)``.

    ``forcing(t)`` returns interior force node values of shape (3, n) and
    ``boundary_g(t)`` the tangential boundary datum pair, shape (2,); both
    default to zero (None), and a source that is not callable or returns
    any other shape or a value that is not finite raises IncompatibleData, as
    does initial data that is not finite.
    Initial data with omega_3(0) != 0 is incompatible with the boundary
    condition and is corrected by zeroing the first node (linear interpolation
    over the first cell); the correction size is recorded.
    """

    mode: FourierMode
    nu: float
    omega0: ModeField
    forcing: object = None
    boundary_g: object = None
    t_final: float = 1.0
    compat_correction: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not 0.0 < self.nu < math.inf:
            raise IncompatibleData(f"viscosity must be finite and positive, got {self.nu}")
        if not 0.0 < self.t_final < math.inf:
            raise IncompatibleData(f"t_final must be finite and positive, got {self.t_final}")
        if self.omega0.ncomp != 3:
            raise IncompatibleData("omega0 must have 3 components")
        if not np.all(np.isfinite(self.omega0.values)):
            raise IncompatibleData("omega0 must be finite")
        for name in ("forcing", "boundary_g"):
            if getattr(self, name) is not None and not callable(getattr(self, name)):
                raise IncompatibleData(f"{name} must be a function of t or None")
        w3_0 = self.omega0.values[2, 0]
        if w3_0 != 0.0:
            vals = self.omega0.values.copy()
            vals[2, 0] = 0.0
            self.omega0 = ModeField(self.omega0.grid, vals)
            self.compat_correction = abs(w3_0)

    def force_at(self, t: float) -> np.ndarray:
        if self.forcing is None:
            return np.zeros_like(self.omega0.values)
        return _checked_shape(self.forcing(t), self.omega0.values.shape, "forcing(t)")

    def g_at(self, t: float) -> np.ndarray:
        if self.boundary_g is None:
            return np.zeros(2, dtype=complex)
        return _checked_shape(self.boundary_g(t), (2,), "boundary_g(t)")


def _checked_shape(value, shape: tuple, what: str) -> np.ndarray:
    try:
        value = np.asarray(value, dtype=complex)
    except (TypeError, ValueError):  # a string, a ragged list, an object
        raise IncompatibleData(f"{what} must be a numeric array of shape {shape}, "
                               f"got {value!r:.80}") from None
    if value.shape != shape:
        raise IncompatibleData(f"{what} must have shape {shape}, got {value.shape}")
    if not np.all(np.isfinite(value)):
        raise IncompatibleData(f"{what} must be finite")
    return value


@dataclass(eq=False)  # an array field: == is identity
class Trajectory:
    """Output times (starting at 0) and the states at those times."""

    times: np.ndarray
    states: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise IncompatibleData("times must start at 0 and increase")
        if len(self.states) != self.times.size:
            raise IncompatibleData("one state per time required")

    def state_at(self, t: float) -> ModeField:
        i = int(np.argmin(np.abs(self.times - t)))
        # argmin of all-NaN or all-inf distances is 0, and inf would pass the tolerance
        if not math.isfinite(t) or abs(self.times[i] - t) > 1e-9 * max(t, 1.0):
            raise IncompatibleData(f"time {t} not in trajectory")
        return self.states[i]


# ---------------------------------------------------------------------------
# Duhamel representation

# Trapezoid nodes per half of the Weideman-Trefethen parabola lambda = m (1 + iu)^2,
# m = pi N / 12 t, u_k = 3k/N for |k| <= N (Math. Comp. 76 (2007) 1341).  Re lambda
# <= m on the contour, so e^{lambda t} is bounded by e^{pi N/12} there.
_N_CONTOUR = 16
# Gauss-Legendre nodes in sigma = sqrt(t - s) for the forcing and boundary terms.
_N_QUAD = 48
# omega_tau carries the even (Neumann) image, omega_3 the odd (Dirichlet) one
_PARITY = np.array([[1.0], [1.0], [-1.0]])


def _parabola(nu, mode, t):
    """Nodes of e^{tA} = sum_k c_k (lambda_k - A)^{-1}: (c, mu) with c_k = w_k e^{lambda_k t}.

    w_k = h lambda'(u_k) / (2 pi i) are the trapezoid weights (h = 3/N) and
    mu_k = sqrt(lambda_k / nu + |xi|^2) the resolvent's decay rates.
    """
    u = np.arange(-_N_CONTOUR, _N_CONTOUR + 1) * (3.0 / _N_CONTOUR)
    m = np.pi * _N_CONTOUR / (12.0 * t)
    lam = m * (1.0 + 1j * u) ** 2
    w = (3.0 / _N_CONTOUR) * m * (1.0 + 1j * u) / np.pi
    return w * np.exp(lam * t), np.sqrt(lam / nu + mode.norm**2)


def _propagate(grid, nu, mode, t, values, g, D):
    """Apply the 3-component solution operator at time t to node values and
    the tangential boundary datum pair g.

    A sum of exact resolvent solves on PL data with du/dz + D u = -g/nu, one
    ``resolvent._solve_rows`` per parabola node (parity -1 on omega_3).
    """
    rows = _as_rows(grid, values, False)
    out = np.zeros(values.shape, dtype=complex)
    for c, mu in zip(*_parabola(nu, mode, t)):
        v, _, w = _solve_rows(grid, rows, mu, nu, D, _PARITY, g, c)
        out += v
        out[:2] += w
    return out


def duhamel_solve(problem: StokesProblem, times) -> Trajectory:
    """Evaluate the Green's-function representation at the requested times.

    ``times`` must be a non-empty, strictly increasing 1-D sequence of finite
    times in [0, problem.t_final], IncompatibleData otherwise (raised before
    any solve).  One ``_propagate`` call takes omega_0, and one per
    Gauss-Legendre node in sigma = sqrt(t - s) takes f(s) and g(s) together.

    The error is absolute, about 1e-13 of max |omega_0| (and of the sources):
    the parabola passes right of the pole lambda = 0, so e^{-nu |xi|^2 t} is
    not factored out, and a component decayed below ~1e-15 of the data loses
    its relative accuracy (omega_3 at nu |xi|^2 t = 250 reads ~1e-17, not 1e-110).
    """
    grid = problem.omega0.grid
    nu, mode = problem.nu, problem.mode
    D = BoundaryOperatorD.no_slip(mode)
    times = np.asarray(times, dtype=float)
    # written so that NaN, which fails every comparison, is out of range too
    if times.ndim != 1 or times.size == 0 or not np.all(
            (times >= 0.0) & (times <= problem.t_final)):
        raise IncompatibleData("times must be a non-empty 1-D sequence of finite "
                               f"times in [0, t_final = {problem.t_final}]")
    bad = np.flatnonzero(np.diff(times) <= 0.0)
    if bad.size:
        i = bad[0] + 1
        how = "repeats" if times[i] == times[i - 1] else "is below"
        raise IncompatibleData(f"times must strictly increase: times[{i}] = {times[i]} "
                               f"{how} times[{i - 1}] = {times[i - 1]}")
    states = []
    x_gl, w_gl = np.polynomial.legendre.leggauss(_N_QUAD)
    no_g = np.zeros(2, dtype=complex)
    for t in times:
        if t == 0.0:
            states.append(problem.omega0)
            continue
        # the sources first: one that is not finite raises before any solve
        vals = 0.0
        if problem.forcing is not None or problem.boundary_g is not None:
            sig = 0.5 * np.sqrt(t) * (x_gl + 1.0)
            wts = 0.5 * np.sqrt(t) * w_gl * 2.0 * sig  # ds = 2 sigma dsigma
            for sigma, wt in zip(sig, wts):
                tk = sigma**2  # kernel time t - s
                vals += wt * _propagate(grid, nu, mode, tk, problem.force_at(t - tk),
                                        problem.g_at(t - tk), D)
        states.append(ModeField(grid, _propagate(grid, nu, mode, t, problem.omega0.values,
                                                 no_g, D) + vals))
    if times[0] != 0.0:
        times = np.concatenate([[0.0], times])
        states = [problem.omega0] + states
    return Trajectory(times=times, states=states)


# ---------------------------------------------------------------------------
# finite-difference oracles


def _fd_operator(grid: HalfLineGrid, nu: float, mode: FourierMode, D: BoundaryOperatorD):
    """nu Delta_xi as a 3-point difference operator on (omega_1, omega_2, omega_3).

    A 3n x 3n sparse matrix acting on the stacked node values.  Row 0 of the
    tangential pair eliminates the ghost node through du/dz + D u = 0,
    u_{-1} = u_1 + 2 h D u_0, which adds nu (2/h) D.  The boundary row of omega_3
    and every far-node row are zero: those values are pinned.
    """
    import scipy.sparse as sp

    n, h = grid.n, grid.h
    lap = sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                   [-1, 0, 1], format="lil", dtype=complex) / h**2
    lap[0, 1] = 2.0 / h**2
    A = sp.kron(sp.eye(3), nu * (lap - mode.norm**2 * sp.eye(n)), format="lil")
    C = nu * (2.0 / h) * D.matrix
    for a in range(2):
        for b in range(2):
            A[a * n, b * n] += C[a, b]
    for row in _pinned_rows(n):
        A[row, :] = 0.0
    return A.tocsc()


def _pinned_rows(n: int) -> list:
    """Far nodes of all three components and the boundary node of omega_3."""
    return [n - 1, 2 * n - 1, 2 * n, 3 * n - 1]


def crank_nicolson_oracle(problem: StokesProblem, dt: float,
                          snapshot_times=None) -> Trajectory:
    """Second-order finite-difference solve of the per-mode system on the grid
    of ``problem.omega0``.

    Crank-Nicolson (theta = 1/2) steps of the operator ``_fd_operator`` that
    ``finite_difference_resolvent_general`` also solves with: the tangential
    pair takes the vorticity condition du/dz + D u = -g/nu through the ghost
    node, with D = ``BoundaryOperatorD.no_slip(mode)``, omega_3 is pinned to 0
    at z = 0, and all three vanish at the far node.  The scheme is unconditionally stable; a
    StabilityWarning is emitted when nu dt / h^2 is large enough that the
    requested accuracy is unlikely.  dt must be finite and positive, with
    t_final / dt rounding to at least one step; ``snapshot_times`` must lie in
    [0, t_final] on the step grid k dt (to the tolerance
    ``Trajectory.state_at`` uses) after dt is adjusted to divide t_final.
    """
    grid = problem.omega0.grid
    nu, mode = problem.nu, problem.mode
    n = grid.n
    h = grid.h
    steps = problem.t_final / dt if 0.0 < dt < math.inf else math.nan
    if not 0.5 < steps < math.inf:  # NaN fails too; round(steps) >= 1 below
        raise IncompatibleData(f"dt must be finite, positive and give a step, got {dt}")
    if nu * dt / h**2 > 200.0:
        warnings.warn("nu dt / h^2 is very large; Crank-Nicolson accuracy degrades",
                      StabilityWarning, stacklevel=2)
    if snapshot_times is None:
        snapshot_times = [problem.t_final]
    snapshot_times = np.asarray(sorted(set(float(t) for t in snapshot_times)))
    nsteps = int(round(steps))
    dt = problem.t_final / nsteps
    if not np.all((snapshot_times >= 0.0) & (snapshot_times <= problem.t_final)):
        raise IncompatibleData(f"snapshot times must lie in [0, t_final = {problem.t_final}]")
    snap_steps = {int(round(t / dt)): t for t in snapshot_times if t > 0}
    for k, t in snap_steps.items():
        if abs(t - k * dt) > 1e-9 * max(t, 1.0):
            raise IncompatibleData(f"snapshot time {t} is not a step k dt, dt = {dt}")

    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    A = _fd_operator(grid, nu, mode, BoundaryOperatorD.no_slip(mode))
    eye = sp.eye(3 * n, format="csc")
    lu = splu((eye - 0.5 * dt * A).tocsc())
    M = (eye + 0.5 * dt * A).tocsc()
    pinned = _pinned_rows(n)

    def source(t):
        src = np.array(problem.force_at(t), dtype=complex).reshape(3 * n)
        src[[0, n]] += (2.0 / h) * problem.g_at(t)
        src[pinned] = 0.0
        return src

    w = np.array(problem.omega0.values, dtype=complex).reshape(3 * n)
    w[pinned] = 0.0

    times = [0.0]
    states = [ModeField(grid, w.reshape(3, n))]
    s_prev = source(0.0)
    for k in range(1, nsteps + 1):
        s_new = source(k * dt)
        w = lu.solve(M @ w + 0.5 * dt * (s_prev + s_new))
        s_prev = s_new
        if k in snap_steps:
            times.append(snap_steps[k])
            states.append(ModeField(grid, w.reshape(3, n)))
    return Trajectory(times=np.asarray(times), states=states)


def finite_difference_resolvent_general(f: ModeField, point: SpectralPoint,
                                        D: BoundaryOperatorD) -> np.ndarray:
    """Stationary finite-difference solve of (lambda - nu Delta_xi) u = f
    with the general boundary condition du/dz(0) + D u(0) = 0 (ghost node).

    Independent oracle for ``resolvent_apply_general``, on the tangential block
    of ``_fd_operator``; returns node values (2, n).  f must be the
    tangential pair (two components).
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    D.check_mode(point.mode)
    if f.ncomp != 2:
        raise IncompatibleData(f"the resolvent acts on the tangential pair, got {f.ncomp} "
                               "components")
    n = f.grid.n
    far = [n - 1, 2 * n - 1]
    A = _fd_operator(f.grid, point.nu, point.mode, D)[:2 * n, :2 * n]
    # A's far rows are zero; a unit diagonal there pins u = 0 also at lambda = 0
    diag = np.full(2 * n, complex(point.lam))
    diag[far] = 1.0
    rhs = np.array(f.values, dtype=complex).reshape(2 * n)
    rhs[far] = 0.0
    u = splu((sp.diags(diag) - A).tocsc()).solve(rhs)
    return u.reshape(2, n)

