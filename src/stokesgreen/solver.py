"""Per-mode evolution of the forced Stokes vorticity system, plus oracles.

``duhamel_solve`` evaluates the Green's-function representation

    omega(t) = G(t) omega_0
             + int_0^t G(t-s) f(s) ds
             + int_0^t G(t-s, y; 0) (g(s), 0)^T ds.

On the tangential pair G is the Neumann heat kernel plus the no-slip residual
kernel R(t, y, z); on the third component it is the Dirichlet heat kernel.  The
heat parts act exactly on the piecewise-linear interpolant.  R is the inverse
Laplace transform of the resolvent's boundary layer e^{-mu(y+z)} D /
(nu mu (mu - sigma)).  On one Weideman-Trefethen parabola for all (y, z) it is
a sum of 33 separable terms c_k e^{-mu_k (y+z)} D.  Each term acts on data
through the exact trace int e^{-mu_k z} (PL f)(z) dz that the resolvent's free
part uses.  The time integrals use the substitution s = t - sigma^2 with
Gauss-Legendre in sigma, which removes the (nu (t-s))^{-1/2} trace singularity
of the boundary term and keeps all integrands smooth.

Two finite-difference oracles validate the representation and the resolvent.
Both use one 3-point operator for nu Delta_xi on (omega_1, omega_2, omega_3):
its tangential boundary row eliminates the ghost node through the mixed
condition du/dz + D u = 0, and omega_3 at z = 0 and every far node are pinned.
``crank_nicolson_oracle`` steps it with theta = 1/2 (unconditionally stable)
for the vorticity condition's D; ``finite_difference_resolvent_general``
solves (lambda - nu Delta_xi) u = f on its tangential block for any admissible D.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .actions import halfline_laplace_weights, image_action_gauss
from .core import FourierMode, HalfLineGrid, ModeField, SpectralPoint
from .errors import AsymmetricModeSet, IncompatibleData, StabilityWarning
from .resolvent import BoundaryOperatorD, _vorticity_operator

__all__ = [
    "StokesProblem",
    "Trajectory",
    "duhamel_solve",
    "crank_nicolson_oracle",
    "finite_difference_resolvent_general",
    "uniqueness_demo",
    "assemble_3d",
]


@dataclass
class StokesProblem:
    """One per-mode initial-boundary-value problem on the half line.

    ``forcing(t)`` returns interior force node values of shape (3, n) and
    ``boundary_g(t)`` the tangential boundary datum pair; both default to zero.
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
        if self.nu <= 0:
            raise IncompatibleData(f"viscosity must be positive, got {self.nu}")
        if self.t_final <= 0:
            raise IncompatibleData(f"t_final must be positive, got {self.t_final}")
        if self.omega0.ncomp != 3:
            raise IncompatibleData("omega0 must have 3 components")
        w3_0 = self.omega0.values[2, 0]
        if w3_0 != 0.0:
            vals = self.omega0.values.copy()
            vals[2, 0] = 0.0
            self.omega0 = ModeField(self.omega0.grid, vals)
            self.compat_correction = abs(w3_0)

    def force_at(self, t: float) -> np.ndarray:
        if self.forcing is None:
            return np.zeros_like(self.omega0.values)
        return np.asarray(self.forcing(t), dtype=complex)

    def g_at(self, t: float) -> np.ndarray:
        if self.boundary_g is None:
            return np.zeros(2, dtype=complex)
        return np.asarray(self.boundary_g(t), dtype=complex)


@dataclass
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
        if abs(self.times[i] - t) > 1e-9 * max(t, 1.0):
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


def _residual_modes(grid, nu, mode, t):
    """Separable no-slip residual kernel R(t, y, z) = sum_k c_k e^{-mu_k (y+z)} D.

    R is the Bromwich integral of e^{lambda t} e^{-mu (y+z)} D / (nu mu (mu - sigma)),
    the boundary-layer part of the resolvent, with D = P(xi)/|xi| and sigma = |xi|.
    The parabola does not depend on (y, z), so each node k is one separable term.
    Returns (c, mu, E, D) with E[k, n] = e^{-mu_k y_n}, or None for the zero
    mode, whose tangential pair has no residual kernel.
    """
    if mode.is_zero:
        return None
    D = BoundaryOperatorD.no_slip(mode)
    u = np.arange(-_N_CONTOUR, _N_CONTOUR + 1) * (3.0 / _N_CONTOUR)
    m = np.pi * _N_CONTOUR / (12.0 * t)
    lam = m * (1.0 + 1j * u) ** 2
    # trapezoid weights h lambda'(u_k) / (2 pi i) with h = 3/N
    dlam = (3.0 / _N_CONTOUR) * m * (1.0 + 1j * u) / np.pi
    mu = np.sqrt(lam / nu + mode.norm**2)
    c = dlam * np.exp(lam * t) / (nu * mu * (mu - D.sigma))
    return c, mu, np.exp(-np.outer(mu, grid.nodes)), D


def _propagate(grid, nu, mode, t, values, modes):
    """Apply the 3-component solution operator at time t to node values.

    ``modes`` is ``_residual_modes`` at t.  The residual part uses the exact
    trace int e^{-mu z} (PL f)(z) dz of the data.
    """
    decay = np.exp(-nu * mode.norm**2 * t)
    out = np.empty_like(values)
    out[:2] = decay * image_action_gauss(grid, values[:2], nu * t, +1, warn_truncation=False)
    out[2] = decay * image_action_gauss(grid, values[2:], nu * t, -1,
                                        warn_truncation=False)[0]
    if modes is not None:
        c, mu, E, D = modes
        traces = halfline_laplace_weights(grid, mu) @ values[:2].T
        out[:2] += ((c[:, None] * traces) @ D.matrix.T).T @ E
    return out


def _boundary_kernel_column(grid, nu, mode, t, modes):
    """G(t, y; 0) restricted to the tangential pair: a (2, 2, n) array."""
    y = grid.nodes
    a = 4.0 * nu * t
    h = 2.0 / np.sqrt(np.pi * a) * np.exp(-(y**2) / a) * np.exp(-nu * mode.norm**2 * t)
    out = h[None, None, :] * np.eye(2)[:, :, None]
    if modes is not None:
        c, _, E, D = modes
        out = out + (c @ E)[None, None, :] * D.matrix[:, :, None]
    return out


def duhamel_solve(problem: StokesProblem, times) -> Trajectory:
    """Evaluate the Green's-function representation at the requested times.

    Times must lie in [0, problem.t_final].  The forcing and boundary Duhamel
    integrals use Gauss-Legendre nodes in sigma = sqrt(t - s).
    """
    grid = problem.omega0.grid
    nu, mode = problem.nu, problem.mode
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0) or np.any(times > problem.t_final):
        raise IncompatibleData(f"times must lie in [0, t_final = {problem.t_final}]")
    states = []
    x_gl, w_gl = np.polynomial.legendre.leggauss(_N_QUAD)
    has_force = problem.forcing is not None
    has_g = problem.boundary_g is not None
    for t in times:
        if t == 0.0:
            states.append(problem.omega0)
            continue
        vals = _propagate(grid, nu, mode, t, problem.omega0.values,
                          _residual_modes(grid, nu, mode, t))
        if has_force or has_g:
            sig = 0.5 * np.sqrt(t) * (x_gl + 1.0)
            wts = 0.5 * np.sqrt(t) * w_gl * 2.0 * sig  # ds = 2 sigma dsigma
            for sigma, wt in zip(sig, wts):
                tk = sigma**2  # kernel time t - s
                modes = _residual_modes(grid, nu, mode, tk)
                if has_force:
                    vals = vals + wt * _propagate(grid, nu, mode, tk,
                                                  problem.force_at(t - tk), modes)
                if has_g:
                    col = _boundary_kernel_column(grid, nu, mode, tk, modes)
                    vals[:2] += wt * np.einsum("abn,b->an", col, problem.g_at(t - tk))
        states.append(ModeField(grid, vals))
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
    node, with D = P(xi)/|xi| (0 at xi = 0), omega_3 is pinned to 0 at z = 0,
    and all three vanish at the far node.  The scheme is unconditionally stable; a
    StabilityWarning is emitted when nu dt / h^2 is large enough that the
    requested accuracy is unlikely.  ``snapshot_times`` must lie in
    [0, t_final] on the step grid k dt (to the tolerance
    ``Trajectory.state_at`` uses) after dt is adjusted to divide t_final.
    """
    grid = problem.omega0.grid
    nu, mode = problem.nu, problem.mode
    n = grid.n
    h = grid.h
    if nu * dt / h**2 > 200.0:
        warnings.warn("nu dt / h^2 is very large; Crank-Nicolson accuracy degrades",
                      StabilityWarning, stacklevel=2)
    if snapshot_times is None:
        snapshot_times = [problem.t_final]
    snapshot_times = np.asarray(sorted(set(float(t) for t in snapshot_times)))
    nsteps = int(round(problem.t_final / dt))
    dt = problem.t_final / nsteps
    if np.any(snapshot_times < 0.0) or np.any(snapshot_times > problem.t_final):
        raise IncompatibleData(f"snapshot times must lie in [0, t_final = {problem.t_final}]")
    snap_steps = {int(round(t / dt)): t for t in snapshot_times if t > 0}
    for k, t in snap_steps.items():
        if abs(t - k * dt) > 1e-9 * max(t, 1.0):
            raise IncompatibleData(f"snapshot time {t} is not a step k dt, dt = {dt}")

    A = _fd_operator(grid, nu, mode, _vorticity_operator(mode))
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
    of ``_fd_operator``; returns node values (2, n).
    """
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


# ---------------------------------------------------------------------------
# demonstrations and assembly


def uniqueness_demo(mode: FourierMode, nu: float, perturbation: float,
                    grid: HalfLineGrid | None = None, t_final: float = 1.0,
                    dt: float = 1e-3, seed: int = 0) -> dict:
    """Evolve the homogeneous system from noise-scale data.

    Dissipativity forces the norm to stay at the noise scale (uniqueness), and
    the xi . omega_tau component obeys a decoupled Neumann heat equation, so it
    cannot be excited beyond its initial size.
    """
    if grid is None:
        grid = HalfLineGrid.uniform(20.0, 513)
    rng = np.random.default_rng(seed)
    vals = perturbation * (rng.normal(size=(3, grid.n))
                           + 1j * rng.normal(size=(3, grid.n)))
    vals[:, -1] = 0.0
    vals[2, 0] = 0.0
    problem = StokesProblem(mode=mode, nu=nu, omega0=ModeField(grid, vals),
                            t_final=t_final)
    snaps = np.linspace(0.0, t_final, 6)[1:]
    traj = crank_nicolson_oracle(problem, dt, snapshot_times=snaps)
    norms = [st.norm_l2() for st in traj.states]
    xi_vec = mode.as_array()
    xi_dot = [float(np.max(np.abs(xi_vec @ st.values[:2]))) for st in traj.states]
    return {"times": traj.times.tolist(), "norms": norms,
            "xi_dot_max": xi_dot, "perturbation": perturbation, "seed": seed,
            "monotone": bool(np.all(np.diff(norms) <= 1e-10 * max(norms[0], 1e-300)))}


def assemble_3d(mode_states: dict, x_points) -> np.ndarray:
    """Sum per-mode states over a conjugate-symmetric mode set at tangential points.

    ``mode_states`` maps FourierMode -> node values (ncomp, n); ``x_points`` is
    an (npts, 2) array of tangential sample locations.  The result
    (npts, ncomp, n) is asserted real and returned as a float array.
    """
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    out = None
    for mode, vals in mode_states.items():
        conj_mode = mode.conjugate()
        if conj_mode not in mode_states:
            raise AsymmetricModeSet(f"mode {mode} present without {conj_mode}")
        if not np.allclose(mode_states[conj_mode], np.conj(vals), rtol=1e-10, atol=1e-12):
            raise AsymmetricModeSet(f"data at {conj_mode} is not the conjugate of {mode}")
        phase = np.exp(1j * (x_points @ mode.as_array()))
        term = phase[:, None, None] * np.asarray(vals, dtype=complex)[None, :, :]
        out = term if out is None else out + term
    if out is None:
        raise IncompatibleData("empty mode set")
    scale = np.max(np.abs(out))
    if scale > 0 and np.max(np.abs(out.imag)) > 1e-10 * scale:
        raise AsymmetricModeSet("assembled field has a nonreal residue")
    return out.real
