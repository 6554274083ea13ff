"""Per-mode resolvent solves (lambda - nu Delta_xi) u = f on the half line.

Every boundary condition here reads du/dz(0) + D u(0) = 0 for an admissible
boundary operator D (det D = 0, alpha, beta >= 0, alpha + beta <= c0 |xi|).
The vorticity (no-slip) condition -(d/dz + |xi|) u(0) + xi |xi|^{-1} xi . u(0)
= 0 is the member D = P(xi)/|xi|, with trace sigma = |xi| and its pole at
lambda* = nu (sigma^2 - |xi|^2) = 0; at xi = 0 it degenerates to pure Neumann,
D = 0.  ``BoundaryOperatorD.no_slip`` builds both.

The solution splits as u = v + w:

* v is the whole-space/Neumann free part, built from the even image kernel
  (e^{-mu|y-z|} + e^{-mu(y+z)}) / (2 nu mu), so gamma(dv/dz) = 0 exactly.
  It is ``ResolventSolution.v``, and the whole solution for D = 0;
* w = c0 e^{-mu y} corrects the boundary condition: (mu - D) c0 = D v(0), and
  since D^2 = sigma D this is c0 = D v(0) / (mu - sigma).

Kernel actions are exact on the piecewise-linear interpolant of f (see
``actions``), so the interior PDE residual of u is pure finite-difference
error, O(h^2), and the boundary residual is zero up to rounding.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .actions import _as_rows, _exp_action_rows
from .core import (
    FourierMode,
    HalfLineGrid,
    ModeField,
    SpectralPoint,
    projection_matrix,
)
from .errors import HypothesisViolated, IncompatibleData, PoleHit

__all__ = [
    "BoundaryOperatorD",
    "ResolventSolution",
    "resolvent_apply",
    "resolvent_apply_general",
    "check_resolvent_bound",
]


@dataclass(frozen=True)
class BoundaryOperatorD:
    """Admissible boundary operator D = [[alpha, gamma_off], [gamma_off, beta]].

    Validated on construction: all four numbers finite, det D = 0 (so
    D^2 = (alpha+beta) D), both diagonal entries nonnegative, and trace
    alpha + beta <= c0 |xi| (up to rounding, relative 1e-12).  ``matrix`` is
    D as a read-only real 2x2 array, built once.
    """

    alpha: float
    beta: float
    gamma_off: float
    c0: float
    mode: FourierMode
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b, g = self.alpha, self.beta, self.gamma_off
        if not all(math.isfinite(x) for x in (a, b, g, self.c0)):
            raise HypothesisViolated(
                f"alpha, beta, gamma and c0 must be finite, got {a}, {b}, {g}, {self.c0}")
        if self.c0 <= 0:
            raise HypothesisViolated(f"c0 must be positive, got {self.c0}")
        det = a * b - g * g
        if abs(det) >= 1e-12 * max(1.0, a * a, b * b):
            raise HypothesisViolated(f"det D = {det} != 0")
        if a < 0 or b < 0:
            raise HypothesisViolated(f"need alpha, beta >= 0, got {a}, {b}")
        if a + b > self.c0 * self.mode.norm * (1.0 + 1e-12):
            raise HypothesisViolated(
                f"alpha + beta = {a + b} exceeds c0 |xi| = {self.c0 * self.mode.norm}")
        matrix = np.array([[a, g], [g, b]], dtype=float)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def no_slip(cls, mode: FourierMode) -> "BoundaryOperatorD":
        """The vorticity (no-slip) condition: D = P(xi)/|xi| with c0 = 1.

        The trace is |xi| exactly, so the pole sits at lambda* = 0 exactly.
        At xi = 0 the condition degenerates to pure Neumann: D = 0.
        """
        if mode.is_zero:
            return cls(alpha=0.0, beta=0.0, gamma_off=0.0, c0=1.0, mode=mode)
        D = projection_matrix(mode).real / mode.norm
        if D[0, 0] + D[1, 1] != mode.norm:
            # lambda* = 0 needs the trace to be |xi| exactly.  Where the
            # quotients xi_j^2/|xi| miss it in the last bit, the smaller entry
            # becomes |xi| minus the larger (>= |xi|/2), exact by Sterbenz's
            # lemma; quotients that already sum to |xi| are kept as they are.
            j = int(D[0, 0] >= D[1, 1])
            D[j, j] = mode.norm - D[1 - j, 1 - j]
        return cls(alpha=D[0, 0], beta=D[1, 1], gamma_off=D[0, 1], c0=1.0, mode=mode)

    @property
    def sigma(self) -> float:
        """Trace alpha + beta; D^2 = sigma D and the kernel pole sits at mu = sigma."""
        return self.alpha + self.beta

    def pole_lambda(self, nu: float) -> float:
        """lambda* = nu (sigma^2 - |xi|^2), the pole of the corrected resolvent."""
        return nu * (self.sigma**2 - self.mode.norm**2)

    def check_mode(self, mode: FourierMode) -> None:
        """Raise HypothesisViolated unless D was built (and validated) for ``mode``."""
        if self.mode != mode:
            raise HypothesisViolated(
                f"D was built for xi = ({self.mode.xi1}, {self.mode.xi2}), "
                f"not for xi = ({mode.xi1}, {mode.xi2})")

    def correction(self, point: SpectralPoint) -> np.ndarray:
        """(mu - D)^{-1} D = D / (mu - sigma), the boundary-layer coefficient map.

        Raises HypothesisViolated when D belongs to another mode, PoleHit when
        lambda sits on the pole lambda*.
        """
        self.check_mode(point.mode)
        lam_star = self.pole_lambda(point.nu)
        if abs(point.lam - lam_star) < 1e-12 * max(point.nu * self.mode.norm**2, 1.0):
            raise PoleHit(f"lambda = {point.lam} hits the boundary pole lambda* = {lam_star}")
        return self.matrix / (point.mu - self.sigma)


@dataclass(frozen=True)
class ResolventSolution:
    """u = v + w: full solution, free part, boundary correction w = c0 e^{-mu y}."""

    u: ModeField
    v: ModeField
    w: ModeField
    point: SpectralPoint
    D: BoundaryOperatorD
    c0: np.ndarray

    def boundary_residual(self) -> float:
        """|du/dz(0) + D u(0)| = |-mu c0 + D u(0)| from the analytic closed forms.

        gamma(dv/dz) = 0 exactly for the image free part and dw/dz(0) = -mu c0,
        so no finite differencing enters.
        """
        res = -self.point.mu * self.c0 + self.D.matrix @ self.u.values[:, 0]
        return float(np.linalg.norm(res))


def resolvent_apply(f: ModeField, point: SpectralPoint) -> ResolventSolution:
    """Solve the resolvent problem with the vorticity boundary condition,
    D = ``BoundaryOperatorD.no_slip(point.mode)``.

    The free part is ``ResolventSolution.v``.  For the zero mode the condition
    degenerates to pure Neumann (D = 0), so u = v.
    """
    return _solve(f, point, BoundaryOperatorD.no_slip(point.mode))


def resolvent_apply_general(f: ModeField, point: SpectralPoint,
                            D: BoundaryOperatorD) -> ResolventSolution:
    """Resolvent with the admissible boundary condition gamma(du/dz + D u) = 0.

    u(y) = v(y) + e^{-mu y} D v(0) / (mu - sigma).
    """
    return _solve(f, point, D)


def _solve(f: ModeField, point: SpectralPoint, D: BoundaryOperatorD) -> ResolventSolution:
    """u = v + w from one sweep: w is built on the sweep's own e^{-mu y} table.

    v(y) = (1/2 nu mu) int (e^{-mu|y-z|} + e^{-mu(y+z)}) f(z) dz, exactly on PL f.
    Called only from the two public solvers, so a truncation warning points
    at their caller.  f must be the tangential pair (two components) and
    finite; a non-finite f raises IncompatibleData.
    """
    if f.ncomp != 2:
        raise IncompatibleData(f"the resolvent acts on the tangential pair, got {f.ncomp} "
                               "components")
    correction = D.correction(point)
    rows = _as_rows(f.grid, f.values, True, stacklevel=3)
    # an infinite value of f makes inf * 0 in the sweep; v[r, 0] carries row
    # r's whole Laplace trace, so every non-finite value of f reaches it, and
    # one O(1) test raises for all of them instead of a pass over f
    with np.errstate(invalid="ignore"):
        v, decay = _exp_action_rows(f.grid, rows, point.mu, 1,
                                    1.0 / (2.0 * point.nu * point.mu))
    if not all(map(cmath.isfinite, v[:, 0].tolist())):
        raise IncompatibleData("the resolvent data f must be finite")
    c0 = correction @ v[:, 0]
    w = c0[:, None] * decay
    return ResolventSolution(u=ModeField(f.grid, v + w), v=ModeField(f.grid, v),
                             w=ModeField(f.grid, w), point=point, D=D, c0=c0)


def _h1_norm(grid: HalfLineGrid, values: np.ndarray) -> float:
    dv = np.gradient(values, grid.nodes, axis=-1)
    return math.sqrt(grid.norm_l2(values) ** 2 + grid.norm_l2(dv) ** 2)


def check_resolvent_bound(point: SpectralPoint, trials: int, seed: int = 0,
                          grid: HalfLineGrid | None = None) -> dict:
    """Empirical sectorial resolvent bounds over random Gaussian-bump data.

    Returns sup over trials of

    * ``l2_ratio``  = ||u||_2 |lambda + nu |xi|^2| / ||f||_2,
    * ``h1_ratio``  = ||u||_{H^1} sqrt(nu) |lambda + nu |xi|^2|^{1/2} / ||f||_2.

    ``trials`` must be a positive integer: no trial bounds nothing.
    """
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise IncompatibleData(f"trials must be an integer >= 1, got {trials!r}")
    if grid is None:
        grid = HalfLineGrid.uniform(20.0, 801)
    rng = np.random.default_rng(seed)
    weight = abs(point.lam + point.nu * point.mode.norm**2)
    sup_l2 = sup_h1 = 0.0
    for _ in range(trials):
        centers = rng.uniform(0.5, 0.6 * grid.z_max, size=(2, 1))
        widths = rng.uniform(0.2, 2.0, size=(2, 1))
        amps = rng.normal(size=(2, 2)) @ np.array([1.0, 1j])
        vals = amps[:, None] * np.exp(-((grid.nodes - centers) / widths) ** 2)
        f = ModeField(grid, vals)
        sol = resolvent_apply(f, point)
        nf = f.norm_l2()
        sup_l2 = max(sup_l2, sol.u.norm_l2() * weight / nf)
        sup_h1 = max(sup_h1, _h1_norm(grid, sol.u.values)
                     * math.sqrt(point.nu) * math.sqrt(weight) / nf)
    return {"l2_ratio": sup_l2, "h1_ratio": sup_h1, "trials": trials,
            "seed": seed, "lambda": point.lam, "nu": point.nu,
            "xi": (point.mode.xi1, point.mode.xi2), "n_nodes": grid.n}
