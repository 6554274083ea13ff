"""Shared spectral/geometric primitives for the per-mode half-space Stokes solver.

Everything downstream works one tangential Fourier mode at a time: a field
omega(x, z) on T^2 x R+ is decomposed as

    omega(x, z) = sum_xi omega_xi(z) exp(i xi . x),   xi in Z^2,

and each mode solves a one-dimensional problem on the half line z >= 0 with the
operator  Delta_xi = -|xi|^2 + d^2/dz^2.  This module provides the mode/grid
containers, the principal-branch spectral root, the 2x2 projection P(xi) and
the discrete Delta_xi.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BranchCutViolation,
    GridTooSmall,
    IncompatibleData,
    ZeroModeUnsupported,
)

__all__ = [
    "FourierMode",
    "SpectralPoint",
    "HalfLineGrid",
    "ModeField",
    "spectral_root",
    "apply_delta_xi",
    "projection_matrix",
]


@dataclass(frozen=True)
class FourierMode:
    """A tangential wave vector xi = (xi1, xi2) in Z^2.

    A component that is not an integer (Python or numpy) raises
    IncompatibleData: xi indexes a Fourier mode of T^2.
    """

    xi1: int
    xi2: int

    def __post_init__(self):
        for x in (self.xi1, self.xi2):
            try:
                operator.index(x)
            except TypeError:
                raise IncompatibleData(f"xi must be an integer pair, got {x!r}") from None

    @property
    def norm(self) -> float:
        return math.hypot(self.xi1, self.xi2)

    @property
    def is_zero(self) -> bool:
        return self.xi1 == 0 and self.xi2 == 0


def _real(x):
    """``x`` as a float array; IncompatibleData unless it holds real numbers
    (a str, None, a complex or a ragged sequence would fail a comparison or
    ``float``, or lose its imaginary part)."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # a ragged sequence
        raise IncompatibleData(f"expected real numbers, got {x!r}") from exc
    if a.dtype.kind not in "biuf":
        raise IncompatibleData(f"expected real numbers, got {x!r}")
    return a.astype(float, copy=False)


def spectral_root(lam: complex, nu: float, mode: FourierMode) -> complex:
    """Principal-branch root mu = nu^{-1/2} sqrt(lambda + nu |xi|^2).

    mu is the decay rate of exp(-mu z) solutions of
    (lambda - nu Delta_xi) u = 0, so Re mu > 0 is required for decaying
    solutions.  The principal branch guarantees that away from the cut
    lambda + nu|xi|^2 in (-inf, 0], where a BranchCutViolation is raised.
    A viscosity that is not finite and positive raises IncompatibleData, and
    so do a lambda that is not a number, a nu that is not one real number
    (a str or None for either, a complex nu) and a mode that is not a
    FourierMode.
    """
    if not isinstance(mode, FourierMode):
        raise IncompatibleData(f"mode must be a FourierMode, got {mode!r}")
    try:
        if isinstance(lam, (str, bytes)):
            raise TypeError  # complex() would parse it
        lam = complex(lam)
    except (TypeError, ValueError):
        raise IncompatibleData(f"lambda must be a number, got {lam!r}") from None
    nu = _real(nu)
    if nu.ndim:
        raise IncompatibleData(f"viscosity must be one number, got {nu}")
    nu = float(nu)
    if not 0.0 < nu < math.inf:
        raise IncompatibleData(f"viscosity must be finite and positive, got {nu}")
    q = lam + nu * mode.norm**2
    if not cmath.isfinite(q):
        raise BranchCutViolation(f"lambda + nu|xi|^2 = {q} is not finite")
    if q.imag == 0.0 and q.real <= 0.0:
        raise BranchCutViolation(
            f"lambda + nu|xi|^2 = {q} lies on the branch cut (-inf, 0]"
        )
    mu = cmath.sqrt(q / nu)
    # principal sqrt maps C \ (-inf, 0] to the open right half plane, up to
    # underflow of Re mu just above or below the cut
    if not mu.real > 0.0:
        raise BranchCutViolation(
            f"lambda + nu|xi|^2 = {q} is too close to the branch cut: Re mu = {mu.real}"
        )
    return mu


@dataclass(frozen=True)
class SpectralPoint:
    """A resolvent evaluation point (lambda, nu, xi) with its root mu cached."""

    lam: complex
    nu: float
    mode: FourierMode
    mu: complex = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", spectral_root(self.lam, self.nu, self.mode))


class HalfLineGrid:
    """Uniform grid on [0, z_max] with composite-Simpson quadrature weights.

    Uniform by construction: it is built from (z_max, n) only, as
    ``HalfLineGrid.uniform(z_max, n)``, and every spatial operator and kernel
    action uses its single spacing h.  The node count must be odd so that the
    panels pair up for Simpson's rule.
    """

    def __init__(self, z_max: float, n: int):
        try:
            n = operator.index(n)
        except TypeError:
            raise IncompatibleData(f"the node count must be an integer, got {n!r}") from None
        if n < 3 or n % 2 == 0:
            raise GridTooSmall(f"composite Simpson needs an odd node count >= 3, got {n}")
        if not 0.0 < z_max < math.inf:
            raise IncompatibleData(f"z_max must be finite and positive, got {z_max}")
        self.nodes = np.linspace(0.0, z_max, n)
        self.n = self.nodes.size
        self.z_max = float(self.nodes[-1])
        self.h = float(self.nodes[1] - self.nodes[0])
        weights = np.full(n, 2.0, dtype=float)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        self.weights = weights * (self.h / 3.0)

    @classmethod
    def uniform(cls, z_max: float, n: int) -> "HalfLineGrid":
        return cls(z_max, n)

    def integrate(self, values: np.ndarray) -> complex | np.ndarray:
        """Integrate node values over [0, z_max]; integrates the last axis."""
        values = np.asarray(values)
        if values.shape[-1] != self.n:
            raise IncompatibleData(
                f"value array last axis {values.shape[-1]} != node count {self.n}"
            )
        return values @ self.weights

    def norm_l2(self, values: np.ndarray) -> float:
        return float(np.sqrt(np.real(self.integrate(np.abs(values) ** 2).sum())))


class ModeField:
    """Complex node values of one Fourier mode: shape (ncomp, n) on a HalfLineGrid."""

    def __init__(self, grid: HalfLineGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2 or values.shape[1] != grid.n:
            raise IncompatibleData(
                f"values shape {values.shape} incompatible with grid of {grid.n} nodes"
            )
        if values.shape[0] not in (1, 2, 3):
            raise IncompatibleData("ModeField supports 1, 2 or 3 components")
        self.grid = grid
        self.values = values

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    def norm_l2(self) -> float:
        return self.grid.norm_l2(self.values)


# ---------------------------------------------------------------------------
# 2x2 projection


def projection_matrix(mode: FourierMode) -> np.ndarray:
    """P(xi) = |xi|^2 I - xi xi^T = [[xi2^2, -xi1 xi2], [-xi1 xi2, xi1^2]].

    Projects (after division by |xi|^2) onto the direction perpendicular to xi;
    satisfies P^2 = |xi|^2 P and P xi = 0.
    """
    if mode.is_zero:
        raise ZeroModeUnsupported("projection matrix undefined for xi = 0")
    x1, x2 = float(mode.xi1), float(mode.xi2)
    return np.array([[x2 * x2, -x1 * x2], [-x1 * x2, x1 * x1]], dtype=complex)


# ---------------------------------------------------------------------------
# discrete Delta_xi

# one-sided second difference at an endpoint, in units of 1/h^2
_ENDPOINT_D2 = np.array([2.0, -5.0, 4.0, -1.0])


def apply_delta_xi(field: ModeField, nu: float, mode: FourierMode) -> ModeField:
    """Apply nu * (-|xi|^2 + d^2/dz^2) to each component.

    Interior nodes use the centered 3-point second difference; the endpoints
    use one-sided 4-point stencils (2, -5, 4, -1)/h^2, so the whole operator
    is second-order accurate.  A viscosity that is not finite and positive
    raises IncompatibleData.
    """
    if not 0.0 < nu < math.inf:
        raise IncompatibleData(f"viscosity must be finite and positive, got {nu}")
    grid = field.grid
    if grid.n < 4:
        raise GridTooSmall("apply_delta_xi needs at least 4 nodes")
    f = field.values
    d2 = np.empty_like(f)
    d2[:, 1:-1] = f[:, :-2] - 2.0 * f[:, 1:-1] + f[:, 2:]
    d2[:, 0] = f[:, :4] @ _ENDPOINT_D2
    d2[:, -1] = f[:, :-5:-1] @ _ENDPOINT_D2
    out = nu * (-(mode.norm**2) * f + d2 / grid.h**2)
    return ModeField(grid, out)
