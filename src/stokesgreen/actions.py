"""Exact kernel actions on piecewise-linear interpolants (internal helpers).

Convolution-type kernels K (Gaussians, two-sided exponentials) applied to grid
data f are evaluated exactly on the piecewise-linear interpolant of f instead
of by node-weight quadrature.  The point is robustness: |y-z| kernel kinks
sitting mid-panel would otherwise inject O(h^2) node-alternating quadrature
noise whose discrete Laplacian is O(1), wrecking PDE-residual checks.

The basic identity: with Psi2'' = K, the hat function of width h centered at 0
satisfies

    (hat * K)(d) = (Psi2(d-h) - 2 Psi2(d) + Psi2(d+h)) / h,

so the action on the whole-line even/odd extension of f is a Toeplitz
matrix-vector product with these smoothed kernel values, done in O(N log N)
via scipy's FFT-based ``matmul_toeplitz``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import matmul_toeplitz
from scipy.special import erf

from .core import HalfLineGrid
from .errors import TruncationWarning

__all__ = [
    "gauss_psi1",
    "gauss_psi2",
    "exp_psi1",
    "exp_psi2",
    "image_action_gauss",
    "image_action_exp",
    "halfline_laplace_weights",
]


# ---------------------------------------------------------------------------
# antiderivatives: Psi1' = K, Psi2' = Psi1, fixed so Psi1 is odd / Psi2 even


def gauss_psi1(x, c):
    """First antiderivative of the heat kernel g_c(x) = e^{-x^2/4c}/sqrt(4 pi c)."""
    return 0.5 * erf(x / (2.0 * np.sqrt(c)))


def gauss_psi2(x, c):
    g = np.exp(-(x**2) / (4.0 * c)) / np.sqrt(4.0 * np.pi * c)
    return x * gauss_psi1(x, c) + 2.0 * c * g


def exp_psi1(x, mu):
    """First antiderivative of E_mu(x) = e^{-mu |x|}, complex mu with Re mu > 0."""
    ax = np.abs(x)
    return np.sign(x) * (1.0 - np.exp(-mu * ax)) / mu


def exp_psi2(x, mu):
    ax = np.abs(x)
    return ax / mu + (np.exp(-mu * ax) - 1.0) / mu**2


def _hat_smoothed(psi2, d, h):
    return (psi2(d - h) - 2.0 * psi2(d) + psi2(d + h)) / h


def _odd_center_hat(psi1, psi2, y, h):
    """Action of K on the odd part of the boundary half-hat.

    Equals integral of K(y - z) against sign(z)(1 - |z|/h) on [-h, h]; needed
    because the odd extension of data with f(0) != 0 is not piecewise linear
    through zero.
    """
    return 2.0 * psi1(y) - (psi2(y + h) - psi2(y - h)) / h


def _check_truncation(f):
    tail = np.max(np.abs(f[..., -2:]))
    scale = np.max(np.abs(f))
    if scale > 0 and tail > 1e-6 * scale:
        warnings.warn(
            "data not negligible at the truncation boundary; kernel action "
            "ignores mass beyond z_max", TruncationWarning, stacklevel=3)


def _image_action(grid: HalfLineGrid, f: np.ndarray, psi1, psi2, parity: int,
                  warn_truncation: bool = True) -> np.ndarray:
    """Exact action of K(y-z) + parity*K(y+z) on the PL interpolant of f.

    f has shape (..., n); the image term is folded in through the even
    (parity=+1, Neumann) or odd (parity=-1, Dirichlet) whole-line extension.
    """
    f = np.asarray(f, dtype=complex)
    n = grid.n
    h = grid.h
    if warn_truncation:
        _check_truncation(f)
    # extension indices k = 0..2n-2 represent nodes (k - (n-1)) * h
    mirrored = f[..., :0:-1]  # f[n-1], ..., f[1]
    if parity == +1:
        fe = np.concatenate([mirrored, f], axis=-1)
    else:
        fe = np.concatenate([-mirrored, f], axis=-1)
        fe = fe.copy()
        fe[..., n - 1] = 0.0  # boundary value handled by the odd half-hat below
    col = _hat_smoothed(psi2, (np.arange(n) + (n - 1)) * h, h)
    row = _hat_smoothed(psi2, ((n - 1) - np.arange(2 * n - 1)) * h, h)
    out = matmul_toeplitz((col, row), fe[..., :, None] if fe.ndim == 1 else fe.T)
    out = out.T if out.ndim == 2 else out[:, 0]
    out = out.reshape(f.shape[:-1] + (n,))
    if parity == -1:
        out = out + f[..., :1] * _odd_center_hat(psi1, psi2, grid.nodes, h)
    return out


def image_action_gauss(grid: HalfLineGrid, f: np.ndarray, c: float,
                       parity: int, warn_truncation: bool = True) -> np.ndarray:
    """(e^{-(y-z)^2/4c} + parity e^{-(y+z)^2/4c})/sqrt(4 pi c) applied to PL f."""
    return _image_action(grid, f,
                         lambda x: gauss_psi1(x, c),
                         lambda x: gauss_psi2(x, c),
                         parity, warn_truncation)


def image_action_exp(grid: HalfLineGrid, f: np.ndarray, mu: complex,
                     parity: int, warn_truncation: bool = True) -> np.ndarray:
    """(e^{-mu|y-z|} + parity e^{-mu(y+z)}) applied to PL f (no prefactor)."""
    return _image_action(grid, f,
                         lambda x: exp_psi1(x, mu),
                         lambda x: exp_psi2(x, mu),
                         parity, warn_truncation)


def halfline_laplace_weights(grid: HalfLineGrid, mu) -> np.ndarray:
    """Weights w with w . f = integral_0^zmax e^{-mu z} (PL f)(z) dz, exactly.

    ``mu`` may be an array; its shape becomes the leading axes of ``w``.
    """
    h = grid.h
    z = grid.nodes
    # a scalar mu stays a Python/numpy scalar: numpy's array loops may round
    # complex products differently, and scalar callers keep their exact values
    if np.ndim(mu):
        mu = np.asarray(mu)[..., None]

    def psi(x):
        return np.exp(-mu * x) / mu**2

    w = np.empty(np.shape(mu)[:-1] + (grid.n,), dtype=complex)
    w[..., 1:-1] = (psi(z[1:-1] - h) - 2.0 * psi(z[1:-1]) + psi(z[1:-1] + h)) / h
    # boundary half-hats
    w[..., :1] = (1.0 - np.exp(-mu * h)) / mu \
        - (1.0 - np.exp(-mu * h) * (1.0 + mu * h)) / (h * mu**2)
    w[..., -1:] = np.exp(-mu * z[-2]) * (1.0 - np.exp(-mu * h) * (1.0 + mu * h)) / (h * mu**2)
    return w
