"""Exact kernel actions on piecewise-linear interpolants (internal helpers).

Convolution-type kernels K (Gaussians, two-sided exponentials) applied to grid
data f are evaluated exactly on the piecewise-linear interpolant of f instead
of by node-weight quadrature.  The point is robustness: |y-z| kernel kinks
sitting mid-panel would otherwise inject O(h^2) node-alternating quadrature
noise whose discrete Laplacian is O(1), wrecking PDE-residual checks.

The exponential kernel e^{-mu|y-z|} is separable, so its action is two
first-order recurrences over the panels, both driven by one scaled copy of
f (``image_action_exp``): O(n) per component, with no cancelling second
differences of an antiderivative.  The sweep builds the table e^{-mu y} for
its image term and ``_exp_action_rows`` returns it beside the action: the
resolvent and the solver's semigroup (a sum of resolvent solves) build their
boundary layer c0 e^{-mu y} from that table instead of evaluating it again.
On the uniform grid the table is a geometric sequence, so ``_decay_table``
builds it as an outer product of about 2 sqrt(n) exponentials, within
4 eps (1 + |mu y|) relative of e^{-mu y} at every node.

The heat kernel is not separable; ``image_action_gauss`` is the heat-semigroup
oracle the tests check the solver against.  With Psi2'' = K, the hat function
of width h centered at 0 satisfies

    (hat * K)(d) = (Psi2(d-h) - 2 Psi2(d) + Psi2(d+h)) / h,

so its action on the whole-line even/odd extension of f is a Toeplitz
matrix-vector product with these smoothed kernel values, done in O(N log N)
via scipy's FFT-based ``matmul_toeplitz``.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
import scipy.fft  # noqa: F401  matmul_toeplitz's backend, loaded here, not on its first call
from scipy.linalg import matmul_toeplitz
from scipy.linalg.lapack import ztbtrs
from scipy.special import erf

from .core import HalfLineGrid
from .errors import HypothesisViolated, IncompatibleData, TruncationWarning

__all__ = [
    "gauss_psi1",
    "gauss_psi2",
    "image_action_gauss",
    "image_action_exp",
    "halfline_laplace_weights",
]


# ---------------------------------------------------------------------------
# heat-kernel antiderivatives: Psi1' = K, Psi2' = Psi1, Psi1 odd / Psi2 even


def gauss_psi1(x, c):
    """First antiderivative of the heat kernel g_c(x) = e^{-x^2/4c}/sqrt(4 pi c)."""
    return 0.5 * erf(x / (2.0 * np.sqrt(c)))


def gauss_psi2(x, c):
    g = np.exp(-(x**2) / (4.0 * c)) / np.sqrt(4.0 * np.pi * c)
    return x * gauss_psi1(x, c) + 2.0 * c * g


def _hat_smoothed(psi2, d, h):
    return (psi2(d - h) - 2.0 * psi2(d) + psi2(d + h)) / h


def _as_rows(grid: HalfLineGrid, f, warn_truncation: bool, stacklevel: int = 2) -> np.ndarray:
    """f of shape (..., n) as a complex (m, n) array, after the truncation check.

    ``stacklevel`` is counted as by ``warnings.warn`` called in the caller of
    ``_as_rows``: the default 2 points the warning at that caller's caller.
    """
    f = np.asarray(f, dtype=complex)
    if warn_truncation:
        tail = np.max(np.abs(f[..., -2:]))
        # the max over every 64th node is <= max|f|: read all of f only if it cannot decide
        if tail > 1e-6 * np.max(np.abs(f[..., ::64])) and tail > 1e-6 * np.max(np.abs(f)):
            warnings.warn(
                "data not negligible at the truncation boundary; kernel action "
                "ignores mass beyond z_max", TruncationWarning, stacklevel=stacklevel + 1)
    return f.reshape(-1, grid.n)


def image_action_gauss(grid: HalfLineGrid, f: np.ndarray, c: float,
                       parity: int, warn_truncation: bool = True) -> np.ndarray:
    """(e^{-(y-z)^2/4c} + parity e^{-(y+z)^2/4c})/sqrt(4 pi c) applied to PL f.

    f has shape (..., n); the image term is folded in through the even
    (parity=+1, Neumann) or odd (parity=-1, Dirichlet) whole-line extension.
    """
    rows = _as_rows(grid, f, warn_truncation)
    n, h = grid.n, grid.h

    def psi2(x):
        return gauss_psi2(x, c)

    # extension indices k = 0..2n-2 represent nodes (k - (n-1)) * h
    ext = np.concatenate([parity * rows[:, :0:-1], rows], axis=1)
    if parity == -1:
        ext[:, n - 1] = 0.0  # boundary value handled by the odd half-hat below
    col = _hat_smoothed(psi2, (np.arange(n) + (n - 1)) * h, h)
    row = _hat_smoothed(psi2, ((n - 1) - np.arange(2 * n - 1)) * h, h)
    out = matmul_toeplitz((col, row), ext.T).T
    if parity == -1:
        # K against the odd half-hat sign(z)(1 - |z|/h) on [-h, h]: the odd
        # extension of data with f(0) != 0 is not piecewise linear through 0
        y = grid.nodes
        out = out + rows[:, :1] * (2.0 * gauss_psi1(y, c) - (psi2(y + h) - psi2(y - h)) / h)
    return out.reshape(np.shape(f))


def image_action_exp(grid: HalfLineGrid, f: np.ndarray, mu: complex,
                     parity, warn_truncation: bool = True) -> np.ndarray:
    """(e^{-mu|y-z|} + parity e^{-mu(y+z)}) applied to PL f (no prefactor).

    f has shape (..., n) and Re mu > 0 (else HypothesisViolated).  ``parity``
    is +1 or -1 for every row, or an array of shape (m, 1) of +-1 giving each
    of the m rows of ``f.reshape(-1, n)`` its own (else IncompatibleData).
    With q = e^{-mu h}, the two halves
    L_j = int_0^{y_j} e^{-mu(y_j-z)} f dz and R_j = int_{y_j}^{z_max} e^{-mu(z-y_j)} f dz
    obey, exactly on the PL interpolant,

        L_{j+1} = q L_j + a f_j + b f_{j+1},   R_j = q R_{j+1} + a f_{j+1} + b f_j,

    with a = int_0^h e^{-mu r} r/h dr and b = int_0^h e^{-mu r} dr - a.  With
    c = q b + a, M = L - b f and N = R - b f obey M_{j+1} = q M_j + c f_j and
    N_j = q N_{j+1} + c f_{j+1} from M_0 = -b f_0 and N_{n-1} = -b f_{n-1}: one
    right-hand side c f for a unit lower and a unit upper bidiagonal solve,
    both in node order on one band (-q off the diagonal) and over all rows.
    R_0 = N_0 + b f_0 is the Laplace trace int e^{-mu z} f dz, so the action
    is M + N + 2 b f + parity R_0 e^{-mu y}; for parity -1 the image term
    includes the jump of the odd extension at 0.
    """
    rows = _as_rows(grid, f, warn_truncation)
    m = rows.shape[0]
    if np.ndim(parity) == 0:
        ok = parity == 1 or parity == -1
    else:
        ok = np.shape(parity) == (m, 1) and bool(np.all((parity == 1) | (parity == -1)))
    if not ok:
        raise IncompatibleData(
            f"parity must be +1, -1 or an ({m}, 1) array of +-1, got {parity!r}")
    out, _ = _exp_action_rows(grid, rows, mu, parity)
    return out.reshape(np.shape(f))


def _exp_action_rows(grid: HalfLineGrid, rows: np.ndarray, mu: complex,
                     parity, scale=1.0) -> tuple[np.ndarray, np.ndarray]:
    """``scale`` times ``image_action_exp`` of complex (m, n) rows, and e^{-mu y}.

    Returns (out, decay): out of shape (m, n), a new array the caller may
    overwrite, and decay = e^{-mu y} at the grid nodes, shape (n,), from
    ``_decay_table`` (about 2 sqrt(n) exponentials, within 4 eps (1 + |mu y|)
    relative).  ``scale`` multiplies b and c, so the action comes out scaled
    with no pass of its own (the resolvent's 1/(2 nu mu)).  The parity is
    trusted (``image_action_exp`` checks it for outside callers); Re mu <= 0,
    where the sweeps grow instead of decaying, raises here.
    """
    if not mu.real > 0:
        raise HypothesisViolated(f"the exponential kernel needs Re mu > 0, got mu = {mu}")
    m, n = rows.shape
    x = mu * grid.h
    q = cmath.exp(-x)
    one_minus_q = -np.expm1(-x)
    a = (one_minus_q - x * q) / (mu * x)
    b = scale * (one_minus_q / mu - a)
    c = q * b + scale * a
    # Two (m, n) arrays rather than one (2m, n) right-hand side: every large
    # block of a resolvent solve then has the size of a solution, so the
    # blocks freed by one solve are reused by the next.
    out = np.empty((m, n), dtype=complex)
    right = np.empty((m, n), dtype=complex)
    np.multiply(c, rows[:, :-1], out=out[:, 1:])
    out[:, 0] = -b * rows[:, 0]
    np.multiply(c, rows[:, 1:], out=right[:, :-1])
    right[:, -1] = -b * rows[:, -1]
    # row 0: the upper solve's superdiagonal, row 1: the lower one's subdiagonal
    band = np.full((2, n), -q, dtype=complex, order="F")
    out = ztbtrs(band, out.T, uplo="L", diag="U", overwrite_b=1)[0].T
    right = ztbtrs(band, right.T, uplo="U", diag="U", overwrite_b=1)[0].T
    image = parity * (right[:, :1] + b * rows[:, :1])  # parity R_0, read before right is reused
    out += right
    out += np.multiply(2.0 * b, rows, out=right)
    decay = _decay_table(grid, mu)
    out += np.multiply(image, decay, out=right)
    return out, decay


def _decay_table(grid: HalfLineGrid, mu: complex) -> np.ndarray:
    """e^{-mu y_j} at the n grid nodes from about 2 sqrt(n) exponentials.

    With B = isqrt(n - 1) + 1 and j = iB + k (0 <= k < B), the uniform nodes
    give e^{-mu y_j} = e^{-mu y_iB} e^{-mu y_k}: ceil(n/B) + B exponentials
    and one complex multiply per node.  For Re mu > 0 every factor has
    modulus <= 1, so nothing overflows, and a coarse factor that underflows
    to 0 bounds the exact product below the smallest subnormal.  The error
    is within 4 eps (1 + |mu y_j|) relative of e^{-mu y_j}, plus two
    subnormal ulps where it underflows: the bound the direct
    ``np.exp(-mu y)`` meets.
    """
    n = grid.n
    b = math.isqrt(n - 1) + 1
    coarse = np.exp(-mu * grid.nodes[::b])
    fine = np.exp(-mu * grid.nodes[:b])
    return np.multiply.outer(coarse, fine).reshape(-1)[:n]


def halfline_laplace_weights(grid: HalfLineGrid, mu: complex) -> np.ndarray:
    """Weights w with w . f = integral_0^zmax e^{-mu z} (PL f)(z) dz, exactly, for scalar mu."""
    h = grid.h
    z = grid.nodes

    def psi(x):
        return np.exp(-mu * x) / mu**2

    w = np.empty(grid.n, dtype=complex)
    w[1:-1] = (psi(z[1:-1] - h) - 2.0 * psi(z[1:-1]) + psi(z[1:-1] + h)) / h
    # boundary half-hats
    w[0] = (1.0 - np.exp(-mu * h)) / mu \
        - (1.0 - np.exp(-mu * h) * (1.0 + mu * h)) / (h * mu**2)
    w[-1] = np.exp(-mu * z[-2]) * (1.0 - np.exp(-mu * h) * (1.0 + mu * h)) / (h * mu**2)
    return w
