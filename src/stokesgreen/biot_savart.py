"""Per-mode Biot-Savart machinery: half-line inverses, curl, trace identities.

For a tangential mode xi != 0 on the half line, the Dirichlet and Neumann
inverses of |xi|^2 - d^2/dz^2 have the explicit image kernels

    (1/2|xi|) (e^{-|xi||y-z|} -+ e^{-|xi|(y+z)}),

applied exactly on the piecewise-linear interpolant (see ``actions``).  The
velocity is recovered from the vorticity via u = curl Phi(omega) with
Phi(omega) = (Dirichlet inverse on the tangential pair, Neumann inverse on
the normal component), and the per-mode Dirichlet-to-Neumann map is the
scalar |xi|, which gives the boundary trace identities checked here.
"""

from __future__ import annotations

import numpy as np

from .actions import image_action_exp
from .core import FourierMode, HalfLineGrid, ModeField
from .errors import (
    GridTooSmall,
    HypothesisViolated,
    IncompatibleData,
    ZeroModeUnsupported,
)

__all__ = [
    "dirichlet_inverse",
    "neumann_inverse",
    "phi",
    "curl_mode",
    "dz",
    "divergence_mode",
    "check_biot_savart_roundtrip",
    "check_trace_identities",
]


def _scalar_inverse(f: ModeField, mode: FourierMode, parity: int) -> ModeField:
    if mode.is_zero:
        raise ZeroModeUnsupported("half-line inverse needs |xi| > 0")
    xin = mode.norm
    vals = image_action_exp(f.grid, f.values, xin, parity=parity)
    return ModeField(f.grid, vals / (2.0 * xin))


def dirichlet_inverse(f: ModeField, mode: FourierMode) -> ModeField:
    """h with (|xi|^2 - d^2/dz^2) h = f, h(0) = 0, h -> 0 at infinity."""
    return _scalar_inverse(f, mode, parity=-1)


def neumann_inverse(f: ModeField, mode: FourierMode) -> ModeField:
    """h with (|xi|^2 - d^2/dz^2) h = f, h'(0) = 0, h -> 0 at infinity."""
    return _scalar_inverse(f, mode, parity=+1)


def phi(omega: ModeField, mode: FourierMode) -> ModeField:
    """Vector potential: Dirichlet inverse on the tangential pair, Neumann on omega_3."""
    if omega.ncomp != 3:
        raise IncompatibleData("phi expects a 3-component field")
    tang = dirichlet_inverse(ModeField(omega.grid, omega.values[:2]), mode)
    norm = neumann_inverse(ModeField(omega.grid, omega.values[2:]), mode)
    return ModeField(omega.grid, np.vstack([tang.values, norm.values]))


# one-sided 5-point first-derivative stencils at the first two nodes, in units
# of 1/12h; the last two nodes use them mirrored with the sign flipped
_END_D1 = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                    [-3.0, -10.0, 18.0, -6.0, 1.0]])


def dz(grid: HalfLineGrid, values: np.ndarray) -> np.ndarray:
    """Fourth-order d/dz along the last axis.

    Interior nodes use the centred stencil (1, -8, 0, 8, -1)/12h; the two
    nodes nearest each end use the one-sided 5-point stencils of ``_END_D1``.
    """
    if grid.n < 5:
        raise GridTooSmall("dz needs at least 5 nodes")
    v = values
    out = np.empty_like(v, dtype=complex)
    out[..., 2:-2] = v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]
    out[..., :2] = v[..., :5] @ _END_D1.T
    out[..., :-3:-1] = -(v[..., :-6:-1] @ _END_D1.T)
    return out / (12.0 * grid.h)


def curl_mode(W: ModeField, mode: FourierMode) -> ModeField:
    """curl in per-mode form: tangential derivatives become i xi_j."""
    if W.ncomp != 3:
        raise IncompatibleData("curl_mode expects a 3-component field")
    ix1, ix2 = 1j * mode.xi1, 1j * mode.xi2
    W1, W2, W3 = W.values
    out = np.array([
        ix2 * W3 - dz(W.grid, W2),
        dz(W.grid, W1) - ix1 * W3,
        ix1 * W2 - ix2 * W1,
    ])
    return ModeField(W.grid, out)


def divergence_mode(u: ModeField, mode: FourierMode) -> np.ndarray:
    """i xi_1 u_1 + i xi_2 u_2 + d u_3 / dz at every node."""
    if u.ncomp != 3:
        raise IncompatibleData("divergence_mode expects a 3-component field")
    return (1j * mode.xi1 * u.values[0] + 1j * mode.xi2 * u.values[1]
            + dz(u.grid, u.values[2]))


# relative size of h(0) or div h beyond which the roundtrip's hypotheses fail
_HYPOTHESIS_TOL = 1e-8


def check_biot_savart_roundtrip(h: ModeField, mode: FourierMode) -> dict:
    """Relative max-norm error of curl(Phi(curl h)) = h.

    The identity requires h = 0 on the boundary and div h = 0; inputs failing
    those hypotheses beyond ``_HYPOTHESIS_TOL`` (relative to the max of h)
    raise HypothesisViolated.
    """
    scale = np.max(np.abs(h.values))
    if scale == 0.0:
        return {"rel_error": 0.0, "div_residual": 0.0, "boundary_residual": 0.0}
    bres = float(np.max(np.abs(h.values[:, 0]))) / scale
    dres = float(np.max(np.abs(divergence_mode(h, mode)))) / scale
    if bres > _HYPOTHESIS_TOL:
        raise HypothesisViolated(f"h(0) != 0: relative boundary value {bres}")
    if dres > _HYPOTHESIS_TOL:
        raise HypothesisViolated(f"div h != 0: relative residual {dres}")
    recon = curl_mode(phi(curl_mode(h, mode), mode), mode)
    rel = float(np.max(np.abs(recon.values - h.values))) / scale
    return {"rel_error": rel, "div_residual": dres, "boundary_residual": bres}


def check_trace_identities(f: ModeField, mode: FourierMode, laplacian,
                           df0) -> tuple[float, float]:
    """Boundary trace identities of the half-line inverses, per mode.

    With L = |xi|^2 - d^2/dz^2 and h_D, h_N the Dirichlet/Neumann inverses of
    L f, the per-mode Dirichlet-to-Neumann map |xi| gives

        d h_D/dz (0) = f'(0) + |xi| f(0),
        h_N(0)       = f(0) + |xi|^{-1} f'(0);

    returns the absolute errors of the two identities.  ``laplacian`` holds
    the node values of L f and ``df0`` is f'(0), both analytic.  The boundary
    traces of the inverses are the explicit integrals int e^{-|xi| z} (L f)(z) dz
    (times 1/|xi| for the Neumann one), evaluated by the grid quadrature.
    """
    if mode.is_zero:
        raise ZeroModeUnsupported("trace identities need |xi| > 0")
    xin = mode.norm
    grid = f.grid
    fv = f.values[0]
    lf = np.asarray(laplacian, dtype=complex)
    trace_int = grid.integrate(np.exp(-xin * grid.nodes) * lf)
    err_d = abs(trace_int - (df0 + xin * fv[0]))
    err_n = abs(trace_int / xin - (fv[0] + df0 / xin))
    return float(err_d), float(err_n)

