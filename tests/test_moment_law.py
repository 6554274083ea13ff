"""The boundary moment law of the Green's function, an exact oracle-free gate.

For an admissible boundary operator D with trace sigma (D^2 = sigma D) and
pole lambda* = nu (sigma^2 - |xi|^2), the moment M(t) = D int_0^inf
e^{-sigma z} omega(t, z) dz of a solution of the homogeneous problem obeys
dM/dt = lambda* M: integrate omega_t = nu (d_z^2 - |xi|^2) omega by parts
against e^{-sigma z} and use d_z omega + D omega = 0 at z = 0.  For the
Green's function G(t, y; z) = H I_2 + rho(t, y + z) D this reads

    D int_0^inf e^{-sigma y} G(t, y; z) dy = e^{lambda* t - sigma z} D

for every t and z.  The y integral is taken by adaptive quadrature at
relative 1e-13, so the check holds the sum H + R1 + R2 to rounding on each
side of the split s < 2 sigma nu t: a change of 1e-9 relative to R2 alone
fails it.  For no-slip, lambda* = 0 and M is conserved.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from stokesgreen import BoundaryOperatorD, FourierMode, green_function

GATE = 1e-13


def _moment(t, nu, mode, z, D):
    """D int_0^inf e^{-sigma y} G(t, y; z) dy, entry by entry.  The y axis is
    split at z and a few heat widths past it, so quad sees the image peak;
    the four entries' quadratures share their evaluations of G."""
    width = math.sqrt(4.0 * nu * t)
    cuts = [0.0, z, z + 8.0 * width, math.inf] if z > 0.0 else [0.0, 8.0 * width, math.inf]
    seen = {}

    def weighted(y):
        if y not in seen:
            seen[y] = math.exp(-D.sigma * y) * (D.matrix @ green_function(t, nu, mode, y, z, D))
        return seen[y]

    out = np.zeros((2, 2))
    for i, j in np.ndindex(2, 2):
        if D.matrix[i, j] != 0.0:  # a zero row or column of D gives 0 on both sides
            out[i, j] = sum(quad(lambda y: weighted(y)[i, j], a, b, epsabs=0.0, epsrel=1e-13,
                                 limit=200)[0] for a, b in zip(cuts[:-1], cuts[1:]))
    return out


def _miss(t, nu, mode, z, D):
    expect = math.exp(D.pole_lambda(nu) * t - D.sigma * z) * D.matrix
    return np.max(np.abs(_moment(t, nu, mode, z, D) - expect)) / np.max(np.abs(expect))


@pytest.mark.parametrize("nu", [1.0, 0.25, 0.04])
@pytest.mark.parametrize("xi", [(1, 0), (2, 1)])
def test_no_slip_moment_is_conserved(nu, xi):
    mode = FourierMode(*xi)
    D = BoundaryOperatorD.no_slip(mode)
    worst = max(_miss(t, nu, mode, z, D) for t in (0.01, 1.0, 20.0) for z in (0.0, 0.4, 2.0))
    assert worst <= GATE


@pytest.mark.parametrize("fraction,c0", [(0.5, 1.0), (1.6, 2.0)], ids=["sigma<|xi|", "sigma>|xi|"])
def test_general_moment_grows_at_the_pole_rate(fraction, c0):
    # sigma = 1.6 |xi| puts the pole at lambda* > 0, so M grows like e^{lambda* t}
    mode = FourierMode(2, 1)
    sigma = fraction * mode.norm
    alpha, beta = 0.3 * sigma, 0.7 * sigma
    D = BoundaryOperatorD(alpha, beta, math.sqrt(alpha * beta), c0=c0, mode=mode)
    assert (D.pole_lambda(1.0) > 0.0) == (fraction > 1.0)
    worst = max(_miss(t, nu, mode, z, D) for nu in (1.0, 0.04) for t in (0.01, 1.0, 20.0)
                for z in (0.0, 2.0))
    assert worst <= GATE
