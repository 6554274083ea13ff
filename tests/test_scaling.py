"""Scale covariance of the discrete resolvent solves and of the Duhamel evolution.

The per-mode problems have two exact symmetries, and the discrete paths, exact
on piecewise-linear data, keep them to rounding on grids with the same node
count (the node values of the data are the same array on both grids):

* space: (xi, z_max, lambda) -> (c xi, z_max / c, c^2 lambda), with D -> c D,
  maps the resolvent solution u to u / c^2, and (xi, z_max, t) ->
  (c xi, z_max / c, t / c^2) leaves the evolved omega unchanged;
* viscosity: (nu, lambda) -> (a nu, a lambda) maps u to u / a, and
  (nu, t) -> (a nu, t / a) leaves omega unchanged.

These cross-check the solves without an oracle: a change that is exact in
one scale but not in another (a constant added to mu - sigma, say) breaks them.
"""

import math

import numpy as np
import pytest

from stokesgreen import (
    BoundaryOperatorD,
    FourierMode,
    HalfLineGrid,
    ModeField,
    SpectralPoint,
    StokesProblem,
    duhamel_solve,
    resolvent_apply,
    resolvent_apply_general,
)

Z_MAX = 20.0
XI = (2, 1)
NU = 0.5
RTOL = 1e-12


def _data(n, ncomp):
    """Smooth complex node values, decayed well before the last node."""
    y = np.linspace(0.0, 1.0, n)
    bumps = [np.exp(-((y - 0.15) / 0.06) ** 2), y * np.exp(-((y - 0.3) / 0.08) ** 2),
             np.sin(12.0 * y) * np.exp(-((y - 0.2) / 0.07) ** 2)]
    coef = (1.0 + 0.5j, -0.7 + 0.2j, 0.3 - 1.1j)
    return np.array([c * b for c, b in zip(coef, bumps)][:ncomp])


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _resolve(general, xi, z_max, nu, lam, scale_d=1.0):
    """u at the nodes of a 1025-node grid on [0, z_max], for the no-slip
    condition or a general D with alpha + beta = |xi|/2 (times scale_d)."""
    mode = FourierMode(*xi)
    grid = HalfLineGrid.uniform(z_max, 1025)
    f = ModeField(grid, _data(grid.n, 2))
    point = SpectralPoint(lam, nu, mode)
    if not general:
        return resolvent_apply(f, point).u.values
    sigma = 0.5 * math.hypot(*XI) * scale_d
    alpha, beta = 0.3 * sigma, 0.7 * sigma
    D = BoundaryOperatorD(alpha, beta, math.sqrt(alpha * beta), c0=1.0, mode=mode)
    return resolvent_apply_general(f, point, D).u.values


@pytest.mark.parametrize("lam", [3.0 + 1.0j, -0.4 + 2.5j])
@pytest.mark.parametrize("general", [False, True], ids=["no_slip", "general"])
class TestResolvent:
    @pytest.mark.parametrize("c", [2, 3])
    def test_space(self, general, lam, c):
        base = _resolve(general, XI, Z_MAX, NU, lam)
        scaled = _resolve(general, (c * XI[0], c * XI[1]), Z_MAX / c, NU, c**2 * lam,
                          scale_d=c)
        assert _rel(scaled, base / c**2) <= RTOL

    @pytest.mark.parametrize("a", [0.2, 4.0])
    def test_viscosity(self, general, lam, a):
        base = _resolve(general, XI, Z_MAX, NU, lam)
        scaled = _resolve(general, XI, Z_MAX, a * NU, a * lam)
        assert _rel(scaled, base / a) <= RTOL


TIMES = (0.05, 0.3, 1.0)


def _evolve(xi, z_max, nu, time_scale):
    """The homogeneous evolution's states at TIMES * time_scale on a 513-node grid."""
    grid = HalfLineGrid.uniform(z_max, 513)
    omega0 = _data(grid.n, 3)
    omega0[2, 0] = 0.0  # compatible with the boundary condition
    problem = StokesProblem(mode=FourierMode(*xi), nu=nu, omega0=ModeField(grid, omega0),
                            t_final=TIMES[-1] * time_scale)
    times = [t * time_scale for t in TIMES]
    traj = duhamel_solve(problem, times)
    return [traj.state_at(t).values for t in times]


class TestDuhamel:
    @pytest.mark.parametrize("c", [2, 3])
    def test_space(self, c):
        base = _evolve(XI, Z_MAX, NU, 1.0)
        scaled = _evolve((c * XI[0], c * XI[1]), Z_MAX / c, NU, 1.0 / c**2)
        for got, ref in zip(scaled, base):
            assert _rel(got, ref) <= RTOL

    @pytest.mark.parametrize("a", [0.2, 4.0])
    def test_viscosity(self, a):
        base = _evolve(XI, Z_MAX, NU, 1.0)
        scaled = _evolve(XI, Z_MAX, a * NU, 1.0 / a)
        for got, ref in zip(scaled, base):
            assert _rel(got, ref) <= RTOL
