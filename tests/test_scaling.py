"""Scale covariance of the discrete resolvent solves and of the Duhamel evolution.

The per-mode problems have two exact symmetries, and the discrete paths, exact
on piecewise-linear data, keep them to rounding on grids with the same node
count (the node values of the data are the same array on both grids):

* space: (xi, z_max, lambda) -> (c xi, z_max / c, c^2 lambda), with D -> c D,
  maps the resolvent solution u to u / c^2, and (xi, z_max, t) ->
  (c xi, z_max / c, t / c^2), with the sources f(s) -> c^2 f(c^2 s) and
  g(s) -> c g(c^2 s), leaves the evolved omega unchanged;
* viscosity: (nu, lambda) -> (a nu, a lambda) maps u to u / a, and
  (nu, t) -> (a nu, t / a), with f(s) -> a f(a s) and g(s) -> a g(a s),
  leaves omega unchanged.

The sampled Green's function follows the same maps: (xi, y, z, t) ->
(c xi, y / c, z / c, t / c^2) takes G to c G (it is a density in z), and
(nu, t) -> (a nu, t / a) leaves it unchanged.  So do the kernel-bound
certificate's R2 sups, which are functions of tau = nu |xi|^2 t,
zeta = (y + z) / sqrt(nu t) and sigma / |xi| alone.

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
    sample_green_function,
    verify_kernel_bounds,
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


def _general(mode, scale_d=1.0):
    """The general D with alpha + beta = |XI|/2 (times scale_d) for ``mode``."""
    sigma = 0.5 * math.hypot(*XI) * scale_d
    alpha, beta = 0.3 * sigma, 0.7 * sigma
    return BoundaryOperatorD(alpha, beta, math.sqrt(alpha * beta), c0=1.0, mode=mode)


def _resolve(general, xi, z_max, nu, lam, scale_d=1.0):
    """u at the nodes of a 1025-node grid on [0, z_max], for the no-slip
    condition or ``_general``'s D."""
    mode = FourierMode(*xi)
    grid = HalfLineGrid.uniform(z_max, 1025)
    f = ModeField(grid, _data(grid.n, 2))
    point = SpectralPoint(lam, nu, mode)
    if not general:
        return resolvent_apply(f, point).u.values
    return resolvent_apply_general(f, point, _general(mode, scale_d)).u.values


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


T_FORCED = 0.3


def _evolve_forced(xi, z_max, nu, rate, g_scale):
    """The forced state at T_FORCED / rate on a 513-node grid, with the sources
    f(s) = rate f_1(rate s) and g(s) = g_scale g_1(rate s) for smooth,
    time-dependent f_1 and g_1: the space map has rate = c^2 and
    g_scale = c, the viscosity map rate = g_scale = a."""
    grid = HalfLineGrid.uniform(z_max, 513)
    omega0 = _data(grid.n, 3)
    omega0[2, 0] = 0.0
    force = _data(grid.n, 3)[::-1]
    t = T_FORCED / rate
    problem = StokesProblem(
        mode=FourierMode(*xi), nu=nu, omega0=ModeField(grid, omega0), t_final=t,
        forcing=lambda s: rate * (np.cos(3.0 * rate * s) + 0.5j * rate * s) * force,
        boundary_g=lambda s: g_scale * np.array([1.0 + rate * s, 0.5j * (rate * s) ** 2]))
    return duhamel_solve(problem, [t]).state_at(t).values


class TestForcedDuhamel:
    @pytest.mark.parametrize("c", [2, 3])
    def test_space(self, c):
        base = _evolve_forced(XI, Z_MAX, NU, 1.0, 1.0)
        scaled = _evolve_forced((c * XI[0], c * XI[1]), Z_MAX / c, NU, c**2, c)
        assert _rel(scaled, base) <= RTOL

    @pytest.mark.parametrize("a", [0.2, 4.0])
    def test_viscosity(self, a):
        base = _evolve_forced(XI, Z_MAX, NU, 1.0, 1.0)
        scaled = _evolve_forced(XI, Z_MAX, a * NU, a, a)
        assert _rel(scaled, base) <= RTOL


NODES = np.linspace(0.0, 3.0, 31)


def _sample(general, xi, nu, t, length_scale, scale_d=1.0):
    """The Green's function at time t on NODES / length_scale, for the
    no-slip condition or ``_general``'s D."""
    mode = FourierMode(*xi)
    D = _general(mode, scale_d) if general else None
    nodes = NODES / length_scale
    return sample_green_function(t, nu, mode, nodes, nodes, D=D).values


@pytest.mark.parametrize("general", [False, True], ids=["no_slip", "general"])
class TestGreenFunction:
    @pytest.mark.parametrize("c", [2, 3])
    def test_space(self, general, c):
        base = _sample(general, XI, NU, T_FORCED, 1.0)
        scaled = _sample(general, (c * XI[0], c * XI[1]), NU, T_FORCED / c**2, c, scale_d=c)
        assert _rel(scaled, c * base) <= RTOL

    @pytest.mark.parametrize("a", [0.2, 4.0])
    def test_viscosity(self, general, a):
        base = _sample(general, XI, NU, T_FORCED, 1.0)
        scaled = _sample(general, XI, a * NU, T_FORCED / a, 1.0)
        assert _rel(scaled, base) <= RTOL


CERT_S = np.linspace(0.0, 10.0, 21)
CERT_SWEEP = ((1.0, 0.04), (1, 2, 3), (0.01, 0.1, 1.0))


def _certificate(nu_values, xi_values, t_values, s_values):
    return verify_kernel_bounds(nu_values=nu_values, xi_values=xi_values,
                                t_values=t_values, s_values=s_values)


@pytest.mark.parametrize("family", ["no_slip", "general"])
class TestCertificate:
    """The certificate's R2 ratios are scale-free.

    The R2 ratio |d^k R2/dz^k| (nu t)^{(k+1)/2} e^{s^2/4 nu t} e^{nu |xi|^2 t/8}
    e^{-lambda* t} is a function of tau = nu |xi|^2 t, zeta = s / sqrt(nu t)
    and r = sigma / |xi| times max|D| / |xi|, so (nu, t) -> (nu/4, 4 t) and
    (xi, s, t) -> (2 xi, s/2, t/4) leave both R2 sups, and where they are
    reached, unchanged.  The R1 ratio is not covariant: its rate
    mu0 = |xi| + nu^{-1/2} mixes the viscous scale with the mode's."""

    KEYS = ("R2_quarter", "R2_stated_log10")

    def _check(self, family, base, scaled, cell_map):
        for key in self.KEYS:
            got, ref = scaled[family]["sup"][key], base[family]["sup"][key]
            assert abs(got - ref) <= RTOL * abs(ref)
            nu, xi, t, k, s = base[family]["argmax(nu,xi,t,k,s)"][key]
            assert scaled[family]["argmax(nu,xi,t,k,s)"][key] == (*cell_map(nu, xi, t, s)[:3],
                                                                  k, cell_map(nu, xi, t, s)[3])

    def test_viscosity(self, family):
        nus, xis, ts = CERT_SWEEP
        base = _certificate(nus, xis, ts, CERT_S)
        scaled = _certificate(tuple(nu / 4 for nu in nus), xis, tuple(4 * t for t in ts), CERT_S)
        self._check(family, base, scaled, lambda nu, xi, t, s: (nu / 4, xi, 4 * t, s))

    def test_space(self, family):
        nus, xis, ts = CERT_SWEEP
        base = _certificate(nus, xis, ts, CERT_S)
        scaled = _certificate(nus, tuple(2 * xi for xi in xis), tuple(t / 4 for t in ts),
                              CERT_S / 2)
        self._check(family, base, scaled, lambda nu, xi, t, s: (nu, 2 * xi, t / 4, s / 2))
