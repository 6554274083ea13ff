"""Unit tests for the per-mode Biot-Savart reconstruction and trace identities."""

import numpy as np
import pytest

from stokesgreen import (
    FourierMode,
    GridTooSmall,
    HalfLineGrid,
    HypothesisViolated,
    IncompatibleData,
    ModeField,
    ZeroModeUnsupported,
    check_biot_savart_roundtrip,
    check_trace_identities,
    curl_mode,
    dirichlet_inverse,
    neumann_inverse,
    phi,
)
from stokesgreen.biot_savart import divergence_mode, dz

MODE = FourierMode(1, 0)


def stream_field(grid, mode, center=None, width=1.0):
    """Divergence-free field vanishing at the wall: h = curl(0, 0, psi) plus a
    compatible normal part; built from a stream function psi."""
    c = 0.45 * grid.z_max if center is None else center
    psi = np.exp(-(((grid.nodes - c) / width) ** 2))
    h = np.array([1j * mode.xi2 * psi, -1j * mode.xi1 * psi,
                  np.zeros_like(psi)], dtype=complex)
    # horizontal curl of a vertical vector potential: automatically div-free
    return ModeField(grid, h)


class TestScalarInverses:
    def test_dirichlet_closed_form(self):
        # f = e^{-2z}, |xi| = 1: h = (e^{-z} - e^{-2z}) / 3 solves
        # (1 - d^2/dz^2) h = f with h(0) = 0 (compare at PL accuracy O(h^2))
        grid = HalfLineGrid.uniform(40.0, 4001)
        f = ModeField(grid, np.exp(-2.0 * grid.nodes))
        h = dirichlet_inverse(f, MODE)
        exact = (np.exp(-grid.nodes) - np.exp(-2.0 * grid.nodes)) / 3.0
        # exact on the PL interpolant; defect vs the true exponential is O(h^2)
        assert np.max(np.abs(h.values[0] - exact)) < 1e-5
        assert abs(h.values[0, 0]) < 1e-14

    def test_neumann_closed_form(self):
        # f = e^{-2z}, |xi| = 1: h = (2 e^{-z} ... ) with h'(0) = 0:
        # h = A e^{-z} - e^{-2z}/3 ... derive: particular -e^{-2z}/3? check:
        # (1 - d2) e^{-2z} = -3 e^{-2z}, so particular = -e^{-2z}/3; homogeneous
        # A e^{-z} with h'(0) = -A + 2/3 = 0 -> A = 2/3.
        grid = HalfLineGrid.uniform(40.0, 4001)
        f = ModeField(grid, np.exp(-2.0 * grid.nodes))
        h = neumann_inverse(f, MODE)
        exact = (2.0 * np.exp(-grid.nodes) - np.exp(-2.0 * grid.nodes)) / 3.0
        assert np.max(np.abs(h.values[0] - exact)) < 2e-5

    def test_zero_mode_rejected(self):
        grid = HalfLineGrid.uniform(5.0, 11)
        with pytest.raises(ZeroModeUnsupported):
            dirichlet_inverse(ModeField(grid, np.ones(11)), FourierMode(0, 0))


class TestCurl:
    def test_constant_third_component(self):
        # W = (0, 0, e^{-z}) with xi = (1, 0): curl = (0, -i e^{-z}, 0)
        grid = HalfLineGrid.uniform(10.0, 801)
        W = ModeField(grid, np.array([np.zeros(grid.n), np.zeros(grid.n),
                                      np.exp(-grid.nodes)], dtype=complex))
        c = curl_mode(W, MODE)
        assert np.max(np.abs(c.values[0])) < 1e-14
        assert np.max(np.abs(c.values[1] + 1j * np.exp(-grid.nodes))) < 1e-14
        assert np.max(np.abs(c.values[2])) < 1e-14

    def test_div_curl_zero(self):
        grid = HalfLineGrid.uniform(15.0, 1501)
        rng = np.random.default_rng(2)
        z = grid.nodes
        vals = np.array([np.exp(-((z - 5) ** 2)) * (1 + 1j),
                         np.exp(-((z - 6) ** 2) / 2),
                         np.exp(-((z - 7) ** 2) / 1.5) * 1j])
        mode = FourierMode(2, 1)
        c = curl_mode(ModeField(grid, vals), mode)
        div = divergence_mode(c, mode)
        # interior: second-order FD consistency error only
        assert np.max(np.abs(div[2:-2])) < 1e-3

    def test_curl_of_gradient_vanishes(self):
        # grad_xi f = (i xi_1 f, i xi_2 f, f'): curl must vanish identically
        grid = HalfLineGrid.uniform(15.0, 1501)
        mode = FourierMode(2, 1)
        f = np.exp(-((grid.nodes - 6.0) ** 2))
        gradf = np.array([2j * f, 1j * f, dz(grid, f)])
        c = curl_mode(ModeField(grid, gradf), mode)
        assert np.max(np.abs(c.values[:, 2:-2])) < 1e-3

    def test_dz_fourth_order(self):
        # halving h divides the error by ~16 at every node, ends included
        errs = []
        for n in (101, 201):
            grid = HalfLineGrid.uniform(4.0, n)
            z = grid.nodes
            d = dz(grid, np.exp(-z) * np.sin(2.0 * z))
            exact = np.exp(-z) * (2.0 * np.cos(2.0 * z) - np.sin(2.0 * z))
            errs.append(np.abs(d - exact))
        assert np.max(errs[1]) < 2e-6
        # the one-sided end stencils (same index) and the centred one (z = 2)
        for k0, k1 in ((0, 0), (1, 1), (50, 100), (-2, -2), (-1, -1)):
            assert errs[0][k0] / errs[1][k1] == pytest.approx(16.0, rel=0.25)
        with pytest.raises(GridTooSmall):
            dz(HalfLineGrid.uniform(1.0, 3), np.ones(3))

    def test_shape_guard(self):
        grid = HalfLineGrid.uniform(5.0, 11)
        with pytest.raises(IncompatibleData):
            curl_mode(ModeField(grid, np.ones((2, 11))), MODE)


class TestRoundtrip:
    def test_second_order_convergence(self):
        mode = FourierMode(2, 1)
        errs = []
        for n in (1025, 2049):
            grid = HalfLineGrid.uniform(20.0, n)
            h = stream_field(grid, mode, width=1.4)
            out = check_biot_savart_roundtrip(h, mode)
            errs.append(out["rel_error"])
        assert errs[1] < 1e-4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)

    def test_hypothesis_gates(self):
        grid = HalfLineGrid.uniform(20.0, 801)
        mode = FourierMode(1, 0)
        bad_boundary = ModeField(grid, np.vstack([
            np.exp(-grid.nodes)[None, :], np.zeros((2, grid.n))]).astype(complex))
        with pytest.raises(HypothesisViolated):
            check_biot_savart_roundtrip(bad_boundary, mode)
        z = grid.nodes
        bump = np.exp(-(((z - 9.0) / 1.0) ** 2))
        not_div_free = ModeField(grid, np.array([bump, 0 * bump, 0 * bump],
                                                dtype=complex))
        with pytest.raises(HypothesisViolated):
            check_biot_savart_roundtrip(not_div_free, mode)

    def test_zero_field(self):
        grid = HalfLineGrid.uniform(10.0, 101)
        out = check_biot_savart_roundtrip(
            ModeField(grid, np.zeros((3, 101), dtype=complex)), MODE)
        assert out["rel_error"] == 0.0


class TestTraceIdentities:
    def test_exponential_with_analytic_data(self):
        # f = e^{-2z}, |xi| = 1: L f = (1 - 4) e^{-2z}, f'(0) = -2
        grid = HalfLineGrid.uniform(40.0, 4001)
        f = ModeField(grid, np.exp(-2.0 * grid.nodes))
        lap = -3.0 * np.exp(-2.0 * grid.nodes)
        err_d, err_n = check_trace_identities(f, MODE, laplacian=lap, df0=-2.0)
        # limited by the Simpson quadrature of the trace integral
        assert err_d < 1e-8
        assert err_n < 1e-8

    def test_linear_growth_at_origin(self):
        # f = z e^{-z}, |xi| = 2: f(0) = 0, f'(0) = 1,
        # L f = 4 z e^{-z} - (z - 2) e^{-z} = (3 z + 2) e^{-z}
        grid = HalfLineGrid.uniform(40.0, 8001)
        z = grid.nodes
        mode = FourierMode(2, 0)
        f = ModeField(grid, z * np.exp(-z))
        lap = (3.0 * z + 2.0) * np.exp(-z)
        err_d, err_n = check_trace_identities(f, mode, laplacian=lap, df0=1.0)
        assert err_d < 1e-9
        assert err_n < 1e-9

