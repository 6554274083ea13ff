"""Resolvent and time-domain Green's function kernels for the tangential pair.

The per-mode vorticity Green's function splits as

    G_xi(t, y; z) = H_xi(t, y; z) I_2 + R_xi(t, y; z),

where H_xi is the Neumann half-line heat kernel (method of images) and the
residual part R_xi = R1 + R2 is recovered from the resolvent kernel of an
admissible boundary operator D (det D = 0, alpha, beta >= 0, trace sigma),

    R_lambda(y, z) = e^{-mu (y+z)} / (nu mu (mu - sigma)) * D(xi),

whose Bromwich integral around the pole mu = sigma (lambda* = nu (sigma^2 -
|xi|^2)) is R = rho D, rho(s) = e^{lambda* t - sigma s} erfc(x) with
x = s / (2 sqrt(nu t)) - sigma sqrt(nu t); D = 0 (sigma = 0) gives R = 0.
R depends on y, z only through s = y + z: the residual kernels are scalar
profiles in s, vectorized over arrays of s, times D.  The no-slip kernel is
the member D = P(xi)/|xi|, sigma = |xi|, lambda* = 0 exactly: every kernel
takes D, ``D=None`` means ``BoundaryOperatorD.no_slip(mode)``, and
``residual_kernel_time`` is the one no-slip wrapper left.

R1 is the boundary-layer (pole) part, 2 e^{lambda* t - sigma s} D where
s < 2 sigma nu t (x < 0) and 0 elsewhere: the residue the steepest-descent
line Re mu = s/(2 nu t) picks up where it passes left of the pole.  R2 =
R - R1 decays like a Gaussian in s, and neither part cancels or overflows.
The split predicate s < 2 sigma nu t is formed in the dimensional
variables.  Each part is scale-free: with tau = nu |xi|^2 t,
zeta = s / sqrt(nu t) and r = sigma / |xi|, the k-th s-derivative is
rho_i^{(k)} = (nu t)^{-k/2} F_{i,k}(tau, zeta, r), where

    F1_k = 2 (-r sqrt(tau))^k e^{tau (r^2 - 1) - r sqrt(tau) zeta}   (0 past the split),
    F2_0 = -+e^{-tau - zeta^2/4} erfcx(|zeta/2 - r sqrt(tau)|)        (- before it),

and F2_k follows by a Hermite recurrence in zeta.  One core,
``_closed_forms``, evaluates both parts at every order and serves the
profiles (hence every kernel, sample and the CLI), the bound certificate
(all its cells in one call) and the residue of the one oracle,
``_adaptive_rho`` (``method="adaptive"``), which integrates the residual
integrand at k = 0 by adaptive panels in lambda over the parabola of
``contours``.  No production path evaluates a quadrature node or reads a
contour.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from . import contours as ct
from .core import FourierMode, SpectralPoint, _real
from .errors import IncompatibleData, QuadratureUnderresolved, ZeroModeUnsupported
from .resolvent import BoundaryOperatorD

__all__ = [
    "heat_kernel_neumann",
    "heat_kernel_dirichlet",
    "resolvent_kernel",
    "residual_profiles_general",
    "residual_kernel_time",
    "residual_kernel_general",
    "green_function",
    "KernelSample",
    "sample_green_function",
    "mu0_rate",
    "verify_kernel_bounds",
]


# ---------------------------------------------------------------------------
# heat kernels (method of images)


def _heat(t, nu, mode, y, z, sign):
    y, z = _check_domain(y, z, t=t, nu=nu)
    c = 4.0 * nu * t
    pref = 1.0 / math.sqrt(np.pi * c)
    val = np.exp(-((y - z) ** 2) / c) + sign * np.exp(-((y + z) ** 2) / c)
    return pref * val * math.exp(-nu * mode.norm**2 * t)


def heat_kernel_neumann(t, nu, mode, y, z):
    """Half-line heat kernel with reflecting image, delta-normalized.

    (4 pi nu t)^{-1/2} (e^{-(y-z)^2/4 nu t} + e^{-(y+z)^2/4 nu t}) e^{-nu|xi|^2 t}.
    """
    return _heat(t, nu, mode, y, z, +1.0)


def heat_kernel_dirichlet(t, nu, mode, y, z):
    """Half-line heat kernel with absorbing image; vanishes at y=0 and z=0."""
    return _heat(t, nu, mode, y, z, -1.0)


# ---------------------------------------------------------------------------
# resolvent kernels (lambda domain)


def resolvent_kernel(point: SpectralPoint, y: float, z: float, D=None) -> np.ndarray:
    """H_lambda I_2 + e^{-mu(y+z)} / (nu mu) * D / (mu - sigma); PoleHit at lambda*.

    D defaults to no-slip, where the correction is ((mu+|xi|)/(mu lambda |xi|))
    P e^{-mu(y+z)}.  y and z other than single points of [0, inf) raise
    IncompatibleData (an array's values would land on different entries).
    """
    if point.mode.is_zero:
        raise ZeroModeUnsupported("resolvent kernel needs |xi| > 0")
    if np.ndim(y) or np.ndim(z):
        raise IncompatibleData(f"resolvent_kernel takes one y and one z, got shapes "
                               f"{np.shape(y)} and {np.shape(z)}")
    _check_domain(y, z)
    D = D or BoundaryOperatorD.no_slip(point.mode)
    mu = point.mu
    h = (np.exp(-mu * abs(y - z)) + np.exp(-mu * (y + z))) / (2.0 * point.nu * mu)
    r = np.exp(-mu * (y + z)) / (point.nu * mu)
    return h * np.eye(2) + r * D.correction(point)


# ---------------------------------------------------------------------------
# scalar residual profiles (vectorized over s = y + z)


def _auto_regime(nu, mode, regime=None):
    """``regime`` ("lowfreq" or "highfreq"), or for None the one nu |xi|^2 selects.

    No kernel depends on it; the profiles validate it, and the benchmark's
    tracer reads it."""
    if regime is None:
        return "lowfreq" if nu * mode.norm**2 <= 1.0 else "highfreq"
    if regime not in ("lowfreq", "highfreq"):
        raise IncompatibleData(f"regime must be 'lowfreq', 'highfreq' or None, got {regime!r}")
    return regime


def _scale_free(t, nu, xi_norm, s, sigma):
    """(tau, zeta, eta, r, sqrt(nu t), crosses): ``_closed_forms``' inputs
    and the split mask where R1 takes the pole term, s < 2 sigma nu t.

    The mask is formed in the dimensional variables: as zeta/2 < r sqrt(tau)
    it would put s on the split, to rounding, on its other side, which
    leaves the sum but moves each part by O(1).  eta = |xi| s is formed from
    s, so R1's exponent sigma s has the same bits at every t.  Takes (cells,
    1) columns of t, nu, |xi| and sigma against an s row as well, each value
    the bits of its own scalar call (every square is a product)."""
    root = np.sqrt(nu * t)
    return (nu * (xi_norm * xi_norm) * t, s / root, xi_norm * s, sigma / xi_norm, root,
            s < 2.0 * sigma * nu * t)


def _closed_forms(tau, zeta, eta, r, ks, comp1, comp2, crosses):
    """Both parts of R, each with the k axis first: (F1, F2) with
    F_{i,k} = (nu t)^{k/2} rho_i^{(k)} e^{zeta^2/4 + comp_i} for each k in
    ``ks`` (the module docstring's forms, with eta = |xi| s = sqrt(tau) zeta).

    comp_i is part i's log compensation: -zeta^2/4 gives the plain part, a
    bound's exponent the part against its bound without overflow.  F1's
    exponent is formed as (tau (r^2 - 1) - r eta) + (comp1 + zeta^2/4),
    whose terms r^2 tau and zeta^2/4 would otherwise cancel at large t.
    F2_0 = -+E erfcx(|x|) with E = e^{comp2 - tau} and x = zeta/2 -
    r sqrt(tau): rho is E erfcx(x) and, by erfc(x) + erfc(-x) = 2, rho minus
    the pole term is -E erfcx(-x), so nothing overflows, and where rounding
    puts the split on the other side of x = 0 both forms agree to rounding.
    F2_k = -r sqrt(tau) F2_{k-1} - psi_{k-1}, with psi_0 = E / sqrt(pi) and
    psi_j = -(zeta psi_{j-1} + (j-1) psi_{j-2}) / 2; where x < 0 its two
    terms nearly cancel for k >= 1, and the relative error grows like 2 x^2
    times the rounding error.  Inputs may be (cells, 1) columns against an
    s row, and ``crosses`` may carry axes of its own.
    """
    q = r * np.sqrt(tau)  # sigma sqrt(nu t)
    arg = np.where(crosses, (tau * (r * r - 1.0) - r * eta) + (comp1 + zeta * zeta / 4.0),
                   -np.inf)
    f1 = 2.0 * (-q) ** np.reshape(ks, (-1,) + (1,) * arg.ndim) * np.exp(arg)
    e = np.exp(comp2 - tau)
    f2 = np.where(crosses, -e, e) * erfcx(np.abs(zeta / 2.0 - q))
    out = [f2]
    psi, psi_prev = e / math.sqrt(math.pi), 0.0
    for j in range(max(ks)):
        f2 = -q * f2 - psi
        out.append(f2)
        psi, psi_prev = -(zeta * psi + j * psi_prev) / 2.0, psi
    return f1, np.stack(out)[list(ks)]


def _check_mode(mode):
    """IncompatibleData unless ``mode`` is a FourierMode."""
    if not isinstance(mode, FourierMode):
        raise IncompatibleData(f"mode must be a FourierMode, got {mode!r}")


def _check_domain(*coords, t=1.0, nu=1.0, sigma=0.0):
    """The coordinates as float arrays (``_real``), after IncompatibleData
    unless t, nu are single finite numbers > 0, sigma is a single finite
    number >= 0 and every value of each coordinate (y, z or s = y + z) is
    finite and >= 0; the defaults are admissible, for kernels without t or a
    trace.  Each argument is converted before it is compared."""
    # a float (np.float64 included) needs no conversion, and compares fastest
    t, nu, sigma = (x if isinstance(x, float) else _real(x) for x in (t, nu, sigma))
    coords = [_real(c) for c in coords]
    if not (all(isinstance(x, float) or x.ndim == 0 for x in (t, nu, sigma))
            and 0.0 < t < math.inf and 0.0 < nu < math.inf and 0.0 <= sigma < math.inf
            and all(np.all((c >= 0.0) & (c < math.inf)) for c in coords)):
        raise IncompatibleData("the kernels need single finite t, nu > 0, a single finite "
                               "trace sigma >= 0 and every y, z and s = y + z finite and "
                               ">= 0, got "
                               f"t={t}, nu={nu}, sigma={sigma}")
    return coords


def residual_profiles_general(t, nu, mode: FourierMode, s, sigma, deriv=0,
                              regime=None, n_arm=0, n_arc=0):
    """Scalar profiles (rho1, rho2) with R1 = rho1 D(xi), R2 = rho2 D(xi).

    Vectorized over an array of s = y + z values; ``sigma`` is the trace of D (0: zeros).
    ``deriv`` is the order of d/dz (the factor (-mu)^deriv under the
    integral); one that is not a non-negative integer raises IncompatibleData,
    as does a ``regime`` other than "lowfreq", "highfreq" or None.  Both
    parts are ``_closed_forms`` of the split s < 2 sigma nu t in every
    regime, so no quadrature node is evaluated: ``regime``, ``n_arm`` and
    ``n_arc`` are unused, and stay only because the benchmark's tracer
    (``perfbench/bench_trace.py``) reads them to count nodes.  Both are real
    float arrays.  A mode that is not a FourierMode, a t or nu that is not
    finite and > 0, a sigma that is not finite and >= 0, or an s that is not
    finite and >= 0, raises IncompatibleData; a non-finite value raises
    QuadratureUnderresolved.
    """
    _check_mode(mode)
    if mode.is_zero:
        raise ZeroModeUnsupported("residual profiles need |xi| > 0")
    if not (isinstance(deriv, numbers.Integral) and deriv >= 0):
        raise IncompatibleData(f"deriv must be an integer >= 0, got {deriv!r}")
    (s,) = _check_domain(s, t=t, nu=nu, sigma=sigma)
    _auto_regime(nu, mode, regime)
    if sigma == 0.0:
        return np.zeros(s.shape), np.zeros(s.shape)
    tau, zeta, eta, r, root, crosses = _scale_free(t, nu, mode.norm, s, sigma)
    # an overflow surfaces as a non-finite value, which raises below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # R1's compensation cancels the core's zeta^2/4 exactly; R2's is the
        # Gaussian from s and nu t, with fewer roundings than zeta^2/4
        parts = _closed_forms(tau, zeta, eta, r, (deriv,), -(zeta * zeta / 4.0),
                              -(s * s / (4.0 * nu * t)), crosses)
        rho1, rho2 = (f[0] / root**deriv for f in parts)
    if not (np.all(np.isfinite(rho1)) and np.all(np.isfinite(rho2))):
        raise QuadratureUnderresolved(f"the residual profile is not finite at t={t}")
    return rho1, rho2


# ---------------------------------------------------------------------------
# single-point residual kernels (closed forms; adaptive quadrature as an oracle)


def _adaptive_rho(p):
    """The oracle's (rho1, rho2) at k = 0 for ``contours.parabola_params``'
    ``p``, split as the profiles split them: rho1 is ``_closed_forms``' pole
    term on the split's mask, and rho2 = I + (residue - rho1), where I is the
    adaptive integral (``contours.integrate``) of
    e^{lambda t - mu s} / (nu mu (mu - sigma)) over the parabola and the
    residue is the same pole term on the parabola's mask, where it crossed
    the pole.  Where the parabola and the split agree on the pole the two
    terms cancel exactly, so rho2 keeps the relative accuracy of I when it
    is tiny."""
    t, nu, s = p["t"], p["nu"], p["s"]

    def f(lam):  # node axis last
        mu = np.sqrt(lam / nu + p["xi_norm"]**2)
        return np.exp(lam * t - mu * s[..., None]) / (nu * mu * (mu - p["sigma"]))

    tau, zeta, eta, r, _, crosses = _scale_free(t, nu, p["xi_norm"], s, p["sigma"])
    # both masks in one call, on a leading axis; k = 0 carries no (nu t)^{-k/2}
    plain = -(zeta * zeta / 4.0)
    rho1, residue = _closed_forms(tau, zeta, eta, r, (0,), plain, plain,
                                  np.stack([crosses, p["crosses_pole"]]))[0][0]
    return rho1, ct.integrate(f, p) + (residue - rho1)


def residual_kernel_time(t, nu, mode: FourierMode, y, z, method="fixed", check=False):
    """Split no-slip residual kernel {R1, R2} at a single (t, y, z)."""
    return residual_kernel_general(t, nu, mode, None, y, z, method, check)


def residual_kernel_general(t, nu, mode: FourierMode, D, y, z, method="fixed", check=False):
    """Split residual kernel {R1, R2} for the boundary operator D at a single (t, y, z).

    ``D=None`` is no-slip.  R1 is the pole part 2 e^{lambda* t - sigma s} D
    where x < 0 (s < 2 sigma nu t) and 0 elsewhere, and R2 = rho D - R1 (none
    for D = 0, whose kernel vanishes).  ``method="fixed"`` is the profile at
    one s; the oracle ``method="adaptive"`` integrates the parabola of
    ``contours.parabola_params`` and adds its residue, and returns R1 the
    same way and R2 as that integral minus R1, so it matches the closed
    forms to quadrature tolerance.  ``check`` (the fixed path only) has no
    effect.  A mode that is not a FourierMode, any other ``method``, or
    ``check`` with the adaptive method raises IncompatibleData.
    """
    _check_mode(mode)
    if mode.is_zero:
        raise ZeroModeUnsupported("residual kernel needs |xi| > 0")
    D = D or BoundaryOperatorD.no_slip(mode)
    D.check_mode(mode)
    if method not in ("fixed", "adaptive") or (check and method == "adaptive"):
        raise IncompatibleData(f"method must be 'fixed', or 'adaptive' without check, "
                               f"got {method!r} with check={check!r}")
    s = float(_real(y) + _real(z))
    _check_domain(s, t=t, nu=nu)

    if D.sigma == 0.0:
        vals = np.zeros(2)
    elif method == "adaptive":
        vals = np.array(_adaptive_rho(ct.parabola_params(t, nu, mode.norm, s, D.sigma)))
    else:
        vals = np.concatenate(residual_profiles_general(t, nu, mode, np.array([s]), D.sigma))
    # D and both paths' profiles are real, so R1 and R2 are real
    return {"R1": vals[0] * D.matrix, "R2": vals[1] * D.matrix}


def green_function(t, nu, mode: FourierMode, y, z, D=None) -> np.ndarray:
    """Tangential Green's function G_xi(t,y;z) = H I_2 + R1 + R2 (2x2, real) for
    the boundary operator D (default no-slip)."""
    parts = residual_kernel_general(t, nu, mode, D, y, z)
    h = heat_kernel_neumann(t, nu, mode, y, z)
    return h * np.eye(2) + parts["R1"] + parts["R2"]


# ---------------------------------------------------------------------------
# grid sampling


@dataclass(eq=False)  # array fields: == is identity
class KernelSample:
    """Green's function H I_2 + R1 + R2 on a (y, z) product grid, in its paper
    form: H per pair, R1 and R2 as rho1 D and rho2 D with each profile stored
    once per distinct s = y + z.  ``R1``, ``R2`` and ``values`` (ny, nz, 2, 2)
    are formed on each read."""

    t: float
    nu: float
    mode: FourierMode
    y_nodes: np.ndarray
    z_nodes: np.ndarray
    H: np.ndarray        # (ny, nz)
    D: BoundaryOperatorD
    rho: np.ndarray      # (2, number of distinct s): (rho1, rho2)
    s_index: np.ndarray  # (ny, nz): each pair's index into rho's last axis

    @property
    def R1(self) -> np.ndarray:
        return self.rho[0][self.s_index][..., None, None] * self.D.matrix

    @property
    def R2(self) -> np.ndarray:
        return self.rho[1][self.s_index][..., None, None] * self.D.matrix

    @property
    def values(self) -> np.ndarray:
        return self.H[..., None, None] * np.eye(2) + self.R1 + self.R2


def sample_green_function(t, nu, mode: FourierMode, y_nodes, z_nodes,
                          D=None) -> KernelSample:
    """Sample G_xi(t) for the boundary operator D (default no-slip) on a product grid.

    The residual profiles depend on (y, z) only through s = y + z, so they are
    evaluated and stored once per distinct float s, with each pair's index
    into them.  Distinct means exact float equality: on a uniform n x n grid
    that is 2n - 1 values when every node is an exact binary fraction
    (spacing 5/64: 257 values for n = 129 on [0, 10]), but on other spacings
    rounding splits some sums that are equal in exact arithmetic (726 for
    n = 201 on [0, 7]).  Every profile value is computed on its own, so the
    sample is bit-for-bit the one a per-pair evaluation gives.  A mode that
    is not a FourierMode raises IncompatibleData.
    """
    _check_mode(mode)
    D = D or BoundaryOperatorD.no_slip(mode)
    D.check_mode(mode)
    y = np.asarray(y_nodes, dtype=float)
    z = np.asarray(z_nodes, dtype=float)
    s = y[:, None] + z[None, :]
    h = heat_kernel_neumann(t, nu, mode, y[:, None], z[None, :])
    s_u, inv = np.unique(s, return_inverse=True)
    rho = np.array(residual_profiles_general(t, nu, mode, s_u, D.sigma))
    return KernelSample(t=t, nu=nu, mode=mode, y_nodes=y, z_nodes=z, H=h, D=D, rho=rho,
                        s_index=inv.reshape(s.shape))


# ---------------------------------------------------------------------------
# bound certification


def mu0_rate(mode: FourierMode, nu: float) -> float:
    """Boundary-layer rate mu_0 = |xi| + nu^{-1/2} of the kernel bounds;
    IncompatibleData unless nu is one finite real number > 0."""
    _check_mode(mode)
    nu = _real(nu)
    if not (nu.ndim == 0 and 0.0 < nu < math.inf):
        raise IncompatibleData(f"mu0 needs a finite viscosity nu > 0, got {nu}")
    return float(_mu0(mode.norm, nu))


def _mu0(xi_norm, nu):
    """mu_0 = |xi| + nu^{-1/2} for validated |xi| and nu, scalars or arrays."""
    return xi_norm + 1.0 / np.sqrt(nu)


def _sup(ratio, start):
    """(sup, index) of ``ratio`` over its sweep-ordered axes, starting from
    ``start`` (index None while nothing exceeds it).  The first maximum in
    sweep order wins a tie, and the first NaN wins outright, so the sup reads NaN."""
    i = np.unravel_index(np.argmax(ratio), ratio.shape)
    top = float(ratio[i])
    return (top, i) if top > start or math.isnan(top) else (start, None)


def _bound_sweep(nu_values, xi_values, t_values, k_values, s_values, theta0, operator):
    """Sup bound ratios for the kernel family D = operator(mode), in one pass.

    Returns (sup, arg): the sups and where each is reached.  nu lies along
    (N_nu, 1, 1, 1), the per-xi |xi|, sigma and max|D| of the one operator
    per xi along (1, N_xi, 1, 1), and t along (1, 1, N_t, 1), against the s
    row; one call of ``_closed_forms`` fills (nu, xi, t, k, s) arrays, each
    part in its bound's exponent, so that huge factors never overflow.  With
    rho^{(k)} = (nu t)^{-k/2} F_k and m0 = mu0 sqrt(nu t): R1 against
    mu0^{k+1} e^{lambda* t - theta0 mu0 s} is |F1_k| max|D| / (mu0 m0^k),
    in the exponent theta0 m0 zeta - tau (r^2 - 1) - zeta^2/4, and R2
    against (nu t)^{-(k+1)/2} e^{lambda* t - zeta^2/4 - tau/8} is
    |F2_k| max|D| sqrt(nu t), in the exponent tau/8 - tau (r^2 - 1), whose
    Gaussian cancels the one the parts leave out exactly.  Each sup is one
    argmax over its ratio array, in sweep order, and its index picks the
    caller's own axis values.
    """
    ops = [operator(FourierMode(n_xi, 0)) for n_xi in xi_values]
    xi_norm, sigma, scale = (np.reshape(v, (1, -1, 1, 1)) for v in
                             zip(*((D.mode.norm, D.sigma, np.abs(D.matrix).max()) for D in ops)))
    nu, t = np.reshape(nu_values, (-1, 1, 1, 1)), np.reshape(t_values, (1, 1, -1, 1))
    tau, zeta, eta, r, root, crosses = _scale_free(t, nu, xi_norm, s_values, sigma)
    mu0 = _mu0(xi_norm, nu)
    lam_t = tau * (r * r - 1.0)  # lambda* t
    m0 = mu0 * root  # mu0 sqrt(nu t)
    f1, f2 = (np.abs(np.moveaxis(f, 0, -2)) for f in _closed_forms(
        tau, zeta, eta, r, k_values, theta0 * m0 * zeta - lam_t - zeta * zeta / 4.0,
        tau / 8.0 - lam_t, crosses))
    # the ratios, (nu, xi, t, k, s)
    k = np.asarray(k_values)[:, None]
    ratios = {"R1": f1 * (scale / mu0)[..., None] / m0[..., None] ** k,
              "R2_quarter": f2 * (scale * root)[..., None]}
    # the stated exponent e^{-s^2/nu t} differs by e^{3 zeta^2/4}; report in
    # log10 since it can overflow any float
    ratios["R2_stated_log10"] = np.log10(np.maximum(ratios["R2_quarter"], 1e-300)) \
        + 0.75 * (zeta * zeta)[..., None, :] / math.log(10.0)
    axes = (nu_values, xi_values, t_values, k_values)
    sup, arg = {}, {}
    for key, start in (("R1", 0.0), ("R2_quarter", 0.0), ("R2_stated_log10", -np.inf)):
        sup[key], i = _sup(ratios[key], start)
        arg[key] = None if i is None else (*(a[j] for a, j in zip(axes, i)),
                                           float(s_values[i[4]]))
    return sup, arg


# trace (alpha + beta)/|xi| of the certificate's general operator, <= 1 for c0 = 1
_SIGMA_FRACTION = 0.5


def verify_kernel_bounds(nu_values=(1.0, 0.04), xi_values=tuple(range(1, 9)),
                         t_values=(0.01, 0.0316, 0.1, 0.316, 1.0),
                         k_values=(0, 1, 2), s_values=None, theta0=0.25) -> dict:
    """Certify the pointwise kernel bounds by sup-ratio sweeps.

    Reports, for both the no-slip kernel (D = P/|xi|) and a general boundary
    operator with alpha + beta = |xi|/2 (split 0.3/0.7, gamma from det=0,
    c0 = 1):

    * sup |d^k/dz^k R1| / (mu0^{k+1} e^{lambda* t} e^{-theta0 mu0 (y+z)}),
    * sup |d^k/dz^k R2| (nu t)^{(k+1)/2} e^{(y+z)^2/4 nu t} e^{nu|xi|^2 t/8}
      e^{-lambda* t}  (the proof's Gaussian exponent; lambda* = 0 for no-slip),
    * the same R2 ratio against the stated exponent e^{(y+z)^2/nu t},
      reported as log10 (it grows without bound, which is why only the
      quarter-exponent version is certified).

    Each family reports its sups under ``sup`` and where each is reached
    under ``argmax(nu,xi,t,k,s)``: the first maximum in (nu, xi, t, k, s)
    sweep order, or the first NaN, which makes the sup NaN.  The ratios are
    evaluated by the profiles' core and split, not through the profiles,
    cell-vectorized, each bound's exponent inside exp().  The certificate
    passes when both certified sups of both families are finite.  A
    ``theta0`` outside (0, 1) raises IncompatibleData: theta0 <= 0 turns the
    R1 bound's decay e^{-theta0 mu0 (y+z)} into growth, so the sup would
    bound nothing.  So
    does an empty sweep axis, a nu, xi, t or k axis that is not a sequence
    (a scalar), a nu or t that is not finite and positive, an
    s = y + z that is not finite and >= 0, or a k that is not a non-negative
    integer: a vacuous or invalid sweep certifies nothing.  theta0 and the
    nu, t and s axes are converted to floats before they are compared (a
    str or None raises IncompatibleData); the report lists nu and t as
    floats.  A zero in ``xi_values`` raises ZeroModeUnsupported: the bounds
    are stated for |xi| > 0.
    """
    theta0 = _real(theta0)
    if not (theta0.ndim == 0 and 0.0 < theta0 < 1.0):
        raise IncompatibleData(f"theta0 must be in (0, 1), got {theta0}")
    theta0 = float(theta0)
    if s_values is None:
        s_values = np.linspace(0.0, 10.0, 21)
    s_values = _real(s_values)
    nu_values, t_values = _real(nu_values), _real(t_values)
    if not (nu_values.ndim == t_values.ndim == np.ndim(xi_values) == np.ndim(k_values) == 1
            and all(np.size(axis) for axis in (nu_values, xi_values, t_values, k_values, s_values))
            and all(0.0 < x < math.inf for x in (*nu_values, *t_values))
            and np.all((s_values >= 0.0) & (s_values < math.inf))
            and all(isinstance(k, numbers.Integral) and k >= 0 for k in k_values)):
        raise IncompatibleData("the sweep needs non-empty axes, sequences of finite nu, t > 0, "
                               "finite s >= 0 and integer k >= 0")
    nu_values, t_values = nu_values.tolist(), t_values.tolist()  # the report's JSON floats
    if 0 in xi_values:
        raise ZeroModeUnsupported("kernel bounds need |xi| > 0")

    def general(mode):
        sigma = _SIGMA_FRACTION * mode.norm
        alpha, beta = 0.3 * sigma, 0.7 * sigma
        return BoundaryOperatorD(alpha, beta, math.sqrt(alpha * beta), c0=1.0, mode=mode)

    report = {"theta0": theta0,
              "sweep": {"nu": nu_values, "xi": list(xi_values),
                        "t": t_values, "k": list(k_values),
                        "s_max": float(s_values.max()), "n_s": int(s_values.size)}}
    ok = True
    for name, operator in (("no_slip", BoundaryOperatorD.no_slip), ("general", general)):
        sup, arg = _bound_sweep(nu_values, xi_values, t_values, k_values, s_values, theta0,
                                operator)
        finite = all(np.isfinite(sup[key]) for key in ("R1", "R2_quarter"))
        ok = ok and finite
        report[name] = {"sup": sup, "argmax(nu,xi,t,k,s)": arg, "finite": finite}
    report["pass"] = bool(ok)
    return report
