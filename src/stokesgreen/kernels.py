"""Resolvent and time-domain Green's function kernels for the tangential pair.

The per-mode vorticity Green's function splits as

    G_xi(t, y; z) = H_xi(t, y; z) I_2 + R_xi(t, y; z),

where H_xi is the Neumann half-line heat kernel (method of images) and the
residual part R_xi = R1 + R2 is recovered from the resolvent kernel of an
admissible boundary operator D (det D = 0, alpha, beta >= 0, trace sigma),

    R_lambda(y, z) = e^{-mu (y+z)} / (nu mu (mu - sigma)) * D(xi),

whose Bromwich integral around the pole mu = sigma (lambda* = nu (sigma^2 -
|xi|^2)) is R = rho D with the Robin half-line heat kernel

    rho(s) = e^{lambda* t - sigma s} erfc(x) = e^{-nu |xi|^2 t - s^2/4 nu t} erfcx(x),
    x = s / (2 sqrt(nu t)) - sigma sqrt(nu t);

D = 0 (sigma = 0) gives R = 0.  R1 is the boundary-layer (pole) part and R2
the remainder with Gaussian-in-(y+z) decay.  They split at x = 0 in every
regime: R1 = 2 e^{lambda* t - sigma s} D where x < 0 (s < 2 sigma nu t) and
0 elsewhere, the residue the steepest-descent line Re mu = s/(2 nu t)
through the saddle picks up where it passes left of the pole, and
R2 = R - R1, which is -e^{-nu |xi|^2 t - s^2/4 nu t} erfcx(-x) D where
x < 0 and R elsewhere, so neither part cancels or overflows.
The no-slip vorticity kernel is the member D = P(xi)/|xi| with sigma = |xi|
and lambda* = 0 exactly, not a family of its own: the resolvent kernel, the
pole residue, the Green's function and its grid sample each take D, and
``D=None`` means ``BoundaryOperatorD.no_slip(mode)``.  The profiles take
sigma and give R = rho_D D for every D, no-slip included.
``residual_kernel_time`` is the one no-slip wrapper left (of
``residual_kernel_general``).

Since R_lambda depends on y, z only through s = y + z, all residual kernels
here are scalar "profiles" in s times a constant matrix, and the profile
evaluators are vectorized over arrays of s.

The profiles (hence every kernel, sample and the CLI) and the bound
certificate evaluate the same two closed forms, ``_residue`` (R1) and
``_erfc_rho2`` (R2), which give every derivative order: R1 by the factor
(-sigma)^k, R2 by the recurrence rho2^{(k)} = -sigma rho2^{(k-1)} -
2 e^{-nu |xi|^2 t} Phi^{(k-1)}(s), Phi = e^{-s^2/4 nu t} / sqrt(4 pi nu t).
They take (cell, 1) columns too, so the certificate evaluates all its cells
in one call.  No production path evaluates a quadrature node or reads a
contour.  Contours serve only the oracles: ``_adaptive_rho``
(``method="adaptive"``) integrates adaptive panels in lambda, at k = 0, over
the regime's contour, and ``invert_resolvent_kernel`` the full resolvent
kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfcx

from . import contours as ct
from .core import FourierMode, SpectralPoint, projection_matrix
from .errors import IncompatibleData, QuadratureUnderresolved, ZeroModeUnsupported
from .resolvent import BoundaryOperatorD

__all__ = [
    "heat_kernel_neumann",
    "heat_kernel_dirichlet",
    "resolvent_kernel",
    "residue_at_pole",
    "residual_profiles_general",
    "residual_kernel_time",
    "residual_kernel_general",
    "green_function",
    "invert_resolvent_kernel",
    "residue_small_circle",
    "KernelSample",
    "sample_green_function",
    "mu0_rate",
    "verify_kernel_bounds",
]


# ---------------------------------------------------------------------------
# heat kernels (method of images)


def _heat(t, nu, mode, y, z, sign):
    if not (0.0 < t < math.inf and 0.0 < nu < math.inf):
        raise IncompatibleData(f"heat kernel needs finite t, nu > 0, got t={t}, nu={nu}")
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
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
    P e^{-mu(y+z)}.
    """
    if point.mode.is_zero:
        raise ZeroModeUnsupported("resolvent kernel needs |xi| > 0")
    D = D or BoundaryOperatorD.no_slip(point.mode)
    mu = point.mu
    h = (np.exp(-mu * abs(y - z)) + np.exp(-mu * (y + z))) / (2.0 * point.nu * mu)
    r = np.exp(-mu * (y + z)) / (point.nu * mu)
    return h * np.eye(2) + r * D.correction(point)


def residue_at_pole(t, nu, mode: FourierMode, y, z, D=None) -> np.ndarray:
    """Residue of the residual integrand at lambda* = nu(sigma^2 - |xi|^2).

    Near lambda*, nu mu (mu - sigma) = (lambda - lambda*)/2 + O((lambda-lambda*)^2)
    since dmu/dlambda = 1/(2 nu mu), so the residue is 2 e^{lambda* t}
    e^{-sigma (y+z)} D — confirmed by small-circle quadrature.  For D
    no-slip (the default) lambda* = 0 exactly, so the residue
    (2/|xi|) P e^{-|xi|(y+z)} does not depend on t.
    """
    if mode.is_zero:
        raise ZeroModeUnsupported("the boundary pole needs |xi| > 0")
    D = D or BoundaryOperatorD.no_slip(mode)
    D.check_mode(mode)
    # complex like the small-circle residues; D itself is real
    return (2.0 * math.exp(D.pole_lambda(nu) * t) * np.exp(-D.sigma * (y + z))
            * D.matrix.astype(complex))


# ---------------------------------------------------------------------------
# scalar residual profiles (vectorized over s = y + z)


def _log_gauss(s, nu, t):
    """s^2 / (4 nu t): the Gaussian e^{-s^2/4 nu t} that every part is returned without."""
    return s**2 / (4.0 * nu * t)


def _auto_regime(nu, mode, regime=None):
    """``regime`` ("lowfreq" or "highfreq"), or for None the one nu |xi|^2 selects."""
    if regime is None:
        return "lowfreq" if nu * mode.norm**2 <= 1.0 else "highfreq"
    if regime not in ("lowfreq", "highfreq"):
        raise IncompatibleData(f"regime must be 'lowfreq', 'highfreq' or None, got {regime!r}")
    return regime


def _contour(regime, t, nu, xi_norm, s, sigma):
    """The regime's contour around the pole mu = sigma (the oracles' only)."""
    build = ct.build_contour_lowfreq if regime == "lowfreq" else ct.build_contour_highfreq
    return build(t, nu, xi_norm, s, sigma)


def _split(t, nu, xi_norm, s, sigma):
    """The closed forms' parameters, with ``crosses_pole`` where R1 takes the
    pole term: x < 0, that is s < 2 sigma nu t.  Takes (cells, 1) columns of
    t, nu, |xi| and sigma against an s row as well."""
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "sigma": sigma,
            "crosses_pole": s < 2.0 * sigma * nu * t}


def _residue(p, ks, comp):
    """rho1 e^{s^2/(4 nu t) + comp} for each k in ``ks`` (k axis first): the pole
    term 2 (-sigma)^k e^{lambda* t - sigma s} where ``p["crosses_pole"]``, 0
    elsewhere.  ``p`` holds t, nu, xi_norm, s and sigma (``_split``, or an
    oracle contour's params); like them it may hold (cells, 1) columns, with
    ``comp`` per cell or per (cell, s).  The exponent is formed as
    (lambda* t - sigma s) + (comp + s^2/4 nu t): its terms sigma^2 nu t and
    s^2/4 nu t would otherwise cancel at large t."""
    t, nu, sigma, s = p["t"], p["nu"], p["sigma"], p["s"]
    arg = np.where(p["crosses_pole"], (nu * (sigma**2 - p["xi_norm"]**2) * t - sigma * s)
                   + (comp + _log_gauss(s, nu, t)), -np.inf)
    k = np.reshape(ks, (-1,) + (1,) * arg.ndim)
    return 2.0 * (-sigma) ** k * np.exp(arg)


def _erfc_rho2(p, ks, comp):
    """rho2 e^{s^2/(4 nu t) + comp} = (rho - rho1) e^{s^2/(4 nu t) + comp} for
    ``_split``'s ``p``, like ``_residue``, in closed form.

    With x = s/(2 sqrt(nu t)) - sigma sqrt(nu t) and E = e^{-nu |xi|^2 t + comp},
    rho e^{s^2/4 nu t + comp} is E erfcx(x), and by erfc(x) + erfc(-x) = 2,
    rho minus the pole term is -E erfcx(-x).  So rho2 is -E erfcx(|x|) where
    the split gives the pole term to R1 (x < 0) and E erfcx(|x|) elsewhere:
    erfcx of a non-negative argument lies in (0, 1], so nothing overflows,
    and where rounding puts the split on the other side of x = 0 both forms
    agree to rounding.  Derivative orders follow
    rho2' = -sigma rho2 - 2 e^{-nu |xi|^2 t} Phi, with the Hermite recurrence
    Phi^{(j)} = -(s Phi^{(j-1)} + (j-1) Phi^{(j-2)}) / (2 nu t) for
    Phi = e^{-s^2/4 nu t} / sqrt(4 pi nu t).  Where x < 0 the two terms
    nearly cancel for k >= 1: the relative error grows like 2 x^2 times the
    rounding error.
    """
    t, nu, sigma, s = p["t"], p["nu"], p["sigma"], p["s"]
    root = np.sqrt(nu * t)
    e = np.exp(comp - nu * p["xi_norm"]**2 * t)
    rho2 = np.where(p["crosses_pole"], -e, e) * erfcx(np.abs(s / (2.0 * root) - sigma * root))
    out = [rho2]
    # 2 E Phi^{(j)} e^{s^2/4 nu t}, starting at j = 0
    phi, phi_prev = e / np.sqrt(math.pi * nu * t), 0.0
    for j in range(max(ks)):
        rho2 = -sigma * rho2 - phi
        out.append(rho2)
        phi, phi_prev = -(s * phi + j * phi_prev) / (2.0 * nu * t), phi
    return np.stack(out)[list(ks)]


def _check_mode(mode):
    """IncompatibleData unless ``mode`` is a FourierMode."""
    if not isinstance(mode, FourierMode):
        raise IncompatibleData(f"mode must be a FourierMode, got {mode!r}")


def _check_domain(t, nu, s):
    """IncompatibleData unless t, nu are finite and > 0 and every s is finite and >= 0."""
    if not (0.0 < t < math.inf and 0.0 < nu < math.inf
            and np.all((s >= 0.0) & (s < math.inf))):
        raise IncompatibleData("the residual kernel needs finite t, nu > 0 and every "
                               f"s = y + z finite and >= 0, got t={t}, nu={nu}")


def residual_profiles_general(t, nu, mode: FourierMode, s, sigma, deriv=0,
                              regime=None, n_arm=0, n_arc=0):
    """Scalar profiles (rho1, rho2) with R1 = rho1 D(xi), R2 = rho2 D(xi).

    Vectorized over an array of s = y + z values; ``sigma`` is the trace of D (0: zeros).
    ``deriv`` is the order of d/dz (the factor (-mu)^deriv under the
    integral); one that is not a non-negative integer raises IncompatibleData,
    as does a ``regime`` other than "lowfreq", "highfreq" or None.  Both
    parts are the closed forms of the split at x = 0 in every regime, so no
    quadrature node is evaluated: ``regime``, ``n_arm`` and ``n_arc`` are
    unused, and stay only because the benchmark's tracer
    (``perfbench/bench_trace.py``) reads them to count nodes.  Both are real
    float arrays.  A mode that is not a FourierMode, a t or nu that is not
    finite and > 0, or an s that is not finite and >= 0, raises
    IncompatibleData; a non-finite value raises QuadratureUnderresolved.
    """
    _check_mode(mode)
    if mode.is_zero:
        raise ZeroModeUnsupported("residual profiles need |xi| > 0")
    if not (isinstance(deriv, numbers.Integral) and deriv >= 0):
        raise IncompatibleData(f"deriv must be an integer >= 0, got {deriv!r}")
    s = np.asarray(s, dtype=float)
    _check_domain(t, nu, s)
    _auto_regime(nu, mode, regime)
    if sigma == 0.0:
        return np.zeros(s.shape), np.zeros(s.shape)
    p = _split(t, nu, mode.norm, s, sigma)
    comp = -_log_gauss(s, nu, t)
    # an overflow surfaces as a non-finite value, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        rho1, rho2 = (part(p, (deriv,), comp)[0] for part in (_residue, _erfc_rho2))
    if not (np.all(np.isfinite(rho1)) and np.all(np.isfinite(rho2))):
        raise QuadratureUnderresolved(f"the residual profile is not finite at t={t}")
    return rho1, rho2


# ---------------------------------------------------------------------------
# single-point residual kernels (closed forms; adaptive quadrature as an oracle)


def _adaptive_rho(contour):
    """The oracle's (rho1, rho2) at k = 0 on ``contour``, split as the profiles
    split them: rho1 from ``_residue`` where x < 0, rho2 the contour's whole
    integral minus rho1.  The integral is adaptive panels
    (``Contour.integrate``) over e^{lambda t - mu s} / (nu mu (mu - sigma)),
    on the half circle and the arm at low frequency, and on the parabola plus
    the residue where it crossed the pole at high frequency."""
    p = contour.params
    t, nu, s = p["t"], p["nu"], p["s"]

    def f(lam):  # node axis last
        mu = np.sqrt(lam / nu + p["xi_norm"]**2)
        return np.exp(lam * t - mu * s[..., None]) / (nu * mu * (mu - p["sigma"]))

    comp = -_log_gauss(s, nu, t)
    total = contour.integrate(f)
    if contour.regime == "highfreq":
        total = total + _residue(p, (0,), comp)[0]
    rho1 = _residue(_split(t, nu, p["xi_norm"], s, p["sigma"]), (0,), comp)[0]
    return rho1, total - rho1


def residual_kernel_time(t, nu, mode: FourierMode, y, z, regime=None,
                         method="fixed", check=False):
    """Split no-slip residual kernel {R1, R2} at a single (t, y, z)."""
    return residual_kernel_general(t, nu, mode, None, y, z, regime, method, check)


def residual_kernel_general(t, nu, mode: FourierMode, D, y, z, regime=None,
                            method="fixed", check=False):
    """Split residual kernel {R1, R2} for the boundary operator D at a single (t, y, z).

    ``D=None`` is no-slip.  R1 is the pole part 2 e^{lambda* t - sigma s} D
    where x < 0 (s < 2 sigma nu t) and 0 elsewhere, and R2 = rho D - R1 (none
    for D = 0, whose kernel vanishes).  ``method="fixed"`` is the profile at
    one s; the oracle ``method="adaptive"`` integrates the ``regime``'s
    contour (from nu |xi|^2 for None), the arc and the arm or the parabola
    and its residue, and returns R1 the same way and R2 as that integral
    minus R1, so it matches the closed forms to quadrature tolerance.
    ``regime`` is unused on the fixed path, and ``check`` (the fixed path
    only) has no effect.  A mode that is not a FourierMode, any other
    ``regime``/``method``, or ``check`` with the adaptive method raises
    IncompatibleData.
    """
    _check_mode(mode)
    if mode.is_zero:
        raise ZeroModeUnsupported("residual kernel needs |xi| > 0")
    D = D or BoundaryOperatorD.no_slip(mode)
    D.check_mode(mode)
    regime = _auto_regime(nu, mode, regime)
    if method not in ("fixed", "adaptive") or (check and method == "adaptive"):
        raise IncompatibleData(f"method must be 'fixed', or 'adaptive' without check, "
                               f"got {method!r} with check={check!r}")
    s = float(y) + float(z)
    _check_domain(t, nu, s)

    if D.sigma == 0.0:
        vals = np.zeros(2)
    elif method == "adaptive":
        vals = np.array(_adaptive_rho(_contour(regime, t, nu, mode.norm, s, D.sigma)))
    else:
        vals = np.concatenate(residual_profiles_general(t, nu, mode, np.array([s]), D.sigma))
    # D and both paths' profiles are real, so R1 and R2 are real
    return {"R1": vals[0] * D.matrix, "R2": vals[1] * D.matrix}


def green_function(t, nu, mode: FourierMode, y, z, D=None, **kw) -> np.ndarray:
    """Tangential Green's function G_xi(t,y;z) = H I_2 + R1 + R2 (2x2, real) for
    the boundary operator D (default no-slip); ``kw`` goes to
    ``residual_kernel_general``."""
    parts = residual_kernel_general(t, nu, mode, D, y, z, **kw)
    h = heat_kernel_neumann(t, nu, mode, y, z)
    return h * np.eye(2) + parts["R1"] + parts["R2"]


def invert_resolvent_kernel(t, nu, mode: FourierMode, y, z) -> np.ndarray:
    """(1/2 pi i) int_Gamma e^{lambda t} G_lambda(y,z) dlambda, entrywise.

    Integrates the *full* resolvent kernel (heat part included) over one fixed
    contour, adding the lambda = 0 residue when the high-frequency deformation
    crossed the pole.  Used to validate the H + R1 + R2 decomposition.
    """
    xin = mode.norm
    s = float(y) + float(z)
    d = abs(float(y) - float(z))
    # the heat part decays only like e^{-mu |y-z|}, so tune the contour to
    # the weakest decay distance d <= s to keep the arm integrand bounded
    contour = _contour(_auto_regime(nu, mode), t, nu, xin, d, xin)
    P = projection_matrix(mode).real
    eye = np.eye(2)

    def f(lam):
        mu = np.sqrt(lam / nu + xin**2)
        h = np.exp(lam * t) * (np.exp(-mu * d) + np.exp(-mu * s)) / (2.0 * nu * mu)
        r = np.exp(lam * t - mu * s) * (mu + xin) / (mu * lam * xin)
        return (h[None, :] * eye.reshape(4, 1) + r[None, :] * P.reshape(4, 1))

    total = contour.integrate(f).reshape(2, 2)
    if contour.regime == "highfreq" and np.any(contour.params["crosses_pole"]):
        total = total + residue_at_pole(t, nu, mode, y, z).real
    return total


# periodic-trapezoid nodes on the small residue circle
_N_CIRCLE = 256


def residue_small_circle(f, center: complex, radius: float) -> complex:
    """(1/2 pi i) contour integral of f over a small circle (periodic trapezoid)."""
    theta = 2.0 * np.pi * np.arange(_N_CIRCLE) / _N_CIRCLE
    lam = center + radius * np.exp(1j * theta)
    vals = f(lam) * radius * np.exp(1j * theta)
    return complex(np.sum(vals) / _N_CIRCLE)


# ---------------------------------------------------------------------------
# grid sampling


@dataclass
class KernelSample:
    """Green's function sampled on a (y, z) product grid, parts kept separate."""

    t: float
    nu: float
    mode: FourierMode
    y_nodes: np.ndarray
    z_nodes: np.ndarray
    H: np.ndarray       # (ny, nz)
    R1: np.ndarray      # (ny, nz, 2, 2)
    R2: np.ndarray
    # (flat index of the first (y, z) pair with each distinct s = y + z, the
    # (ny, nz) index of each pair's distinct s): the grouping the profiles
    # were evaluated on, so the `kernel` writer formats R1, R2 once per s
    _s_groups: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def values(self) -> np.ndarray:
        return self.H[..., None, None] * np.eye(2) + self.R1 + self.R2


def sample_green_function(t, nu, mode: FourierMode, y_nodes, z_nodes,
                          D=None) -> KernelSample:
    """Sample G_xi(t) for the boundary operator D (default no-slip) on a product grid.

    The residual profiles depend on (y, z) only through s = y + z, so they are
    evaluated once per distinct float s and scattered back.  Distinct means
    exact float equality: on a uniform n x n grid that is 2n - 1 values when
    every node is an exact binary fraction (spacing 5/64: 257 values for
    n = 129 on [0, 10]), but on other spacings rounding splits some sums that
    are equal in exact arithmetic (726 for n = 201 on [0, 7]).  Every profile
    value is computed on its own, so the sample is bit-for-bit the one a
    per-pair evaluation gives.  A mode that is not a FourierMode raises
    IncompatibleData.
    """
    _check_mode(mode)
    D = D or BoundaryOperatorD.no_slip(mode)
    D.check_mode(mode)
    y = np.asarray(y_nodes, dtype=float)
    z = np.asarray(z_nodes, dtype=float)
    s = y[:, None] + z[None, :]
    h = heat_kernel_neumann(t, nu, mode, y[:, None], z[None, :])
    s_u, first, inv = np.unique(s, return_index=True, return_inverse=True)
    inv = inv.reshape(s.shape)
    rho1, rho2 = (rho[inv] for rho in residual_profiles_general(t, nu, mode, s_u, D.sigma))
    return KernelSample(t=t, nu=nu, mode=mode, y_nodes=y, z_nodes=z, H=h,
                        R1=rho1[..., None, None] * D.matrix,
                        R2=rho2[..., None, None] * D.matrix, _s_groups=(first, inv))


# ---------------------------------------------------------------------------
# bound certification


def mu0_rate(mode: FourierMode, nu: float) -> float:
    """Boundary-layer rate mu_0 = |xi| + nu^{-1/2} of the kernel bounds."""
    return mode.norm + 1.0 / math.sqrt(nu)


def _sup(ratio, start):
    """(sup, index) of ``ratio`` over its sweep-ordered axes, starting from
    ``start`` (index None while nothing exceeds it).  The first maximum in
    sweep order wins a tie, and the first NaN wins outright, so the sup reads NaN."""
    i = np.unravel_index(np.argmax(ratio), ratio.shape)
    top = float(ratio[i])
    return (top, i) if top > start or math.isnan(top) else (start, None)


def _bound_sweep(nu_values, xi_values, t_values, k_values, s_values, theta0, operator):
    """Sup bound ratios for the kernel family D = operator(mode), in one pass.

    Returns (sup, arg): the sups and where each is reached.  One call of each
    closed form over (cell, 1) columns against the s row fills (cell, k, s)
    arrays, cells in (nu, xi, t) order, each part in its bound's exponent,
    so that huge factors never overflow: R1 against e^{lambda* t -
    theta0 mu0 s}, R2 against e^{lambda* t - s^2/4 nu t - nu |xi|^2 t / 8},
    whose Gaussian cancels the one the parts leave out exactly.  Each sup is
    one argmax over its ratio array.
    """
    s = s_values
    cells = [(nu, n_xi, t) for nu in nu_values for n_xi in xi_values for t in t_values]
    operators = {n_xi: operator(FourierMode(n_xi, 0)) for n_xi in xi_values}
    cols = []
    for nu, n_xi, t in cells:
        D = operators[n_xi]
        mode = D.mode
        cols.append((t, nu, mode.norm, D.sigma, mu0_rate(mode, nu), D.pole_lambda(nu) * t,
                     np.abs(D.matrix).max()))
    # (cell, 1) columns
    t_c, nu_c, xin_c, sigma_c, mu0_c, lam_c, scale_c = (
        np.array(col)[:, None] for col in zip(*cols))
    p = _split(t_c, nu_c, xin_c, s, sigma_c)
    # R1 against mu0^{k+1} e^{lambda* t} e^{-theta0 mu0 s}
    comp1 = theta0 * mu0_c * s - lam_c - _log_gauss(s, nu_c, t_c)
    # R2 against (nu t)^{-(k+1)/2} e^{lambda* t} e^{-s^2/4 nu t}
    #   e^{-nu |xi|^2 t / 8} (proof exponent)
    comp2 = nu_c * xin_c**2 * t_c / 8.0 - lam_c
    k = np.asarray(k_values)[:, None]
    scale_c, mu0_c, nu_t = scale_c[..., None], mu0_c[..., None], (nu_c * t_c)[..., None]
    # the ratios, (cell, k, s), in place of the parts
    ratios = {"R1": np.abs(np.moveaxis(_residue(p, k_values, comp1), 0, 1)),
              "R2_quarter": np.abs(np.moveaxis(_erfc_rho2(p, k_values, comp2), 0, 1))}
    for ratio in ratios.values():
        ratio *= scale_c
    ratios["R1"] /= mu0_c ** (k + 1)
    ratios["R2_quarter"] *= nu_t ** ((k + 1) / 2)
    # the stated exponent e^{-s^2/nu t} differs by e^{3 s^2/4 nu t}; report in
    # log10 since it can overflow any float
    ratios["R2_stated_log10"] = np.log10(np.maximum(ratios["R2_quarter"], 1e-300)) \
        + 0.75 * s**2 / nu_t / math.log(10.0)
    sup, arg = {}, {}
    for key, start in (("R1", 0.0), ("R2_quarter", 0.0), ("R2_stated_log10", -np.inf)):
        sup[key], i = _sup(ratios[key], start)
        arg[key] = None if i is None else (*cells[i[0]], k_values[i[1]], float(s[i[2]]))
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
    evaluated directly (not through the profiles, but from the same closed
    forms and the same split), cell-vectorized, each bound's exponent
    inside exp().  The certificate passes when both certified sups of both
    families are finite.  A ``theta0`` outside
    (0, 1) raises IncompatibleData: theta0 <= 0 turns the R1 bound's decay
    e^{-theta0 mu0 (y+z)} into growth, so the sup would bound nothing.  So
    does an empty sweep axis, a nu or t that is not finite and positive, an
    s = y + z that is not finite and >= 0, or a k that is not a non-negative
    integer: a vacuous or invalid sweep certifies nothing.  A zero in
    ``xi_values`` raises ZeroModeUnsupported: the bounds are stated for
    |xi| > 0.
    """
    if not 0.0 < theta0 < 1.0:
        raise IncompatibleData(f"theta0 must be in (0, 1), got {theta0}")
    if s_values is None:
        s_values = np.linspace(0.0, 10.0, 21)
    s_values = np.asarray(s_values, dtype=float)
    if not (all(np.size(axis) for axis in (nu_values, xi_values, t_values, k_values, s_values))
            and all(0.0 < x < math.inf for x in (*nu_values, *t_values))
            and np.all((s_values >= 0.0) & (s_values < math.inf))
            and all(isinstance(k, numbers.Integral) and k >= 0 for k in k_values)):
        raise IncompatibleData("the sweep needs non-empty axes, finite nu, t > 0, "
                               "finite s >= 0 and integer k >= 0")
    if 0 in xi_values:
        raise ZeroModeUnsupported("kernel bounds need |xi| > 0")

    def general(mode):
        sigma = _SIGMA_FRACTION * mode.norm
        alpha, beta = 0.3 * sigma, 0.7 * sigma
        return BoundaryOperatorD(alpha, beta, math.sqrt(alpha * beta), c0=1.0, mode=mode)

    report = {"theta0": theta0,
              "sweep": {"nu": list(nu_values), "xi": list(xi_values),
                        "t": list(t_values), "k": list(k_values),
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
