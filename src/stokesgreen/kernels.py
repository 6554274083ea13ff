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

D = 0 (sigma = 0) gives R = 0.  R1 carries the pole and R2 the branch-cut
remainder with Gaussian-in-(y+z) decay, split on the deformed inverse-Laplace
contours of the ``contours`` module.  In the high-frequency regime both
parts are closed forms and no node is evaluated: R1 is the residue
2 (-sigma)^k e^{lambda* t - sigma s} where the parabola crossed the pole, and
R2 = rho - R1 is -e^{-nu |xi|^2 t - s^2/4 nu t} erfcx(-x) there and rho
elsewhere; in the low-frequency regime both come from contour quadrature.
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
certificate share one fixed-node path, ``_fixed_rho``.  At high frequency it
evaluates the closed forms (``_residue``, ``_erfc_rho2``), every derivative
order of R2 by the recurrence rho2^{(k)} = -sigma rho2^{(k-1)} -
2 e^{-nu |xi|^2 t} Phi^{(k-1)}(s), Phi = e^{-s^2/4 nu t} / sqrt(4 pi nu t);
they take (cell, 1) columns too, so the certificate evaluates all its
high-frequency cells in one call.  At low frequency ``_fixed_parts``
integrates the half circle (R1) and the arm (R2) in one evaluation on one
node array: in mu, with the completed-square exponent
nu t (mu - a)^2 - nu |xi|^2 t, and every derivative order by the
recurrence (-mu)^{k+1} = -mu (-mu)^k.  Both leave the
Gaussian e^{-s^2/4 nu t} out.  The oracle ``_adaptive_rho``
(``method="adaptive"``) is kept apart: adaptive panels in lambda, at k = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, erfcx

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


def _fixed_parts(contour, ks, comp1, comp2, n_arm, n_arc):
    """The low-frequency fixed-node integrand of the profiles and the
    certificate: (rho1 e^{s^2/(4 nu t) + comp1}, rho2 e^{s^2/(4 nu t) + comp2}),
    k axis first, from one evaluation on the half circle (R1) and the arm (R2).

    In the root variable, dlambda / (nu mu (mu - sigma)) = 2 dmu / (mu - sigma),
    and with s = 2 nu t a the exponent completes the square:
    lambda t - mu s = nu t (mu - a)^2 - nu |xi|^2 t - s^2/(4 nu t).  The
    Gaussian is replaced by ``comp1`` on the arc and ``comp2`` on the arm, so
    a bound that divides by it cancels it exactly.  The weights are
    multiplied in once per (s, node), and each k in ``ks`` is one more
    factor -mu, summed per segment after each step.
    """
    p = contour.params
    t, nu, sigma = p["t"], p["nu"], p["sigma"]
    # the real operands as complex, the cast numpy would make per node
    a = p["a"][..., None].astype(complex)
    decay = nu * p["xi_norm"]**2 * t
    shifts = [np.asarray(comp - decay)[..., None].astype(complex) for comp in (comp1, comp2)]

    def sums(mu, dmu_w, cuts):
        # g = e^{nu t (mu - a)^2 + shift} 2 dmu_w / (mu - sigma), in place over
        # dmu_w and one more array; products keep the large array on the left
        # (see gauss_legendre)
        g = mu - sigma
        dmu_w = np.multiply(2.0, dmu_w, out=dmu_w)
        dmu_w /= g
        g = np.square(np.subtract(mu, a, out=g), out=g)
        g *= nu * t
        for cut, shift in zip(cuts, shifts):
            g[..., cut] += shift
        g = np.exp(g, out=g)
        g *= dmu_w
        out = [[g[..., cut].sum(axis=-1) for cut in cuts]]
        for _ in range(max(ks)):
            g *= np.negative(mu, out=dmu_w)
            out.append([g[..., cut].sum(axis=-1) for cut in cuts])
        return np.stack(out, axis=1)[:, list(ks)]

    return tuple(contour.gauss_legendre(sums, n_arm, n_arc))


def _auto_regime(nu, mode, regime=None):
    """``regime`` ("lowfreq" or "highfreq"), or for None the one nu |xi|^2 selects."""
    if regime is None:
        return "lowfreq" if nu * mode.norm**2 <= 1.0 else "highfreq"
    if regime not in ("lowfreq", "highfreq"):
        raise IncompatibleData(f"regime must be 'lowfreq', 'highfreq' or None, got {regime!r}")
    return regime


def _contour(regime, t, nu, xi_norm, s, sigma):
    """The regime's contour around the pole mu = sigma."""
    build = ct.build_contour_lowfreq if regime == "lowfreq" else ct.build_contour_highfreq
    return build(t, nu, xi_norm, s, sigma)


def _residue(p, ks, comp):
    """The high-frequency rho1 e^{s^2/(4 nu t) + comp} for each k in ``ks`` (k
    axis first) from the parabola's ``params`` ``p``: the residue at mu = sigma
    for the s where the deformation crossed the pole, 0 elsewhere.  Like
    ``highfreq_params`` it takes (cells, 1) columns, with ``comp`` per (cell, s)."""
    # the residue of the integrand 2 e^{nu t (mu - a)^2 - nu |xi|^2 t + comp} / (mu - sigma)
    t, nu, sigma = p["t"], p["nu"], p["sigma"]
    arg = np.where(p["crosses_pole"],
                   nu * t * (sigma - p["a"]) ** 2 - nu * p["xi_norm"]**2 * t + comp, -np.inf)
    k = np.reshape(ks, (-1,) + (1,) * arg.ndim)
    return 2.0 * (-sigma) ** k * np.exp(arg)


def _erfc_rho2(p, ks, comp):
    """The high-frequency rho2 e^{s^2/(4 nu t) + comp} like ``_residue``, in closed form.

    With x = s/(2 sqrt(nu t)) - sigma sqrt(nu t) and E = e^{-nu |xi|^2 t + comp},
    rho2 e^{s^2/4 nu t + comp} is -E erfcx(-x) where the parabola crossed the
    pole and E erfcx(x) elsewhere (rho - rho1 without cancellation).
    E erfcx(y) is evaluated as e^{y^2} E erfc(y) for y < 0, so nothing
    overflows.  Derivative orders follow
    rho2' = -sigma rho2 - 2 e^{-nu |xi|^2 t} Phi, with the Hermite recurrence
    Phi^{(j)} = -(s Phi^{(j-1)} + (j-1) Phi^{(j-2)}) / (2 nu t) for
    Phi = e^{-s^2/4 nu t} / sqrt(4 pi nu t).  Where the parabola crosses the
    pole the two terms nearly cancel for k >= 1: the relative error grows
    like 2 x^2 times the rounding error.  Takes (cells, 1) columns like
    ``_residue``, with ``comp`` per cell or per (cell, s).
    """
    t, nu, sigma, s = p["t"], p["nu"], p["sigma"], p["s"]
    root = np.sqrt(nu * t)
    sign = np.where(p["crosses_pole"], -1.0, 1.0)
    y = sign * (s / (2.0 * root) - sigma * root)
    log_e = comp - nu * p["xi_norm"]**2 * t
    neg = np.minimum(y, 0.0)
    rho2 = sign * np.where(y >= 0.0, np.exp(log_e) * erfcx(np.maximum(y, 0.0)),
                           np.exp(neg**2 + log_e) * erfc(neg))
    out = [rho2]
    # 2 E Phi^{(j)} e^{s^2/4 nu t}, starting at j = 0
    phi, phi_prev = np.exp(log_e) / np.sqrt(math.pi * nu * t), 0.0
    for j in range(max(ks)):
        rho2 = -sigma * rho2 - phi
        out.append(rho2)
        phi, phi_prev = -(s * phi + j * phi_prev) / (2.0 * nu * t), phi
    return np.stack(out)[list(ks)]


def _fixed_rho(regime, t, nu, xi_norm, s, sigma, ks, comp1, comp2, n_arm, n_arc):
    """(rho1 e^{s^2/(4 nu t) + comp1}, rho2 e^{s^2/(4 nu t) + comp2}), k axis
    first: the closed forms at high frequency, ``_fixed_parts`` with
    ``n_arm``/``n_arc`` nodes on the half circle and the arm at low frequency."""
    if regime == "highfreq":
        p = ct.highfreq_params(t, nu, xi_norm, s, sigma)
        return _residue(p, ks, comp1), _erfc_rho2(p, ks, comp2)
    return _fixed_parts(ct.build_contour_lowfreq(t, nu, xi_norm, s, sigma), ks,
                        comp1, comp2, n_arm, n_arc)


# Cap on s values x evaluated quadrature nodes held at once: 125 s of the
# default low-frequency contour's 160 upper-half nodes, 20 000 s of the
# high-frequency closed forms.  The few complex arrays of this size (0.3 MB
# each) stay in cache, and a `kernel` table's profiles add no more to the
# heap's high-water mark than its formatting does.  Each value depends on
# its own s only, so chunking never changes a bit.
_CHUNK_ELEMENTS = 20_000

# relative move under node doubling that marks a fixed-node kernel unresolved
DOUBLING_RTOL = 1e-8


def residual_profiles_general(t, nu, mode: FourierMode, s, sigma, deriv=0,
                              regime=None, n_arm=ct.N_ARM, n_arc=ct.N_ARC):
    """Scalar profiles (rho1, rho2) with R1 = rho1 D(xi), R2 = rho2 D(xi).

    Vectorized over an array of s = y + z values; ``sigma`` is the trace of D (0: zeros).
    ``deriv`` is the order of d/dz (the factor (-mu)^deriv under the
    integral); one that is not a non-negative integer raises IncompatibleData,
    as does a ``regime`` other than "lowfreq", "highfreq" or None (from
    nu |xi|^2).  At high frequency both parts are closed forms and
    ``n_arm``/``n_arc`` are unused.  At low frequency both come from the fixed-node integrand
    (``n_arm``/``n_arc`` Gauss-Legendre nodes) on one contour per chunk of s.
    Both are real float arrays.  A non-finite value raises
    QuadratureUnderresolved.
    """
    if mode.is_zero:
        raise ZeroModeUnsupported("residual profiles need |xi| > 0")
    if not (isinstance(deriv, numbers.Integral) and deriv >= 0):
        raise IncompatibleData(f"deriv must be an integer >= 0, got {deriv!r}")
    s = np.asarray(s, dtype=float)
    regime = _auto_regime(nu, mode, regime)
    if sigma == 0.0:
        return np.zeros(s.shape), np.zeros(s.shape)
    flat_s = s.reshape(-1)
    # the nodes the low-frequency contour evaluates per s (its upper half); the
    # high-frequency closed forms evaluate one value per s
    per_s = n_arm + n_arc - n_arc // 2 if regime == "lowfreq" else 1
    step = max(1, _CHUNK_ELEMENTS // per_s)
    chunks = []
    # an overflow surfaces as a non-finite value, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, max(flat_s.size, 1), step):
            s_c = flat_s[i:i + step]
            comp = -_log_gauss(s_c, nu, t)
            chunks.append([rho[0] for rho in _fixed_rho(regime, t, nu, mode.norm, s_c, sigma,
                                                        (deriv,), comp, comp, n_arm, n_arc)])
    rho1, rho2 = (np.concatenate(rho).reshape(s.shape) for rho in zip(*chunks))
    if not (np.all(np.isfinite(rho1)) and np.all(np.isfinite(rho2))):
        raise QuadratureUnderresolved(
            f"the {regime} residual profile is not finite at t={t}")
    return rho1, rho2


# ---------------------------------------------------------------------------
# single-point residual kernels (fixed nodes; adaptive quadrature as an oracle)


def _adaptive_rho(contour):
    """The oracle's (rho1, rho2) at k = 0 on ``contour``: adaptive panels
    (``Contour.integrate``) over e^{lambda t - mu s} / (nu mu (mu - sigma)) on
    the half circle and the arm at low frequency, the residue and the
    parabola at high frequency."""
    p = contour.params

    def f(lam):  # node axis last
        mu = np.sqrt(lam / p["nu"] + p["xi_norm"]**2)
        return np.exp(lam * p["t"] - mu * p["s"][..., None]) / (p["nu"] * mu * (mu - p["sigma"]))

    if contour.regime == "lowfreq":
        return tuple(contour.integrate(f, segment_indices=[k]) for k in (0, 1))
    return _residue(p, (0,), -_log_gauss(p["s"], p["nu"], p["t"]))[0], contour.integrate(f)


def residual_kernel_time(t, nu, mode: FourierMode, y, z, regime=None,
                         method="fixed", check=False):
    """Split no-slip residual kernel {R1, R2} at a single (t, y, z)."""
    return residual_kernel_general(t, nu, mode, BoundaryOperatorD.no_slip(mode), y, z,
                                   regime, method, check)


def residual_kernel_general(t, nu, mode: FourierMode, D, y, z, regime=None,
                            method="fixed", check=False):
    """Split residual kernel {R1, R2} for the boundary operator D at a single (t, y, z).

    Low frequency: R1 is the half-circle integral (pole contribution), R2 the
    parabolic arms.  High frequency: R2 is the parabola integral and R1 the
    residue at lambda* when the contour deformation crossed the pole.  Both
    methods make this split the same way (none for D = 0, whose kernel
    vanishes).  ``method="fixed"`` is the profile at one s (closed form at
    high frequency); the oracle ``method="adaptive"`` matches it to
    quadrature tolerance.  ``check`` raises QuadratureUnderresolved when
    doubling the fixed nodes moves the result by more than ``DOUBLING_RTOL``
    relative.  Any other ``regime``/``method``, or ``check`` with the
    adaptive method (no nodes to double), raises IncompatibleData.
    """
    if mode.is_zero:
        raise ZeroModeUnsupported("residual kernel needs |xi| > 0")
    D.check_mode(mode)
    regime = _auto_regime(nu, mode, regime)
    if method not in ("fixed", "adaptive") or (check and method == "adaptive"):
        raise IncompatibleData(f"method must be 'fixed', or 'adaptive' without check "
                               f"(no nodes to double), got {method!r} with check={check!r}")
    s = float(y) + float(z)

    if D.sigma == 0.0:
        vals = np.zeros(2)
    elif method == "adaptive":
        vals = np.array(_adaptive_rho(_contour(regime, t, nu, mode.norm, s, D.sigma)))
    else:
        def run(k):  # (rho1, rho2) on k times the default nodes
            return np.concatenate(residual_profiles_general(
                t, nu, mode, np.array([s]), D.sigma, regime=regime,
                n_arm=k * ct.N_ARM, n_arc=k * ct.N_ARC))

        vals = run(1)
        if check:
            fine = run(2)
            scale = max(np.max(np.abs(vals)), np.max(np.abs(fine)), 1e-300)
            if np.max(np.abs(fine - vals)) > DOUBLING_RTOL * scale:
                raise QuadratureUnderresolved("doubling quadrature nodes changed the kernel "
                                              f"by more than {DOUBLING_RTOL:g} relative")
            vals = fine
    # D and both paths' profiles are real, so R1 and R2 are real
    return {"R1": vals[0] * D.matrix, "R2": vals[1] * D.matrix}


def green_function(t, nu, mode: FourierMode, y, z, D=None, **kw) -> np.ndarray:
    """Tangential Green's function G_xi(t,y;z) = H I_2 + R1 + R2 (2x2, real) for
    the boundary operator D (default no-slip); ``kw`` goes to
    ``residual_kernel_general``."""
    parts = residual_kernel_general(t, nu, mode, D or BoundaryOperatorD.no_slip(mode),
                                    y, z, **kw)
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
    regime: str
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
    per-pair evaluation gives.
    """
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
                        R2=rho2[..., None, None] * D.matrix,
                        regime=_auto_regime(nu, mode), _s_groups=(first, inv))


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


def _bound_sweep(nu_values, xi_values, t_values, k_values, s_values, theta0,
                 n_arm, n_arc, operator):
    """Sup bound ratios for the kernel family D = operator(mode), in one pass.

    Returns (sup, (arg, drift)): the sups at ``n_arm``/``n_arc`` nodes, where
    each is reached, and the relative move of the certified sups (R1,
    R2_quarter) when the node counts double.  The fixed-node parts fill
    (node count, cell, k, s) arrays, cells in (nu, xi, t) order, with the
    ratio's exponent inside exp() so that huge factors never overflow: every
    high-frequency cell in one closed-form call over (cell, s) arrays, the
    same for both node counts; each low-frequency cell on its contour at both
    node counts.  The R2 ratio's e^{+s^2/4 nu t} cancels the Gaussian the
    parts leave out exactly.  Each sup is one argmax over its ratio array;
    at doubled nodes only the two the drift reads are formed.
    """
    s = s_values
    cells = [(nu, n_xi, t) for nu in nu_values for n_xi in xi_values for t in t_values]
    operators = {n_xi: operator(FourierMode(n_xi, 0)) for n_xi in xi_values}
    cols = []
    for nu, n_xi, t in cells:
        D = operators[n_xi]
        mode = D.mode
        lam_star_t = D.pole_lambda(nu) * t
        # R2 against (nu t)^{-(k+1)/2} e^{lambda* t} e^{-s^2/4 nu t}
        #   e^{-nu |xi|^2 t / 8} (proof exponent), whose Gaussian cancels the
        #   one the parts leave out
        comp2 = nu * mode.norm**2 * t / 8.0 - lam_star_t
        cols.append((t, nu, mode.norm, D.sigma, comp2, mu0_rate(mode, nu), lam_star_t,
                     np.abs(D.matrix).max(), _auto_regime(nu, mode) == "highfreq"))
    # (cell, 1) columns
    t_c, nu_c, xin_c, sigma_c, comp2_c, mu0_c, lam_c, scale_c, high = (
        np.array(col)[:, None] for col in zip(*cols))
    # R1 against mu0^{k+1} e^{lambda* t} e^{-theta0 mu0 s}
    comp1 = theta0 * mu0_c * s - lam_c - _log_gauss(s, nu_c, t_c)
    high = high[:, 0]

    def lowfreq(c, m):
        t, nu, xin, sigma, comp2 = cols[c][:5]
        return _fixed_rho("lowfreq", t, nu, xin, s, sigma, k_values, comp1[c], comp2,
                          m * n_arm, m * n_arc)

    # each low-frequency cell on its contour at both node counts, before the
    # (node count, cell, k, s) arrays exist, which keeps the heap's high-water
    # mark down
    low = {c: [lowfreq(c, m) for m in (1, 2)] for c in np.flatnonzero(~high)}
    rho1, rho2 = np.empty((2, 2, len(cells), len(k_values), s.size))
    for c, parts in low.items():
        for m, part in enumerate(parts):
            rho1[m, c], rho2[m, c] = part
    if high.any():
        # a closed-form cell is the same at every node count
        parts = _fixed_rho("highfreq", t_c[high], nu_c[high], xin_c[high], s, sigma_c[high],
                           k_values, comp1[high], comp2_c[high], n_arm, n_arc)
        for rho, part in zip((rho1, rho2), parts):
            rho[:, high] = np.moveaxis(part, 0, 1)
    # the ratios, in place of the parts
    k = np.asarray(k_values)[:, None]
    scale_c, mu0_c, nu_t = scale_c[..., None], mu0_c[..., None], (nu_c * t_c)[..., None]
    ratios = {"R1": np.abs(rho1, out=rho1), "R2_quarter": np.abs(rho2, out=rho2)}
    for ratio in ratios.values():
        ratio *= scale_c
    ratios["R1"] /= mu0_c ** (k + 1)
    ratios["R2_quarter"] *= nu_t ** ((k + 1) / 2)
    # the stated exponent e^{-s^2/nu t} differs by e^{3 s^2/4 nu t}; report in
    # log10 since it can overflow any float
    stated = np.log10(np.maximum(ratios["R2_quarter"][0], 1e-300)) \
        + 0.75 * s**2 / nu_t / math.log(10.0)
    sup, arg, drift = {}, {}, {}
    for key, ratio, start in (("R1", ratios["R1"][0], 0.0),
                              ("R2_quarter", ratios["R2_quarter"][0], 0.0),
                              ("R2_stated_log10", stated, -np.inf)):
        sup[key], i = _sup(ratio, start)
        arg[key] = None if i is None else (*cells[i[0]], k_values[i[1]], float(s[i[2]]))
        if key in ratios:
            sup2 = _sup(ratios[key][1], start)[0]
            drift[key] = abs(sup2 - sup[key]) / max(abs(sup[key]), 1e-300)
    return sup, (arg, drift)


# trace (alpha + beta)/|xi| of the certificate's general operator, <= 1 for c0 = 1
_SIGMA_FRACTION = 0.5
# largest relative move of a certified sup under node doubling that still passes
_DRIFT_TOL = 0.1


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
    evaluated directly (not through the profiles, but on their fixed-node
    path), cell-vectorized, each bound's exponent inside exp(): in closed
    form at high frequency, all cells in one call, by quadrature on each
    cell's contour at low frequency.
    The certificate passes when the certified sups are finite and drift by
    less than ``report["drift_tol"]`` relative when the quadrature node counts
    double.  One sweep per operator fills both node counts: a low-frequency
    cell is integrated at both, a high-frequency (closed-form) cell is
    evaluated once and counts at both, so a sup reached there does not
    move and its drift is exactly 0.  At doubled nodes only the two
    certified sups, which the drift reads, are formed.  A ``theta0`` outside
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

    report = {"theta0": theta0, "drift_tol": _DRIFT_TOL,
              "sweep": {"nu": list(nu_values), "xi": list(xi_values),
                        "t": list(t_values), "k": list(k_values),
                        "s_max": float(s_values.max()), "n_s": int(s_values.size)}}
    ok = True
    for name, operator in (("no_slip", BoundaryOperatorD.no_slip), ("general", general)):
        sup, (arg, drift) = _bound_sweep(nu_values, xi_values, t_values, k_values,
                                         s_values, theta0, ct.N_ARM, ct.N_ARC, operator)
        finite = all(np.isfinite(sup[key]) for key in ("R1", "R2_quarter"))
        stable = all(d < _DRIFT_TOL for d in drift.values())
        ok = ok and finite and stable
        report[name] = {"sup": sup, "argmax(nu,xi,t,k,s)": arg, "drift": drift,
                        "finite": finite, "stable": stable}
    report["pass"] = bool(ok)
    return report
