"""Deformed Laplace-inversion contours for the semigroup kernels.

The residual (non-heat) part of the per-mode Green's function is recovered from
the resolvent kernel by a Bromwich integral

    R(t, y, z) = (1/2 pi i) int_Gamma exp(lambda t) R_lambda(y, z) dlambda.

The contour Gamma is deformed into the left half plane around the branch cut
lambda + nu |xi|^2 in (-inf, 0].  Two deformations are used, both built around
the saddle of exp(lambda t - mu s) with s = y + z and vertex parameter
a = s / (2 nu t):

* low frequency (nu |xi|^2 <= 1): two parabolic arms
  lambda = -nu|xi|^2/2 + nu (a + i b)^2 -+ i M, b in (-inf, 0] resp. [0, inf),
  bridged by a half circle of radius M around c0 = -nu|xi|^2/2 + nu a^2.  The
  half circle carries the pole contribution (R1), the arms the decaying
  remainder (R2).

* high frequency (nu |xi|^2 >= 1): a single parabola
  lambda = -nu|xi|^2 + nu (theta a + i b)^2, b in R, with theta in {1, 1/2}
  chosen so the line mu = theta a + i b stays away from the pole of the
  integrand at mu = sigma.  Here R2 is the parabola integral and R1 is the
  residue when the parabola encloses the pole.

Both take the pole once, as ``sigma`` (finite, > 0; kept in ``params``): its
position in mu = sqrt(lambda/nu + |xi|^2), so lambda* = nu (sigma^2 - |xi|^2)
(sigma = |xi|, lambda* = 0 for the no-slip kernel).

Everything is parameterized so that the magnitude of exp(lambda t - mu s) is
bounded along the contour (steepest-descent arms), which keeps the quadrature
well conditioned even for large s^2/(4 nu t).

Each deformation is described once, as the ``Segment`` maps of a ``Contour``.
The maps broadcast over an array of s (s axes first, the node axis last), so
one Contour holds the contours of a whole batch of s.  Two integrators run
over the same segments.  ``Contour.gauss_legendre`` (fixed nodes) hands the
fixed-node integrand of the low-frequency profiles and bound certificate
the nodes of all segments at once, concatenated on one node axis with each
segment's slice, in the root variable mu = sqrt(lambda/nu + |xi|^2), the
principal square root of each node's lambda, with dmu = dlambda / (2 nu mu);
the high-frequency profiles are closed forms that evaluate no node, and read
only ``highfreq_params`` (which also takes (cell, 1) columns of t, nu, |xi|
and sigma, for the certificate's cells at once).  ``Contour.integrate``
(adaptive panels) integrates the oracles' integrands in lambda
(``residual_kernel_general(method="adaptive")`` and
``invert_resolvent_kernel``).  Only ``integrate`` needs scipy's
``quad_vec``, so it imports ``scipy.integrate`` on its first call and the
package import does not load it.

Both deformations are mirror images under complex conjugation, and the
residual integrands are real in the sense f(conj lambda) = conj f(lambda)
(real t, s, nu, |xi|, sigma and the principal root mu).  The lower half of a
contour therefore contributes the conjugate of the upper half's integral I,
so the Bromwich integral is (I - conj I) / (2 pi i) = Im(I) / pi.  A
``Contour`` is its upper half (Im lambda >= 0): at low frequency the quarter
circle from the real axis and the arm b >= 0, at high frequency the parabola
b >= 0.  Both integrators return that real value.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .errors import IncompatibleData, PoleOnContour

__all__ = [
    "Segment",
    "Contour",
    "build_contour_lowfreq",
    "build_contour_highfreq",
    "lowfreq_params",
    "highfreq_params",
    "BETA_MAX",
]

# Arms are truncated where exp(-nu b^2 t) = exp(-beta^2) drops below ~1e-16.
BETA_MAX = 6.1

# Keep the parabola vertex strictly right of the branch cut even when the
# saddle parameter a vanishes (s = 0 puts the paper-exact contour on the cut;
# any vertex offset gives the same integral by Cauchy's theorem).
VERTEX_FLOOR_FRACTION = 0.05

# Gauss-Legendre nodes per arm and on the arc: the fixed-node resolution of
# every low-frequency profile, kernel and certificate cell (node-doubling
# checks use twice these).  The arm integrand is the Gaussian e^{-nu t b^2}
# on [0, BETA_MAX / sqrt(nu t)]: against 1024 arm / 512 arc nodes over
# nu in {1, 0.25, 0.04, 0.01}, t in [1e-5, 20], sigma/|xi| in {0.3, 0.5, 0.9, 1},
# s <= 40 and k <= 2, R2 misses by 2.3e-10 of its sup at 48 arm nodes
# (nu = 0.04, xi = (2,0), t = 3, sigma = |xi|/2, k = 0) and reaches the
# rounding floor (~1e-13) at 64, so 96 is a 2x margin.  The arc keeps 128:
# at t >= 10 it is the part still unresolved (R1 off by 8.2e-3 at 128 arc
# nodes, 6.5e-2 at 64), and fewer nodes would make that silent error larger.
N_ARM, N_ARC = 96, 128


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a contour: lambda = gamma(p), p in [0, p1]."""

    name: str
    p1: float
    gamma: Callable[[np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Contour:
    """The upper half (Im lambda >= 0) of an upward-oriented contour, in segments.

    ``params`` holds the geometry (the pole ``sigma`` among it); ``arc_index``
    marks the segment that carries the pole contribution at low frequency.
    """

    segments: tuple[Segment, ...]
    regime: str
    params: dict = field(compare=False)
    arc_index: int | None = None

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], segment_indices=None):
        """(1/2 pi i) * integral of f(lambda) over (selected) segments and their mirrors.

        Requires f(conj lambda) = conj f(lambda), and returns the real
        Im(I) / pi of the upper-half integral I.  Uses adaptive Gauss-Kronrod
        panels (scipy ``quad_vec``, imported here because only the oracles
        integrate adaptively); ``f`` must be vectorized over a 1-D array of
        lambda values and may return extra leading axes (e.g. a stack of
        integrands).
        """
        from scipy.integrate import quad_vec

        def part(seg):
            def g(p):  # quad_vec passes a scalar p, f takes a node axis
                p = np.atleast_1d(p)
                return (f(seg.gamma(p)) * seg.dgamma(p))[..., 0]

            return quad_vec(g, 0.0, seg.p1, epsabs=1e-13, epsrel=1e-11)[0]

        if segment_indices is None:
            segment_indices = range(len(self.segments))
        total = reduce(operator.add, (part(self.segments[k]) for k in segment_indices))
        return total.imag / np.pi

    def gauss_legendre(self, f: Callable, n_arm: int = N_ARM, n_arc: int = N_ARC):
        """Im(f(mu, dmu_w, cuts)) / pi on fixed Gauss-Legendre nodes, in the
        principal root mu = sqrt(lambda/nu + |xi|^2) (nu and |xi| from ``params``).

        ``n_arm`` nodes on each arm.  The arc starts on the real axis at
        p = 0 and takes the upper half of the ``n_arc``-node rule on
        [-p1, p1], the whole half circle (an odd rule's centre node at half
        weight), so that with the mirrored nodes the rule is the full
        Gauss-Legendre rule in exact arithmetic.
        ``f`` is called once, on the nodes of every segment together: mu with
        the contour's s axes first and the segments' nodes concatenated in
        order on the last axis, dmu/dp times the weights on the same nodes,
        and ``cuts``, each segment's slice of that axis.  It returns its own
        sums over the node axis (per segment, or over all of it), with any
        leading axes (so one evaluation can give several integrals).  An
        integrand g(lambda) over the whole contour is
        ``np.sum(g(lam) * (2 nu mu dmu_w), axis=-1)``, since
        dlambda = 2 nu mu dmu.
        """
        nu, xi_norm = self.params["nu"], self.params["xi_norm"]
        nodes, cuts, start = [], [], 0
        for k, seg in enumerate(self.segments):
            if k == self.arc_index:
                p, w = _gl(-seg.p1, seg.p1, n_arc)
                p, w = p[n_arc // 2:], w[n_arc // 2:]
                if n_arc % 2:
                    w[0] *= 0.5
            else:
                p, w = _gl(0.0, seg.p1, n_arm)
            nodes.append((seg, p, w))
            cuts.append(slice(start, start + p.size))
            start += p.size
        # in place, so that at most three arrays of the nodes' size are held;
        # each value takes the same operations as sqrt(lambda/nu + |xi|^2) and
        # dlambda/dp / (2 nu mu) * w.  f puts its own values first in its
        # products with dmu_w: numpy computes a product with a large temporary
        # on the right in place with the operands swapped, and complex
        # multiplication is not bitwise commutative, so the other order would
        # make each value depend on how many s are evaluated together.
        mu = np.concatenate([seg.gamma(p) for seg, p, _ in nodes], axis=-1)
        mu /= nu
        mu += xi_norm**2
        mu = np.sqrt(mu, out=mu)
        dmu_w = np.concatenate([seg.dgamma(p) for seg, p, _ in nodes], axis=-1)
        dmu_w /= 2.0 * nu * mu
        dmu_w *= np.concatenate([w for *_, w in nodes]).astype(complex)
        return f(mu, dmu_w, cuts).imag / np.pi


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gl(p0: float, p1: float, n: int):
    """Gauss-Legendre nodes/weights on [p0, p1]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (p0 + p1), 0.5 * (p1 - p0)
    return mid + half * x, half * w


def _last(x) -> np.ndarray:
    """x with a trailing unit axis, so its s axes broadcast against the nodes."""
    return np.asarray(x)[..., None]


def _parabola(nu: float, center, shift):
    """(gamma, dgamma) of lambda = shift + nu (center + i b)^2."""
    return (lambda b: shift + nu * (center + 1j * b) ** 2,
            lambda b: 2j * nu * (center + 1j * b))


def _check_sigma(sigma) -> None:
    if not np.all((0.0 < sigma) & (sigma < math.inf)):
        raise IncompatibleData(f"the pole sigma must be finite and positive, got {sigma}")


# ---------------------------------------------------------------------------
# low frequency


def lowfreq_params(t: float, nu: float, xi_norm: float, s, sigma: float) -> dict:
    """Geometry of the low-frequency contour; vectorized over s = y + z.

    The half circle must enclose the real integrand pole
    lambda* = nu (sigma^2 - |xi|^2) (0 for the no-slip kernel).  The radius
    M = 1.25 |c0 - lambda*| + max(nu |xi|^2, 0.5/t) keeps the pole strictly
    inside, and grows with |c0| so that exp(lambda t - mu s) stays bounded on
    the half circle; a fixed multiple of max(nu a^2, ...) as the radius would
    overflow exp(M t) for large a.
    """
    _check_sigma(sigma)
    s = np.asarray(s, dtype=float)
    a = s / (2.0 * nu * t)
    c_arm = -0.5 * nu * xi_norm**2
    c0 = c_arm + nu * a**2
    M = 1.25 * np.abs(c0 - nu * (sigma**2 - xi_norm**2)) + max(nu * xi_norm**2, 0.5 / t)
    b_max = BETA_MAX / np.sqrt(nu * t)
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "sigma": sigma, "a": a,
            "c_arm": c_arm, "c0": c0, "M": M, "b_max": b_max}


def build_contour_lowfreq(t: float, nu: float, xi_norm: float, s, sigma: float,
                          M: float | None = None) -> Contour:
    """Low-frequency contour for a scalar s or an array of s, around the pole sigma.

    ``M`` overrides the default radius (used by the contour-independence
    checks: any admissible radius gives the same integral); PoleOnContour is
    raised unless the override radius encloses the pole for every s.
    """
    params = lowfreq_params(t, nu, xi_norm, s, sigma)
    if M is not None:
        if np.any(np.abs(params["c0"] - nu * (sigma**2 - xi_norm**2)) >= M):
            raise PoleOnContour(f"override radius M does not enclose the pole mu = {sigma}")
        params = dict(params, M=M)
    a, c0, M = _last(params["a"]), _last(params["c0"]), _last(params["M"])
    c_arm, b_max = params["c_arm"], params["b_max"]

    segments = (Segment("arc", 0.5 * np.pi, lambda th: c0 + M * np.exp(1j * th),
                        lambda th: 1j * M * np.exp(1j * th)),
                Segment("arm", b_max, *_parabola(nu, a, c_arm + 1j * M)))
    return Contour(segments=segments, regime="lowfreq", params=params, arc_index=0)


# ---------------------------------------------------------------------------
# high frequency


def highfreq_params(t, nu, xi_norm, s, sigma) -> dict:
    """Geometry of the high-frequency parabola; vectorized over s = y + z.

    The parabola must avoid the integrand pole at mu = sigma.  theta = 1/2 is
    selected when the saddle parameter a sits in the danger band
    [sigma/2, 3 sigma/2].  ``t``, ``nu``, ``xi_norm`` and ``sigma`` may be
    (cells, 1) columns against an s row, which gives every cell's geometry
    at once, each value bit for bit the one its own scalar call gives.
    """
    _check_sigma(sigma)
    s = np.asarray(s, dtype=float)
    a = s / (2.0 * nu * t)
    ratio = a / sigma
    theta = np.where((ratio >= 0.5) & (ratio <= 1.5), 0.5, 1.0)
    floor = VERTEX_FLOOR_FRACTION * xi_norm
    # keep the floored vertex away from the pole as well as off the cut
    floor = np.where(np.abs(floor - sigma) < 0.5 * sigma, 0.25 * sigma, floor)
    a_eff = np.maximum(theta * a, floor)
    # The Bromwich line sweeps across the pole mu = sigma exactly when the
    # vertical mu-line Re mu = a_eff ends up left of it; only then does the
    # parabola integral miss the pole contribution and a residue must be
    # added (t -> 0 kills the residue at large a, t -> infinity keeps it).
    crosses = a_eff < sigma
    if np.any(np.abs(a_eff - sigma) < 1e-9 * np.maximum(sigma, 1.0)):
        raise PoleOnContour("parabola passes through the integrand pole")
    b_max = BETA_MAX / np.sqrt(nu * t)
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "sigma": sigma, "a": a,
            "theta": theta, "a_eff": a_eff, "crosses_pole": crosses, "b_max": b_max}


def build_contour_highfreq(t: float, nu: float, xi_norm: float, s, sigma: float) -> Contour:
    """High-frequency parabola for a scalar s or an array of s, around the pole sigma.

    On it the principal root is mu = a_eff + i b (in exact arithmetic).
    ``params["crosses_pole"]`` says for which s the parabola crossed the pole,
    so that the residue must be added.
    """
    params = highfreq_params(t, nu, xi_norm, s, sigma)
    a_eff, b_max = _last(params["a_eff"]), params["b_max"]
    segments = (Segment("parabola", b_max, *_parabola(nu, a_eff, -nu * xi_norm**2)),)
    return Contour(segments=segments, regime="highfreq", params=params)
