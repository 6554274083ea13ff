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
  integrand at mu = mu_pole (mu_pole = |xi| for the no-slip kernel).  It is
  split at its vertex b = 0 into two segments.  Here R2 is the parabola
  integral and R1 is the residue when the parabola encloses the pole.

Everything is parameterized so that the magnitude of exp(lambda t - mu s) is
bounded along the contour (steepest-descent arms), which keeps the quadrature
well conditioned even for large s^2/(4 nu t).

Each deformation is described once, as the ``Segment`` maps of a ``Contour``.
The maps broadcast over an array of s (s axes first, the node axis last), so
one Contour holds the contours of a whole batch of s.  Two integrators run
over the same segments: ``Contour.gauss_legendre`` (fixed nodes; the
vectorized profiles and the bound certificate) and ``Contour.integrate``
(adaptive panels; the oracles ``residual_kernel_general(method="adaptive")``
and ``invert_resolvent_kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import quad_vec

from .errors import PoleOnContour

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


@dataclass(frozen=True)
class Segment:
    """One smooth piece of a contour: lambda = gamma(p), p in [p0, p1]."""

    name: str
    p0: float
    p1: float
    gamma: Callable[[np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Contour:
    """An upward-oriented contour made of smooth segments.

    ``encloses_pole_at`` records which integrand pole (if any) lies to the
    right of the contour (between it and the Bromwich line), in which case the
    inverse Laplace transform is the contour integral plus that residue;
    ``arc_index`` marks the segment that carries the pole contribution for the
    low-frequency split (None for the high-frequency parabola).
    """

    segments: tuple[Segment, ...]
    encloses_pole_at: complex | None
    regime: str
    params: dict = field(compare=False)
    arc_index: int | None = None

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], segment_indices=None):
        """(1/2 pi i) * integral of f(lambda) over (selected) segments.

        Uses adaptive Gauss-Kronrod panels (scipy ``quad_vec``); ``f`` must be
        vectorized over a 1-D array of lambda values and may return extra
        leading axes (e.g. a stack of integrands).
        """
        if segment_indices is None:
            segment_indices = range(len(self.segments))
        total = None
        for k in segment_indices:
            seg = self.segments[k]

            def g(p, seg=seg):
                pa = np.atleast_1d(p)
                val = f(seg.gamma(pa)) * seg.dgamma(pa)
                return val[..., 0] if np.ndim(p) == 0 else val

            part, _ = quad_vec(g, seg.p0, seg.p1, epsabs=1e-13, epsrel=1e-11)
            total = part if total is None else total + part
        return total / (2.0j * np.pi)

    def gauss_legendre(self, f: Callable[[np.ndarray], np.ndarray],
                       n_arm: int = 256, n_arc: int = 128, segment_indices=None):
        """(1/2 pi i) * integral of f(lambda) over (selected) segments, fixed nodes.

        Gauss-Legendre with ``n_arc`` nodes on the arc segment and ``n_arm``
        on each other segment.  ``f`` receives lambda with the contour's s
        axes first and the node axis last, and returns that shape; the sum
        runs over the node axis.
        """
        if segment_indices is None:
            segment_indices = range(len(self.segments))
        total = None
        for k in segment_indices:
            seg = self.segments[k]
            p, w = _gl(seg.p0, seg.p1, n_arc if k == self.arc_index else n_arm)
            # f(lambda) goes first in its product with the weights: numpy
            # computes a product with a large temporary on the right in place
            # with the operands swapped, and complex multiplication is not
            # bitwise commutative, so the other order would make each value
            # depend on how many s are evaluated together.
            part = np.sum(f(seg.gamma(p)) * (seg.dgamma(p) * w), axis=-1)
            total = part if total is None else total + part
        return total / (2.0j * np.pi)


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


def _parabola(name: str, p0: float, p1: float, nu: float, center, shift) -> Segment:
    """lambda = shift + nu (center + i b)^2 for b in [p0, p1]."""
    return Segment(name, p0, p1,
                   lambda b: shift + nu * (center + 1j * b) ** 2,
                   lambda b: 2j * nu * (center + 1j * b))


# ---------------------------------------------------------------------------
# low frequency


def lowfreq_params(t: float, nu: float, xi_norm: float, s, pole: float = 0.0) -> dict:
    """Geometry of the low-frequency contour; vectorized over s = y + z.

    ``pole`` is the real integrand pole lambda* the half circle must enclose
    (0 for the no-slip kernel).  The radius M = 1.25 |c0 - lambda*| +
    max(nu |xi|^2, 0.5/t) keeps the pole strictly inside, and grows with
    |c0| so that exp(lambda t - mu s) stays bounded on the half circle; a
    fixed multiple of max(nu a^2, ...) as the radius would overflow exp(M t)
    for large a.
    """
    s = np.asarray(s, dtype=float)
    a = s / (2.0 * nu * t)
    c_arm = -0.5 * nu * xi_norm**2
    c0 = c_arm + nu * a**2
    M = 1.25 * np.abs(c0 - pole) + max(nu * xi_norm**2, 0.5 / t)
    b_max = BETA_MAX / np.sqrt(nu * t)
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "a": a,
            "c_arm": c_arm, "c0": c0, "M": M, "b_max": b_max}


def build_contour_lowfreq(t: float, nu: float, xi_norm: float, s,
                          M: float | None = None, pole: float = 0.0) -> Contour:
    """Low-frequency contour for a scalar s or an array of s.

    ``M`` overrides the default radius (used by the contour-independence
    checks: any admissible radius gives the same integral); PoleOnContour is
    raised unless the override radius encloses the pole for every s.
    """
    params = lowfreq_params(t, nu, xi_norm, s, pole=pole)
    if M is not None:
        if np.any(np.abs(params["c0"] - pole) >= M):
            raise PoleOnContour(f"override radius M does not enclose the pole {pole}")
        params = dict(params, M=M)
    a, c0, M = _last(params["a"]), _last(params["c0"]), _last(params["M"])
    c_arm, b_max = params["c_arm"], params["b_max"]

    arc = Segment(
        "arc", -0.5 * np.pi, 0.5 * np.pi,
        lambda th: c0 + M * np.exp(1j * th),
        lambda th: 1j * M * np.exp(1j * th),
    )
    segments = (_parabola("arm_minus", -b_max, 0.0, nu, a, c_arm - 1j * M), arc,
                _parabola("arm_plus", 0.0, b_max, nu, a, c_arm + 1j * M))
    return Contour(segments=segments, encloses_pole_at=complex(pole),
                   regime="lowfreq", params=params, arc_index=1)


# ---------------------------------------------------------------------------
# high frequency


def highfreq_params(t: float, nu: float, xi_norm: float, s,
                    pole_mu: float | None = None) -> dict:
    """Geometry of the high-frequency parabola; vectorized over s = y + z.

    ``pole_mu`` is the location (in the mu variable) of the integrand pole the
    parabola must avoid; mu = |xi| (i.e. lambda = 0) for the no-slip kernel.
    theta = 1/2 is selected when the saddle parameter a sits in the danger
    band [pole_mu/2, 3 pole_mu/2].
    """
    if pole_mu is None:
        pole_mu = xi_norm
    s = np.asarray(s, dtype=float)
    a = s / (2.0 * nu * t)
    if pole_mu > 0.0:
        ratio = a / pole_mu
        theta = np.where((ratio >= 0.5) & (ratio <= 1.5), 0.5, 1.0)
    else:
        theta = np.ones_like(a)
    floor = VERTEX_FLOOR_FRACTION * xi_norm
    # keep the floored vertex away from the pole as well as off the cut
    if pole_mu > 0.0 and abs(floor - pole_mu) < 0.5 * pole_mu:
        floor = 0.25 * pole_mu
    a_eff = np.maximum(theta * a, floor)
    # The Bromwich line sweeps across the pole mu = pole_mu exactly when the
    # vertical mu-line Re mu = a_eff ends up left of it; only then does the
    # parabola integral miss the pole contribution and a residue must be
    # added (t -> 0 kills the residue at large a, t -> infinity keeps it).
    crosses = a_eff < pole_mu if pole_mu > 0.0 else np.zeros(a.shape, dtype=bool)
    if pole_mu > 0.0 and np.any(np.abs(a_eff - pole_mu) < 1e-9 * max(pole_mu, 1.0)):
        raise PoleOnContour("parabola passes through the integrand pole")
    b_max = BETA_MAX / np.sqrt(nu * t)
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "a": a,
            "theta": theta, "a_eff": a_eff, "pole_mu": pole_mu,
            "crosses_pole": crosses, "b_max": b_max}


def build_contour_highfreq(t: float, nu: float, xi_norm: float, s,
                           pole_mu: float | None = None) -> Contour:
    """High-frequency parabola for a scalar s or an array of s.

    On it the principal root satisfies mu = a_eff + i b exactly.
    ``encloses_pole_at`` is the pole when the parabola crossed it for some s;
    ``params["crosses_pole"]`` says for which s.
    """
    params = highfreq_params(t, nu, xi_norm, s, pole_mu=pole_mu)
    a_eff, b_max = _last(params["a_eff"]), params["b_max"]
    vertex = -nu * xi_norm**2

    segments = (_parabola("parabola_minus", -b_max, 0.0, nu, a_eff, vertex),
                _parabola("parabola_plus", 0.0, b_max, nu, a_eff, vertex))
    crosses = np.any(params["crosses_pole"])
    encl = complex(vertex + nu * params["pole_mu"] ** 2) if crosses else None
    return Contour(segments=segments, encloses_pole_at=encl,
                   regime="highfreq", params=params, arc_index=None)
