"""The deformed Bromwich contour of the adaptive oracle, at every frequency.

The residual (non-heat) part of the per-mode Green's function is the Bromwich
integral (1/2 pi i) int_Gamma exp(lambda t) R_lambda(y, z) dlambda.  The
oracle ``kernels._adaptive_rho`` (``method="adaptive"``) deforms Gamma into
the parabola

    lambda = -nu |xi|^2 + nu (a_eff + i b)^2,   b in R,

the image of the line Re mu = a_eff in mu = sqrt(lambda/nu + |xi|^2)
(Weideman & Trefethen, Math. Comp. 76 (2007) 1341), on which the principal
root is mu = a_eff + i b.  It wraps the branch cut lambda + nu |xi|^2 in
(-inf, 0] at every nu |xi|^2.  a_eff = theta a follows the saddle
a = s / (2 nu t) of exp(lambda t - mu s), s = y + z, so the integrand stays
bounded even for large s^2/(4 nu t); theta in {1, 1/2} and a vertex floor
keep the line off the pole mu = sigma (lambda* = nu (sigma^2 - |xi|^2)), and
the parabola integral plus the residue where the line passes left of the
pole (``crosses_pole``) is the whole Bromwich integral.

No production path reads the contour: the kernels split R = R1 + R2 in
closed form.  Only ``integrate`` needs scipy's ``quad_vec``, so it imports
``scipy.integrate`` on its first call.  The parabola is its own mirror image
under conjugation and the residual integrand satisfies
f(conj lambda) = conj f(lambda), so the Bromwich integral is Im(I) / pi of
the upper half's integral I.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IncompatibleData

__all__ = ["parabola_params", "integrate", "BETA_MAX"]

# The parabola is truncated where exp(-nu b^2 t) = exp(-beta^2) drops below ~1e-16.
BETA_MAX = 6.1

# Keep the parabola vertex strictly right of the branch cut even when the
# saddle parameter a vanishes (s = 0 puts the paper-exact contour on the cut;
# any vertex offset gives the same integral by Cauchy's theorem).
VERTEX_FLOOR_FRACTION = 0.05


def parabola_params(t, nu, xi_norm, s, sigma) -> dict:
    """Geometry of the parabola around the pole mu = sigma; vectorized over s = y + z.

    theta = 1/2 is selected when the saddle parameter a sits in the danger
    band [sigma/2, 3 sigma/2], and a floored vertex within sigma/2 of the
    pole moves to sigma/4, so |a_eff - sigma| >= sigma/4 for every input.
    ``t``, ``nu``, ``xi_norm`` and ``sigma`` may be (cells, 1) columns
    against an s row, which gives every cell's geometry at once, each value
    bit for bit the one its own scalar call gives.  A sigma that is not
    finite and positive raises IncompatibleData.
    """
    if not np.all((0.0 < sigma) & (sigma < math.inf)):
        raise IncompatibleData(f"the pole sigma must be finite and positive, got {sigma}")
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
    b_max = BETA_MAX / np.sqrt(nu * t)
    return {"t": t, "nu": nu, "xi_norm": xi_norm, "s": s, "sigma": sigma, "a": a,
            "theta": theta, "a_eff": a_eff, "crosses_pole": crosses, "b_max": b_max}


def integrate(f, p: dict):
    """(1/2 pi i) * integral of f(lambda) over the parabola of ``p`` (scalar t, nu).

    Requires f(conj lambda) = conj f(lambda), and returns the real Im(I) / pi
    of the upper-half integral I over b in [0, b_max], by adaptive
    Gauss-Kronrod panels (scipy ``quad_vec``).  ``f`` takes lambda with the
    node axis last, after the axes of ``p["a_eff"]``.
    """
    from scipy.integrate import quad_vec

    nu, a = p["nu"], np.asarray(p["a_eff"])[..., None]
    shift = -nu * p["xi_norm"]**2

    def g(b):  # quad_vec passes a scalar b
        mu = a + 1j * b
        return (f(shift + nu * mu**2) * 2j * nu * mu)[..., 0]

    return quad_vec(g, 0.0, p["b_max"], epsabs=1e-13, epsrel=1e-11)[0].imag / np.pi
