"""Extended-precision Bromwich oracles for the kernel tests.

Neither shares code with ``stokesgreen.contours`` or the closed forms:

* ``green_bromwich`` inverts the resolvent kernel H_lambda I_2 + R_lambda D
  by mpmath's fixed Talbot rule (Abate & Valko, IJNME 60 (2004) 979);
* ``circle_residue`` integrates around a small circle by mpmath's adaptive
  quadrature over the angle.

Both work at ``DPS`` digits and return Python or numpy floats.
"""

import mpmath
import numpy as np

from stokesgreen import BoundaryOperatorD

DPS = 30


def _talbot(F, t, c):
    """f(t) for the Laplace transform F whose singularities all lie left of
    Re lambda = c: Talbot's contour wraps the negative real axis, so it
    inverts F(p + c), whose singularities lie left of 0, and multiplies by
    e^{c t}."""
    return mpmath.exp(c * t) * mpmath.invertlaplace(lambda p: F(p + c), t, method="talbot")


def green_bromwich(t, nu, mode, y, z, D=None):
    """G = H I_2 + R D (2x2, real) at one (t, y, z), with D = None no-slip.

    Inverts the heat part (e^{-mu |y-z|} + e^{-mu (y+z)}) / (2 nu mu) and the
    residual part e^{-mu (y+z)} / (nu mu (mu - sigma)),
    mu = sqrt(lambda/nu + |xi|^2), one Talbot inversion each.  The branch
    point -nu |xi|^2 and the pole lambda* = nu (sigma^2 - |xi|^2) both lie
    left of max(lambda*, 0) + 1.
    """
    D = D or BoundaryOperatorD.no_slip(mode)
    with mpmath.workdps(DPS):
        t, nu, y, z, sigma = (mpmath.mpf(v) for v in (t, nu, y, z, D.sigma))
        xi2 = mpmath.mpf(mode.xi1**2 + mode.xi2**2)
        s, d = y + z, abs(y - z)
        c = max(nu * (sigma**2 - xi2), 0) + 1

        def mu(lam):
            return mpmath.sqrt(lam / nu + xi2)

        def heat(lam):
            m = mu(lam)
            return (mpmath.exp(-m * d) + mpmath.exp(-m * s)) / (2 * nu * m)

        def residual(lam):
            m = mu(lam)
            return mpmath.exp(-m * s) / (nu * m * (m - sigma))

        h = float(_talbot(heat, t, c))
        r = float(_talbot(residual, t, c)) if sigma else 0.0
    return h * np.eye(2) + r * D.matrix


def circle_residue(f, center, radius):
    """(1/2 pi i) times the integral of f over the circle |lambda - center| = radius.

    With lambda = center + radius e^{i theta} that is the mean over theta of
    f(lambda) radius e^{i theta}.  ``f`` takes and returns mpmath numbers.
    """
    with mpmath.workdps(DPS):
        center, radius = mpmath.mpc(center), mpmath.mpf(radius)

        def g(theta):
            w = radius * mpmath.expj(theta)
            return f(center + w) * w

        return complex(mpmath.quad(g, [0, mpmath.pi, 2 * mpmath.pi]) / (2 * mpmath.pi))
