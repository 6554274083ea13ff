"""Per-mode numerical engine for the Stokes system on T^2 x R+ in vorticity form.

Resolvent solves, Green's functions (closed form at high frequency, contour
quadrature at low frequency), kernel-bound certification, Biot-Savart
reconstruction and Duhamel evolution, one tangential Fourier mode at a time.
"""

from .biot_savart import (
    check_biot_savart_roundtrip,
    check_trace_identities,
    curl_mode,
    dirichlet_inverse,
    neumann_inverse,
    phi,
)
from .contours import Contour, Segment, build_contour_highfreq, build_contour_lowfreq
from .core import (
    FourierMode,
    HalfLineGrid,
    ModeField,
    SpectralPoint,
    apply_delta_xi,
    projection_matrix,
    spectral_root,
    tangential_projector,
)
from .errors import (
    BranchCutViolation,
    GridTooSmall,
    HypothesisViolated,
    IncompatibleData,
    PoleHit,
    PoleOnContour,
    QuadratureUnderresolved,
    StabilityWarning,
    StokesGreenError,
    TruncationWarning,
    ZeroModeUnsupported,
)
from .kernels import (
    KernelSample,
    green_function,
    heat_kernel_dirichlet,
    heat_kernel_neumann,
    invert_resolvent_kernel,
    mu0_rate,
    residual_kernel_general,
    residual_kernel_time,
    residual_profiles_general,
    residue_at_pole,
    residue_small_circle,
    resolvent_kernel,
    sample_green_function,
    verify_kernel_bounds,
)
from .resolvent import (
    BoundaryOperatorD,
    ResolventSolution,
    check_resolvent_bound,
    resolvent_apply,
    resolvent_apply_general,
)
from .solver import (
    StokesProblem,
    Trajectory,
    crank_nicolson_oracle,
    duhamel_solve,
    finite_difference_resolvent_general,
)

__version__ = "0.1.0"
