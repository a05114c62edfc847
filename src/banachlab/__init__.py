"""Computational geometry of finite-dimensional normed spaces: convexity and
smoothness moduli, duality maps, normal cones of closed sets, rolling-ball
certificates, and hypomonotonicity diagnostics."""

from .norms import (
    DegenerateBody,
    DimensionMismatch,
    NormSpec,
    NotSymmetric,
    ZeroVector,
    dual_norm_batch,
    ellipse_norm,
    lp_norm,
    norm_batch,
    norm_eval,
    pairing,
    polygon_norm,
    sphere_points,
    subdifferential_extremes,
    support_point,
    weighted_lp_norm,
)
from .moduli import (
    ModulusCurve,
    SearchBudget,
    delta_estimate,
    doubling_ratio,
    hilbert_delta,
    hilbert_rho,
    rho_estimate,
    supporting_modulus_estimate,
)
from .psifuncs import (
    NegativeValue,
    NonzeroAtZero,
    NotConvex,
    PreconditionViolated,
    PsiSpec,
    builtin_psi,
    psi_from_curve,
    regularize_psi,
    rescale_psi,
    validate_psi,
)
from .sets import (
    CheckReport,
    ClosedSetSpec,
    EmptyShell,
    InteriorPoint,
    NormalConeSample,
    boundary_sample,
    contains,
    cylinder_extend,
    distance,
    john_ellipse_2d,
    make_ball,
    make_ball_complement,
    make_finite_points,
    make_halfspace,
    make_polytope_complement,
    normal_cone_sample,
    normal_directions,
    project,
    prox_smooth_certificate,
    rolling_ball_check_normal,
    rolling_ball_check_projection,
    shell_sample,
)
from .hypo import (
    ConstructionFailed,
    HypoReport,
    NoFeasiblePairs,
    gamma_estimate,
    hypo_check,
    section_bound_check,
    touching_point_search,
)
from .zoo import (
    DEFAULT_SET_SCALES,
    ZooEntry,
    ambient_norm,
    linf_box_complement,
    norm_zoo,
    sample_inside,
    set_registry,
    set_zoo,
)

__version__ = "0.1.0"
