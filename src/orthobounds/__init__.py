"""Certified counterpart-of-Bessel and Gruss-type bound chains for finite
orthonormal families in real or complex inner product spaces, with a
quadrature-backed weighted-L2 backend and a numerical sharpness search for
the best constant 1/4."""

from .space import (
    COMPLEX,
    DEFAULT_ORTHO_TOL,
    DegeneracyError,
    OrthonormalFamily,
    OrthonormalityReport,
    REAL,
    SpaceContext,
    as_vector,
    family_projection,
    fourier_coefficients,
    gram_schmidt,
    index_set,
    inner_product,
    norm,
    verify_orthonormal,
    zero_vector,
)
from .bounds import (
    BesselBoundReport,
    CoefficientBox,
    CompanionAbsReport,
    CompanionReport,
    ConditionReport,
    GrussBoundReport,
    bessel_residual,
    check_condition,
    companion_abs_bound,
    companion_bound,
    condition_slack_inner,
    condition_slack_norm,
    counterpart_bounds,
    gruss_bounds,
    gruss_deviation,
    instance_scale,
    residual_identity_sides,
    scalar_lemmas_check,
)
from .quadrature import (
    DiscretizedMeasureSpace,
    SandwichConditionError,
    SandwichReport,
    WeightedL2Context,
    build_family,
    counting_measure,
    gauss_legendre,
    l2_sandwich_gruss,
    periodic_trapezoid,
    sample,
    sampled,
    sandwich_box,
    sandwich_check,
)
from .sharpness import (
    ExtremalInstance,
    SearchConfig,
    SharpnessResult,
    extremal_instance,
    maximize_gruss_ratio,
    maximize_residual_ratio,
)
from .generate import (
    Instance,
    PairInstance,
    certified_box_arrays,
    generate_certified_instance,
    generate_certified_pair,
    generate_midpoint_pair,
    generate_twosided_pair,
    generate_unconstrained_instance,
    random_family,
    random_vector,
    rng_from_seed,
)
from .suite import (
    SuiteConfig,
    SuiteOutcome,
    emit_tightness_table,
    run_suite,
)

__version__ = "0.1.0"
