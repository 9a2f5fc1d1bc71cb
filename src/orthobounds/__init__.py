"""Certified counterpart-of-Bessel and Gruss-type bound chains for finite
orthonormal families in real or complex inner product spaces, with a
quadrature-backed weighted-L2 backend and a numerical sharpness search for
the best constant 1/4.

The package exports what the README library sketch and the acceptance suite
use; everything else is imported from the module that defines it.
"""

from .space import (
    COMPLEX,
    REAL,
    OrthonormalFamily,
    SpaceContext,
    as_vector,
    gram_schmidt,
    norm,
)
from .bounds import (
    CoefficientBox,
    check_condition,
    companion_abs_bound,
    companion_bound,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
    residual_identity_sides,
    scalar_lemmas_check,
)
from .quadrature import sample, sandwich_box, sandwich_check
from .sharpness import (
    SearchConfig,
    extremal_instance,
    maximize_gruss_ratio,
    maximize_residual_ratio,
)

__version__ = "0.1.0"
