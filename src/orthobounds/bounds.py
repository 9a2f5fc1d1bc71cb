"""Certified bound chains for truncated orthonormal expansions.

Everything here revolves around a coefficient box: per-index scalar pairs
(phi_i, Phi_i) constraining a vector x through two equivalent conditions,

    (i)   Re< sum_F Phi_i e_i - x, x - sum_F phi_i e_i >  >=  0,
    (ii)  ||x - sum_F (phi_i + Phi_i)/2 e_i||  <=  (1/2) (sum_F |Phi_i - phi_i|^2)^(1/2),

and two bound chains built on them:

* the Bessel-residual chain
    0 <= ||x||^2 - sum_F |<x, e_i>|^2 <= 1/4 sum_F |Phi_i - phi_i|^2 - slack
      <= 1/4 sum_F |Phi_i - phi_i|^2,
* the Gruss-deviation chain bounding |<x,y> - sum_F <x,e_i><e_i,y>| by the
  product form 1/4 (sum|Phi-phi|^2)^(1/2) (sum|Gamma-gamma|^2)^(1/2) minus a
  product of condition-slack square roots.

The constant 1/4 is sharp in every chain; :mod:`orthobounds.sharpness`
confirms that numerically.

Condition failure never aborts a computation: reports carry
``certified=False`` together with the numeric values so that near-misses
stay inspectable.  Each chain report's ``margin`` is its tightest link, the
one number the suite and the CLI compare with an allowance.

Every public function validates its inputs once, at the edge (``_validated``),
then computes each quantity once, on arrays, in a private kernel over the
selected member rows: each vector's coefficients <x, e_i> by one matvec with
the weights folded in, ||x||^2, both condition slacks, and from them the
residual and the deviation, which take the coefficients as arguments.  The
kernel takes stacks (a leading batch axis over instances, or none): the suite
runs it on a whole cell, a public function on one instance, whose report it
converts to Python scalars.  Public functions never call one another.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .space import (
    OrthonormalFamily,
    SpaceContext,
    Vector,
    _coefficients,
    _combine,
    _dot,
    _inner,
    _integer,
    _modulus,
    _norm,
    _norm_sq,
    _tolerance,
    allowance,
    as_vector,
    index_set,
    require_certified,
)

#: Largest accepted squared norm of an input vector or box endpoint vector;
#: see ``_validated`` for why it keeps every kernel quantity finite.
_MAX_SQUARED_NORM = np.finfo(float).max / 16


@dataclass(frozen=True, eq=False)
class CoefficientBox:
    """Per-index scalar bounds (phi_i, Phi_i) over a fixed index set.

    ``indices`` are 0-based member positions; the constructor's ``lower`` and
    ``upper`` are aligned with them and stored once, as the read-only complex
    arrays ``lower_array`` / ``upper_array``.  ``half_diameter_sq`` =
    (1/4) sum_i |Phi_i - phi_i|^2 and ``endpoint_norm_sq`` =
    max(sum_i |phi_i|^2, sum_i |Phi_i|^2) are computed at construction;
    non-finite endpoints, or a diameter sum that overflows, raise ValueError.
    """

    indices: tuple[int, ...]
    lower: InitVar[Sequence[complex]]
    upper: InitVar[Sequence[complex]]
    lower_array: np.ndarray = field(init=False)
    upper_array: np.ndarray = field(init=False)
    half_diameter_sq: float = field(init=False)
    endpoint_norm_sq: float = field(init=False)

    def __post_init__(self, lower, upper) -> None:
        object.__setattr__(self, "indices", tuple(_integer("each index", i) for i in self.indices))
        if not self.indices:
            raise ValueError("box must cover a nonempty index set")
        for name, values in (("lower_array", lower), ("upper_array", upper)):
            endpoints = np.array(values, dtype=np.complex128)
            if endpoints.shape != (len(self.indices),):
                raise ValueError("lower/upper must have exactly one entry per index")
            if not np.isfinite(endpoints).all():
                raise ValueError("box endpoints must be finite")
            endpoints.setflags(write=False)
            object.__setattr__(self, name, endpoints)
        # An overflowed sum is inf or NaN, which the test below and the size
        # guard of ``_validated`` reject (np.maximum keeps a NaN), so
        # np.vecdot's overflow and invalid-value warnings are silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            half_diameter_sq = float(_half_diameter_sq(self.lower_array, self.upper_array))
            endpoint_norm_sq = np.maximum(*(_dot(a, a).real for a in (self.lower_array, self.upper_array)))
        if not np.isfinite(half_diameter_sq):
            raise ValueError("box is too wide: sum |Phi_i - phi_i|^2 overflows")
        object.__setattr__(self, "half_diameter_sq", half_diameter_sq)
        object.__setattr__(self, "endpoint_norm_sq", float(endpoint_norm_sq))

    @classmethod
    def centered(
        cls,
        indices: Sequence[int],
        midpoints: Sequence[complex],
        half_widths: Sequence[complex],
    ) -> "CoefficientBox":
        """Box with endpoints midpoint -/+ half_width per index; like the
        endpoints, each must have exactly one entry per index (nothing is
        broadcast)."""
        mids = np.asarray(midpoints, dtype=np.complex128)
        hw = np.asarray(half_widths, dtype=np.complex128)
        if mids.shape != hw.shape:
            raise ValueError("midpoints/half_widths must have the same shape, one entry per index")
        return cls(indices, mids - hw, mids + hw)


class _Boxes(NamedTuple):
    """Coefficient boxes stacked along leading axes: the endpoint arrays
    (..., F) and half_diameter_sq (...) the kernel reads of a CoefficientBox,
    unvalidated (the suite's generated boxes are valid by construction): a
    validating CoefficientBox with a batch axis cost verify-grid 2.6-8.6%
    (8 of 8 alternating runs) and ``generate_certified_pair`` 15-24% per call."""

    lower_array: np.ndarray
    upper_array: np.ndarray
    half_diameter_sq: np.ndarray

    @classmethod
    def centered(cls, midpoints: np.ndarray, half_widths: np.ndarray) -> "_Boxes":
        lower, upper = midpoints - half_widths, midpoints + half_widths
        return cls(lower, upper, _half_diameter_sq(lower, upper))


def _half_diameter_sq(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """(1/4) sum_i |Phi_i - phi_i|^2."""
    diff = upper - lower
    return 0.25 * _dot(diff, diff).real


@dataclass(frozen=True)
class ConditionReport:
    """Both slack forms of the box condition, plus the certification verdict.

    ``slack_inner`` = Re< sum Phi_i e_i - x, x - sum phi_i e_i >, computed as
    written and never clamped, so a violated condition shows up negative;
    ``slack_norm`` = (1/2)(sum |Phi_i - phi_i|^2)^(1/2)
    - ||x - sum (phi_i+Phi_i)/2 e_i||, nonnegative exactly when the norm form
    holds.  ``holds`` is decided by the inner-product slack alone (that is the
    quantity the refined bounds subtract); the norm slack is diagnostic.
    """

    slack_inner: float
    slack_norm: float
    holds: bool
    tolerance: float


class _Report:
    """Flat dict view of a chain report: a field ``condition<suffix>`` becomes
    ``slack_inner<suffix>`` and ``slack_norm<suffix>``, a complex field becomes
    ``[re, im]`` plus its modulus as ``<name>_abs``, other fields keep their name."""

    def to_dict(self) -> dict:
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, ConditionReport):
                suffix = name.removeprefix("condition")
                out["slack_inner" + suffix] = value.slack_inner
                out["slack_norm" + suffix] = value.slack_norm
            elif isinstance(value, complex):
                out[name] = [value.real, value.imag]
                out[name + "_abs"] = abs(value)
            else:
                out[name] = value
        return out


@dataclass(frozen=True)
class BesselBoundReport(_Report):
    """Residual chain report: 0 <= residual <= refined <= coarse when certified."""

    residual: float
    refined: float
    coarse: float
    condition: ConditionReport
    certified: bool

    @property
    def margin(self) -> float:
        """The tightest link: min(residual, refined - residual, coarse - refined)."""
        return _least(self.residual, self.refined - self.residual, self.coarse - self.refined)


@dataclass(frozen=True)
class GrussBoundReport(_Report):
    """Deviation chain report: |deviation| <= refined <= coarse when certified."""

    deviation: complex
    refined: float
    coarse: float
    condition_x: ConditionReport
    condition_y: ConditionReport
    certified: bool

    @property
    def deviation_abs(self) -> float:
        return _modulus(self.deviation)

    @property
    def margin(self) -> float:
        """The tightest link: min(refined - |deviation|, coarse - refined, refined)."""
        return _least(self.refined - self.deviation_abs, self.coarse - self.refined, self.refined)


@dataclass(frozen=True)
class CompanionReport(_Report):
    """Bound on Re(deviation) certified by a box condition at (x+y)/2."""

    re_deviation: float
    bound: float
    condition: ConditionReport
    certified: bool

    @property
    def margin(self) -> float:
        return self.bound - self.re_deviation


@dataclass(frozen=True)
class CompanionAbsReport(_Report):
    """Two-sided bound on |Re(deviation)|, needing both (x+y)/2 and (x-y)/2
    to satisfy the box condition."""

    abs_re_deviation: float
    bound: float
    condition_sum: ConditionReport
    condition_diff: ConditionReport
    certified: bool

    @property
    def margin(self) -> float:
        return self.bound - self.abs_re_deviation


def instance_scale(ctx: SpaceContext, x: Vector, box: CoefficientBox) -> float:
    """Magnitude reference for relative tolerances: ||x||^2 + half_diameter^2."""
    return float(_instance_scale(_norm_sq(ctx, as_vector(ctx, x)), box))


def pair_scale(
    ctx: SpaceContext, x: Vector, y: Vector, box_x: CoefficientBox, box_y: CoefficientBox
) -> float:
    """Magnitude reference for the two-vector chains: ||x||^2 + ||y||^2 plus both
    half_diameter^2 terms, the size at which ``refined`` cancels."""
    norm_sq_x, norm_sq_y = (_norm_sq(ctx, as_vector(ctx, v)) for v in (x, y))
    return float(_pair_scale(norm_sq_x, norm_sq_y, box_x, box_y))


def check_condition(
    ctx: SpaceContext,
    x: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    box: CoefficientBox,
    tol: float | None = None,
) -> ConditionReport:
    """Evaluate both slack forms and certify on the inner-product slack.

    ``tol`` is an absolute slack tolerance, a finite real number >= 0; by
    default it is the rounding term of ``space.allowance`` at scale
    ||x||^2 + half_diameter^2.
    """
    if tol is not None:
        tol = _tolerance("tol", tol)
    (x,), (norm_sq,), rows = _validated(ctx, fam, indices, (x,), (box,))
    return _scalars(_condition(ctx, x, norm_sq, rows, box, tol))


def residual_identity_sides(
    ctx: SpaceContext,
    x: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    box: CoefficientBox,
) -> tuple[float, float]:
    """Both sides of the residual decomposition identity

        ||x||^2 - sum_F |<x,e_i>|^2
            = sum_F Re[(Phi_i - <x,e_i>)(conj(<x,e_i>) - conj(phi_i))] - slack_inner.

    Returned as (left, right) so the two evaluation routes can be compared;
    they agree to roundoff for exactly orthonormal families.  The right side
    takes ``slack_inner`` from the vectors, as written, so it is a second route.
    """
    (x,), (norm_sq,), rows = _validated(ctx, fam, indices, (x,), (box,))
    c = _coefficients(ctx, x, rows)
    return float(_residual(norm_sq, c)), float(_identity_right(ctx, x, c, rows, box))


def counterpart_bounds(
    ctx: SpaceContext,
    x: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    box: CoefficientBox,
) -> BesselBoundReport:
    """Residual chain: residual <= coarse - slack_inner <= coarse.

    ``coarse`` = (1/4) sum_F |Phi_i - phi_i|^2.  The report is produced even
    when the box condition fails; ``certified`` records whether the chain is
    applicable.
    """
    (x,), (norm_sq,), rows = _validated(ctx, fam, indices, (x,), (box,))
    condition = _condition(ctx, x, norm_sq, rows, box)
    return _scalars(_counterpart(norm_sq, _coefficients(ctx, x, rows), box, condition))


def gruss_bounds(
    ctx: SpaceContext,
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    box_x: CoefficientBox,
    box_y: CoefficientBox,
) -> GrussBoundReport:
    """Deviation chain with product-form bounds.

    coarse  = 1/4 (sum|Phi-phi|^2)^(1/2) (sum|Gamma-gamma|^2)^(1/2)
    refined = coarse - sqrt(max(slack_x, 0)) * sqrt(max(slack_y, 0))

    The clamps keep ``refined`` defined when a slack sits at -epsilon within
    tolerance; certification still requires both conditions to hold.
    """
    (x, y), (norm_sq_x, norm_sq_y), rows = _validated(
        ctx, fam, indices, (x, y), (box_x, box_y)
    )
    condition_x = _condition(ctx, x, norm_sq_x, rows, box_x)
    condition_y = _condition(ctx, y, norm_sq_y, rows, box_y)
    deviation = _deviation(ctx, x, y, _coefficients(ctx, x, rows), _coefficients(ctx, y, rows))
    return _scalars(_gruss(box_x, box_y, condition_x, condition_y, deviation))


def companion_bound(
    ctx: SpaceContext,
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    box: CoefficientBox,
) -> CompanionReport:
    """Re(deviation) <= (1/4) sum_F |Phi_i - phi_i|^2, certified by the box
    condition evaluated at the midpoint (x+y)/2."""
    (x, y), _, rows = _validated(ctx, fam, indices, (x, y), (box,))
    midpoint = 0.5 * (x + y)
    condition = _condition(ctx, midpoint, _norm_sq(ctx, midpoint), rows, box)
    deviation = _deviation(ctx, x, y, _coefficients(ctx, x, rows), _coefficients(ctx, y, rows))
    return _scalars(_companion(box, condition, deviation))


def companion_abs_bound(
    ctx: SpaceContext,
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    box: CoefficientBox,
) -> CompanionAbsReport:
    """|Re(deviation)| <= (1/4) sum_F |Phi_i - phi_i|^2, certified when both
    (x+y)/2 and (x-y)/2 satisfy the box condition.

    In a real context with real box endpoints this is the two-sided
    Gruss-type bound with m_i = phi_i, M_i = Phi_i.
    """
    (x, y), _, rows = _validated(ctx, fam, indices, (x, y), (box,))
    half_sum, half_diff = 0.5 * (x + y), 0.5 * (x - y)
    condition_sum = _condition(ctx, half_sum, _norm_sq(ctx, half_sum), rows, box)
    condition_diff = _condition(ctx, half_diff, _norm_sq(ctx, half_diff), rows, box)
    deviation = _deviation(ctx, x, y, _coefficients(ctx, x, rows), _coefficients(ctx, y, rows))
    return _scalars(_companion_abs(box, condition_sum, condition_diff, deviation))


def _validated(
    ctx, fam, indices, vectors, boxes=()
) -> tuple[list[Vector], list[float], np.ndarray]:
    """The edge checks; returns the vectors, their squared norms and
    rows = fam.members[indices]."""
    require_certified(fam)
    idx = index_set(indices, fam.size)
    real = not ctx.is_complex
    for box in boxes:
        if box.indices != idx:
            raise ValueError(f"box covers indices {box.indices}, expected {idx}")
        if real and (np.count_nonzero(box.lower_array.imag) or np.count_nonzero(box.upper_array.imag)):
            raise ValueError("real-field box has a nonzero imaginary part")
    vectors = [as_vector(ctx, v) for v in vectors]
    # Size guard.  Let M^2 be the largest of ||v||^2 over the vectors and of
    # ||phi||^2, ||Phi||^2 over the box endpoints.  A certified family has
    # F * gram_defect <= 1 (its tolerance is at most 1/size), so
    # ||sum_F c_i e_i|| <= sqrt(2) ||c||, every vector the kernel forms
    # (v - sum Phi_i e_i, (x +- y)/2, ...) has norm at most (1 + sqrt(2)) M
    # and every value it returns is bounded by a product of two such norms
    # plus M^2, that is by 7 M^2 (refined = coarse - slack_inner is the
    # largest).  M^2 < finfo.max / 16 keeps all of them finite.  A squared
    # norm that overflows is inf or NaN, which the comparison of each value
    # also rejects, so np.vecdot's overflow and invalid-value warnings are
    # silenced here.
    with np.errstate(over="ignore", invalid="ignore"):
        norms_sq = [float(_norm_sq(ctx, v)) for v in vectors]
    if not all(v < _MAX_SQUARED_NORM for v in norms_sq + [box.endpoint_norm_sq for box in boxes]):
        raise ValueError(
            "inputs too large: squared norms of the vectors and box endpoints "
            f"must stay below {_MAX_SQUARED_NORM:.3e}"
        )
    return vectors, norms_sq, fam.members[list(idx)]


def _scalars(report):
    """A kernel report over no batch axis, with every field a Python scalar."""
    return type(report)(**{
        name: _scalars(value) if isinstance(value, ConditionReport) else np.asarray(value).item()
        for name, value in vars(report).items()
    })


# The kernel.  ``x``/``y`` are stacks of vectors (..., d), ``rows`` the selected
# members (..., F, d), ``norm_sq`` the vectors' squared norms, ``c`` (``c_x``,
# ``c_y``) their coefficients <v, e_i> (..., F) and ``box`` a CoefficientBox or
# _Boxes of matching stack shape.  Each operation is the same numpy call on a
# stack and on one of its rows, so the stacked values are the per-instance ones
# bit for bit.  The kernels take the coefficients, and the chain kernels their
# box conditions and deviation, as arguments: a public function computes them
# first, and ``suite`` computes a cell's coefficients in one ``_coefficients``
# call over all its vectors and its conditions in one ``_condition`` call over
# all its (vector, box) pairs.


def _instance_scale(norm_sq, box):
    """||x||^2 + half_diameter^2, the scale ``space.allowance`` derives."""
    return norm_sq + box.half_diameter_sq


def _pair_scale(norm_sq_x, norm_sq_y, box_x, box_y):
    return norm_sq_x + norm_sq_y + box_x.half_diameter_sq + box_y.half_diameter_sq


def _slack_inner(ctx, x, rows, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return _inner(ctx, _combine(upper, rows) - x, x - _combine(lower, rows)).real


def _condition(ctx, x, norm_sq, rows, box, tol=None) -> ConditionReport:
    lower, upper, half_diameter_sq = box.lower_array, box.upper_array, box.half_diameter_sq
    slack_inner = _slack_inner(ctx, x, rows, lower, upper)
    midpoint = _combine(0.5 * (lower + upper), rows)
    slack_norm = 0.5 * np.sqrt(4.0 * half_diameter_sq) - _norm(ctx, x - midpoint)
    if tol is None:
        # the rounding term only: the slack is computed from the vectors as
        # written, so the Gram defect does not enter it
        tol = allowance(_instance_scale(norm_sq, box), ctx.dimension + rows.shape[-2])
    return ConditionReport(slack_inner, slack_norm, slack_inner >= -tol, tol)


def _residual(norm_sq, coeffs: np.ndarray) -> np.ndarray:
    # np.add.reduce is np.sum without its Python wrapper, which costs the
    # sharpness search's residual evaluation about 5%
    return norm_sq - np.add.reduce(np.abs(coeffs) ** 2, axis=-1)


def _deviation(ctx, x, y, c_x, c_y) -> np.ndarray:
    return _inner(ctx, x, y) - _dot(c_x, c_y)


def _identity_right(ctx, x, c, rows, box):
    """The residual identity's right side; its left side is the residual."""
    lower, upper = box.lower_array, box.upper_array
    return _dot(upper - c, c - lower).real - _slack_inner(ctx, x, rows, lower, upper)


def _counterpart(norm_sq, c, box, condition) -> BesselBoundReport:
    coarse = box.half_diameter_sq
    return BesselBoundReport(
        residual=_residual(norm_sq, c),
        refined=coarse - condition.slack_inner,
        coarse=coarse,
        condition=condition,
        certified=condition.holds,
    )


def _gruss(box_x, box_y, condition_x, condition_y, deviation) -> GrussBoundReport:
    coarse = 0.25 * (
        np.sqrt(4.0 * box_x.half_diameter_sq) * np.sqrt(4.0 * box_y.half_diameter_sq)
    )
    refined = coarse - np.sqrt(np.maximum(condition_x.slack_inner, 0.0)) * np.sqrt(
        np.maximum(condition_y.slack_inner, 0.0)
    )
    return GrussBoundReport(
        deviation=deviation,
        refined=refined,
        coarse=coarse,
        condition_x=condition_x,
        condition_y=condition_y,
        certified=condition_x.holds & condition_y.holds,
    )


def _least(first, *rest):
    """The least of the values elementwise, keeping the first of equal ones
    (so a tie between 0.0 and -0.0 keeps the earlier zero); a Python float
    when there is no batch axis, so a public report's ``margin`` is one."""
    for value in rest:
        first = np.where(value < first, value, first)
    return first if first.ndim else float(first)


def _companion(box, condition, deviation) -> CompanionReport:
    return CompanionReport(
        re_deviation=deviation.real,
        bound=box.half_diameter_sq,
        condition=condition,
        certified=condition.holds,
    )


def _companion_abs(box, condition_sum, condition_diff, deviation) -> CompanionAbsReport:
    return CompanionAbsReport(
        abs_re_deviation=np.abs(deviation.real),
        bound=box.half_diameter_sq,
        condition_sum=condition_sum,
        condition_diff=condition_diff,
        certified=condition_sum.holds & condition_diff.holds,
    )


def scalar_lemmas_check(
    a: complex, b: complex, m: float, n: float, p: float, q: float
) -> tuple[bool, bool]:
    """Truth of the two scalar inequalities the bound proofs rest on:

        Re[a * conj(b)] <= (1/4) |a + b|^2
        (m^2 - n^2)(p^2 - q^2) <= (mp - nq)^2

    Exposed so the building blocks can be fuzzed independently of the
    vector-level chains.  Both sides are evaluated as written; comparisons
    allow a few ulps so the algebraic equality cases (a = b, mq = np) do not
    flip on rounding.
    """
    a = complex(a)
    b = complex(b)
    lhs1 = (a * b.conjugate()).real
    rhs1 = 0.25 * abs(a + b) ** 2
    lhs2 = (m * m - n * n) * (p * p - q * q)
    rhs2 = (m * p - n * q) ** 2
    eps = 16.0 * np.finfo(float).eps
    first = lhs1 <= rhs1 + eps * max(1.0, abs(lhs1), abs(rhs1))
    second = lhs2 <= rhs2 + eps * max(1.0, abs(lhs2), abs(rhs2))
    return first, second
