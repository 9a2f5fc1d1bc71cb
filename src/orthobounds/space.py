"""Inner product space substrate shared by the coordinate and quadrature backends.

Scalars are plain ``complex`` values; a context tagged ``field="real"`` requires
every imaginary part to be exactly zero, so real spaces run through the same
formulas with all conjugations acting as no-ops.  The inner product is linear
in its first argument and conjugates the second:

    <x, y> = sum_k w_k * x_k * conj(y_k)

with w identically 1 for the coordinate backend and w the effective quadrature
weights for the weighted backend (see :mod:`orthobounds.quadrature`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

REAL = "real"
COMPLEX = "complex"

#: Default certification tolerance for orthonormal families.  An order looser
#: than double-precision accumulation error at the dimensions this library
#: targets (<= a few hundred).
DEFAULT_ORTHO_TOL = 1e-10

#: Pivot norms below ``rank_drop_factor * max(input norms)`` abort
#: orthonormalization with a DegeneracyError.
RANK_DROP_FACTOR = 1e-12

#: Unit roundoff u of binary64 arithmetic.
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2

#: Rounding-error multiple K of :func:`allowance`, counted in its derivation.
_ROUNDING_MULTIPLE = 16

#: The smallest positive subnormal double, 2^-1074: twice the largest
#: absolute error of a product that underflows.
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)

Vector = np.ndarray


class DegeneracyError(ValueError):
    """Input vectors are numerically rank deficient (or a weight pattern
    leaves too little mass to normalize against)."""


@dataclass(frozen=True, eq=False)
class SpaceContext:
    """Ambient space description: scalar field, dimension and backend weights.

    ``weights is None`` selects the plain coordinate backend.  A weight vector
    (nonnegative, not identically zero) turns the same formulas into a
    discretized weighted-L2 inner product.
    """

    field: str
    dimension: int
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        _field(self.field)
        object.__setattr__(self, "dimension", _count("dimension", self.dimension))
        if self.weights is not None:
            w = np.array(self.weights, dtype=float)
            if w.shape != (self.dimension,):
                raise ValueError("weights length must equal the dimension")
            if not np.all(np.isfinite(w)) or np.any(w < 0.0):
                raise ValueError("weights must be finite and nonnegative")
            if not np.any(w > 0.0):
                raise ValueError("weights must not be identically zero")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    @property
    def is_complex(self) -> bool:
        return self.field == COMPLEX


def _integer(name: str, value, what: str = "an integer") -> int:
    """The one integer rule of every size, count, index and seed: a
    ``numbers.Integral`` that is not a bool, as an int (``int()`` would also
    take 0.9, "1" and True); else ValueError saying ``name`` must be ``what``
    and ending with the bad value."""
    if type(value) is int:  # skips the ABC check, run per index of every box
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _count(name: str, value) -> int:
    """The one rule of every size and count: an integer (``_integer``) that
    is at least 1."""
    what = "a positive integer"
    if _integer(name, value, what) < 1:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _field(value) -> None:
    """The one rule of every field tag: ``REAL`` or ``COMPLEX``."""
    if not isinstance(value, str) or value not in (REAL, COMPLEX):
        raise ValueError(f"field must be {REAL!r} or {COMPLEX!r}, got {value!r}")


def as_vector(ctx: SpaceContext, coords: Iterable[complex]) -> Vector:
    """Validate and freeze coordinates as a vector of ``ctx``.

    Rejects dimension mismatches, non-finite entries and (for real contexts)
    any nonzero imaginary part.
    """
    v = _validated_coords(ctx, coords, 1)
    v.setflags(write=False)
    return v


def _validated_coords(ctx: SpaceContext, coords, ndim: int) -> np.ndarray:
    """Checked complex copy of one vector (``ndim`` 1) or a stack of rows (2)."""
    v = np.array(coords, dtype=np.complex128)
    if v.ndim != ndim or v.shape[-1] != ctx.dimension:
        raise ValueError(
            f"vector has shape {v.shape}, context dimension is {ctx.dimension}"
        )
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if not ctx.is_complex and v.imag.any():
        raise ValueError("real-field vector has a nonzero imaginary part")
    return v


def inner_product(ctx: SpaceContext, x: Vector, y: Vector) -> complex:
    """<x, y>: linear in ``x``, conjugate-linear in ``y``."""
    return complex(_inner(ctx, as_vector(ctx, x), as_vector(ctx, y)))


def norm(ctx: SpaceContext, x: Vector) -> float:
    """||x|| = sqrt(Re <x, x>)."""
    return float(_norm(ctx, as_vector(ctx, x)))


# Array arithmetic on validated shapes.  Every function takes stacks: vectors
# are the last axis, members the last two, and any leading axes are a batch
# (none for a single instance).  The three products, <x, y>, the coefficients
# <x, e_i> and the combination sum_i c_i e_i, are one numpy gufunc call each
# (np.vecdot, np.matvec), which loops the same inner kernel over every batch
# shape: a stacked result equals the single-instance one bit for bit, and a
# single vector pays no extra views.  No other module spells a product.  The
# weights fold into the first argument.


def _weighted(ctx: SpaceContext, x: np.ndarray) -> np.ndarray:
    return x if ctx.weights is None else ctx.weights * x


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x_k conj(y_k) over the last axis."""
    return np.vecdot(y, x)


def _inner(ctx: SpaceContext, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _dot(_weighted(ctx, x), y)


def _norm_sq(ctx: SpaceContext, x: np.ndarray) -> np.ndarray:
    return _dot(_weighted(ctx, x), x).real


def _norm(ctx: SpaceContext, x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(_norm_sq(ctx, x), 0.0))


def _modulus(z):
    """|z| for a complex scalar or stack, the same bits on both.

    A scalar ``abs`` (of a numpy or a Python complex) is libm's ``hypot``, but
    ``np.abs`` of a complex array is not: on numpy 2.4 the two differ in the
    last bit for about a third of random values.  The sharpness search takes
    each candidate's |deviation| through this function, so its stacked poll
    keeps the trajectories of the climb that took a scalar ``abs`` of one
    state at a time."""
    return np.hypot(np.real(z), np.imag(z))


def _coefficients(ctx: SpaceContext, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """<x, e_i> for every row e_i of ``rows``, as one matvec per vector."""
    return np.matvec(rows.conj(), _weighted(ctx, x))


def _combine(coefficients: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i c_i e_i, as one matvec on the transposed rows per coefficient row."""
    return np.matvec(rows.mT, coefficients)


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """Ordered finite family of unit vectors with a Gram-matrix certificate.

    ``gram_defect`` is max_{i,j} |<e_i, e_j> - delta_ij| as measured at
    construction time by ``from_members`` or ``gram_schmidt``.  The
    constructor trusts a defect of 0 or more (or NaN, which never certifies)
    and rejects a negative or non-real one.  The family counts as certified
    while the defect stays within ``tolerance``.  Members are stored as the
    rows of a read-only matrix.
    ``tolerance`` must lie in [0, 1/size]: the bound chains' size guard
    relies on size * gram_defect <= 1 for a certified family.
    """

    members: np.ndarray
    gram_defect: float
    tolerance: float = DEFAULT_ORTHO_TOL

    def __post_init__(self) -> None:
        m = np.asarray(self.members, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError("members must be a nonempty (count x dimension) matrix")
        tolerance = _tolerance("family tolerance", self.tolerance)
        if tolerance > 1.0 / m.shape[0]:
            raise ValueError(
                f"family tolerance {tolerance!r} must lie in [0, 1/size] = "
                f"[0, {1.0 / m.shape[0]:.6g}]"
            )
        object.__setattr__(self, "tolerance", tolerance)
        # a NaN or +inf defect is what from_members measures for an
        # overflowing family, and it is never certified
        defect = self.gram_defect
        if not isinstance(defect, numbers.Real) or isinstance(defect, bool) or defect < 0:
            raise ValueError(f"gram_defect must be a real number >= 0, got {defect!r}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @classmethod
    def from_members(
        cls,
        ctx: SpaceContext,
        members: Sequence[Iterable[complex]],
        tolerance: float = DEFAULT_ORTHO_TOL,
    ) -> "OrthonormalFamily":
        """Build a family from explicit vectors, measuring its Gram defect.

        The result may be uncertified; check ``certified`` before feeding it
        to bound computations.  A defect that overflows is inf or NaN, which
        is never certified, so numpy's warnings about it are silenced.
        """
        rows = _validated_coords(ctx, members, 2)
        if ctx.weights is None and rows.shape[0] > ctx.dimension:
            raise ValueError(
                "family size exceeds the dimension of a coordinate backend"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(rows, float(_gram_defect(ctx, rows)), tolerance)

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    @property
    def certified(self) -> bool:
        return self.gram_defect <= self.tolerance


def _gram_defect(ctx: SpaceContext, rows: np.ndarray) -> np.ndarray:
    """max_{i,j} |<e_i, e_j> - delta_ij| per stack of rows."""
    gram = _weighted(ctx, rows) @ rows.conj().swapaxes(-1, -2)
    return np.abs(gram - np.eye(rows.shape[-2])).max(axis=(-2, -1))


def allowance(scale: float, terms: int, size: int = 0, gram_defect: float = 0.0) -> float:
    """How far a computed chain value may cross its exact bound:
    (K gamma_terms + size * gram_defect) * scale + K terms eta, with
    gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 3.1), u the unit roundoff, K = 16 and
    eta = 2^-1075 the absolute error of a product that underflows.

    ``scale`` is the instance's magnitude (``bounds.instance_scale`` or
    ``pair_scale``, squared for squared comparisons), ``terms`` = d + |F| and
    ``size`` = |F|.  Without ``size`` and ``gram_defect`` only the rounding
    term remains, for a value computed from the vectors as written.
    """
    # Rounding term.  A dot product of length n has error at most
    # gamma_n sum_k |a_k b_k| (Higham (3.5)).  A chain value passes through a
    # length-|F| combination sum_i c_i e_i and a length-d inner product, so
    # gamma_terms with terms = d + |F| bounds the relative error of every
    # summand.  A chain comparison a <= b tests the sign of b - a, a signed
    # sum of at most ||x||^2, sum_i |c_i|^2, coarse = ||Delta||^2 and
    # slack_inner = Re<u, v> with u = S(Phi) - x, v = x - S(phi)
    # (S(a) = sum_i a_i e_i, m and Delta the box's centre and half-widths,
    # ||Delta||^2 = half_diameter_sq).  On a certified instance the box
    # condition puts x within ||S(Delta)|| ~ ||Delta|| of S(m), so
    # ||u||, ||v|| <= 2 ||Delta|| and ||Phi||, ||phi|| <= ||x|| + 2 ||Delta||.
    # The errors, in units of gamma_terms:
    #     ||x||^2                     ||x||^2
    #     sum |c_i|^2                 3 ||x||^2  (c_i to gamma_d, the sum to gamma_F)
    #     coarse                      ||Delta||^2
    #     slack_inner (u, v, <u,v>)   ||Phi|| ||v|| + ||phi|| ||u|| + ||u|| ||v||
    #                                 <= 4 ||x|| ||Delta|| + 12 ||Delta||^2
    #                                 <= 2 ||x||^2 + 14 ||Delta||^2
    # which add up to 6 ||x||^2 + 15 ||Delta||^2 <= 15 scale.  K = 16 is the
    # next power of two.  The bound is first order (it drops products of two
    # rounding errors) and norm-wise (it reads || |R| || as ||R|| for the
    # member rows R, a gap of at most sqrt(|F|)); rounding errors that add
    # like a random walk grow like sqrt(terms), not like gamma_terms, which
    # leaves far more room than either reading takes.  The two-vector chains
    # have the same terms per vector, with pair_scale the sum of both scales.
    #
    # Underflow term.  The rounding term is relative and assumes no result
    # underflows; below a scale of about 2^-1022 / (K gamma_terms) it is
    # itself subnormal.  Under gradual underflow a product is
    # fl(a b) = a b (1 + delta) + eta_k with |eta_k| <= eta = 2^-1075
    # (lambda u, lambda = 2^-1022 the smallest normal), and a sum that
    # underflows is exact (Higham, section 2.1).  So each product adds at
    # most eta, which later sums carry at first order.  A later product
    # multiplies a carried eta by a member entry (at most 1 in the norm-wise
    # reading above) or by a vector entry (at most sqrt(scale)): for
    # scale >= 1 the latter is below lambda u scale, inside the spare
    # gamma_terms scale between 15 and K, and for smaller scales at most eta.
    # Counting two real products per complex one, in units of terms eta:
    # ||x||^2 2, sum |c_i|^2 2 (the errors of c_i reach it only through c_i
    # itself), coarse 2 and slack_inner 2 (those of S(Phi) and S(phi) reach
    # <u, v> only through entries of v and u).  The sum, 8, is at most K, so
    # K terms eta bounds the underflow error.  It is an exact multiple of
    # 2^-1074, below half an ulp of the rounding term at any scale above
    # about 1e-291, where it changes no value.
    #
    # Gram-defect term.  For rows R with Gram matrix G = R R^H = I + E and
    # defect delta = max |E_ij|, ||E||_2 <= |F| delta.  The exact chain links
    # then move by at most |F| delta scale: residual = ||x||^2 - x^H R^H R x
    # >= -|F| delta ||x||^2, as R^H R has the nonzero eigenvalues of G; and
    # refined - residual = ||c - m||^2 + m^H E m - Delta^H E Delta, whose
    # first two terms are at least x^H (R^H R - P) x >= -|F| delta ||x||^2
    # (the minimum over m, P the projector onto the rows), the last at least
    # -|F| delta ||Delta||^2.  The term is sharp: at d = |F| = 1, with member
    # sqrt(1 + delta) and a box of zero width, residual = -delta ||x||^2.
    rounding = terms * _UNIT_ROUNDOFF
    underflow = _ROUNDING_MULTIPLE * terms * _SMALLEST_SUBNORMAL / 2
    return (_ROUNDING_MULTIPLE * rounding / (1.0 - rounding) + size * gram_defect) * scale + underflow


def _finite_real(name: str, value) -> float:
    """``value`` as a float when it is a finite real number (a
    ``numbers.Real`` that is not a bool).  A string, a bool, a complex number,
    a NaN or an infinity raises ValueError naming ``name``; nothing is
    coerced."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int or a Fraction beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return number


def _tolerance(name: str, value) -> float:
    """The one rule of every public tolerance parameter: a finite real number
    >= 0 (see ``_finite_real``), else ValueError naming the parameter.  A NaN
    tolerance would fail every check and an infinite one pass every check."""
    number = _finite_real(name, value)
    if number < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return number


def require_certified(fam: OrthonormalFamily) -> None:
    if not fam.certified:
        raise ValueError(
            f"family is not certified orthonormal: gram defect {fam.gram_defect:.3e} "
            f"exceeds tolerance {fam.tolerance:.3e}"
        )


def gram_schmidt(ctx: SpaceContext, raw: Sequence[Iterable[complex]]) -> OrthonormalFamily:
    """Orthonormalize the rows of ``raw`` with CGS2: classical Gram-Schmidt
    applied twice, each pass projecting a row on all previous members with
    two matvecs.

    The second pass keeps the Gram defect at machine-epsilon level (Giraud,
    Langou & Rozloznik 2005, "twice is enough"); one pass loses orthogonality
    well above the certification tolerances used here.  A pivot norm below
    ``RANK_DROP_FACTOR * max(input norms)`` raises :class:`DegeneracyError`
    naming the offending vector; so does a final Gram defect above
    ``DEFAULT_ORTHO_TOL``, the tolerance the returned family carries.
    """
    if len(raw) == 0:
        raise ValueError("gram_schmidt needs at least one input vector")
    members, pivots, drop, defect = _cgs2(ctx, _validated_coords(ctx, raw, 2))
    dependent = np.flatnonzero(pivots <= drop)
    if dependent.size:
        position = int(dependent[0])
        raise DegeneracyError(
            f"input vector {position} is numerically dependent on its "
            f"predecessors (pivot norm {pivots[position]:.3e}, drop threshold {drop:.3e})"
        )
    if defect > DEFAULT_ORTHO_TOL:
        raise DegeneracyError(
            f"orthonormalization stalled at gram defect {defect:.3e} > tol "
            f"{DEFAULT_ORTHO_TOL:.3e}; the input is too ill-conditioned for this tolerance"
        )
    return OrthonormalFamily(members, float(defect))


def _cgs2(ctx: SpaceContext, rows: np.ndarray):
    """CGS2 on stacks of rows (..., F, d): the members, each row's pivot norm,
    each stack's drop threshold and Gram defect.  A stack is accepted when
    ``_rejected`` is false; a rejected stack's members are not meaningful."""
    norms_sq = _weighted(ctx, np.abs(rows) ** 2).sum(axis=-1)
    drop = RANK_DROP_FACTOR * np.sqrt(norms_sq.max(axis=-1))
    members = np.empty_like(rows)
    pivots = np.empty(rows.shape[:-1])
    for position in range(rows.shape[-2]):
        u = rows[..., position, :]
        done = members[..., :position, :]
        if position:
            for _ in range(2):
                u = u - _combine(_coefficients(ctx, u, done), done)
        pivot = pivots[..., position] = _norm(ctx, u)
        # a dependent row divides by 1, not by a vanishing pivot
        members[..., position, :] = u / np.where(pivot > drop, pivot, 1.0)[..., None]
    return members, pivots, drop, _gram_defect(ctx, members)


def _rejected(pivots: np.ndarray, drop: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """Stacks ``gram_schmidt`` refuses: a pivot at or below the drop threshold,
    or a Gram defect above ``DEFAULT_ORTHO_TOL``."""
    return (pivots <= drop[..., None]).any(axis=-1) | (defect > DEFAULT_ORTHO_TOL)


def index_set(indices: Sequence[int], family_size: int) -> tuple[int, ...]:
    """Validate a finite index selection into a family (0-based positions).

    Must be nonempty, strictly increasing and within range.
    """
    idx = tuple(_integer("each index", i) for i in indices)
    if not idx:
        raise ValueError("index set must be nonempty")
    if any(i < 0 or i >= family_size for i in idx):
        raise ValueError(f"index set {idx} out of range for family size {family_size}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"index set {idx} must be strictly increasing")
    return idx
