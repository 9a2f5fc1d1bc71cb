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
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {self.field!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
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
    return _inner(ctx, _conforming(ctx, x), _conforming(ctx, y))


def norm(ctx: SpaceContext, x: Vector) -> float:
    """||x|| = sqrt(Re <x, x>)."""
    return _norm(ctx, _conforming(ctx, x))


# Array arithmetic on validated shapes; the weights fold into the first argument.


def _weighted(ctx: SpaceContext, x: np.ndarray) -> np.ndarray:
    return x if ctx.weights is None else ctx.weights * x


def _inner(ctx: SpaceContext, x: np.ndarray, y: np.ndarray) -> complex:
    return complex(np.vdot(y, _weighted(ctx, x)))


def _norm_sq(ctx: SpaceContext, x: np.ndarray) -> float:
    return float(np.vdot(x, _weighted(ctx, x)).real)


def _norm(ctx: SpaceContext, x: np.ndarray) -> float:
    return float(np.sqrt(max(_norm_sq(ctx, x), 0.0)))


def _coefficients(ctx: SpaceContext, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """<x, e_i> for every row e_i of ``rows``, as one matvec."""
    return rows.conj() @ _weighted(ctx, x)


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """Ordered finite family of unit vectors with a Gram-matrix certificate.

    ``gram_defect`` is max_{i,j} |<e_i, e_j> - delta_ij| as measured at
    construction time; the family counts as certified while it stays within
    ``tolerance``.  Members are stored as the rows of a read-only matrix.
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
        if not 0.0 <= self.tolerance <= 1.0 / m.shape[0]:
            raise ValueError(
                f"family tolerance {self.tolerance!r} must lie in [0, 1/size] = "
                f"[0, {1.0 / m.shape[0]:.6g}]"
            )
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
        to bound computations.
        """
        rows = _validated_coords(ctx, members, 2)
        if ctx.weights is None and rows.shape[0] > ctx.dimension:
            raise ValueError(
                "family size exceeds the dimension of a coordinate backend"
            )
        return cls(rows, _gram_defect(ctx, rows), tolerance)

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    @property
    def certified(self) -> bool:
        return self.gram_defect <= self.tolerance


def _gram_defect(ctx: SpaceContext, rows: np.ndarray) -> float:
    if ctx.weights is None:
        gram = rows @ rows.conj().T
    else:
        gram = (rows * ctx.weights) @ rows.conj().T
    return float(np.max(np.abs(gram - np.eye(rows.shape[0]))))


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
    rows = _validated_coords(ctx, raw, 2)
    norms_sq = _weighted(ctx, np.abs(rows) ** 2).sum(axis=1)
    drop = RANK_DROP_FACTOR * float(np.sqrt(norms_sq.max()))
    members = np.empty_like(rows)
    conj = np.empty_like(rows)  # conj(members), kept so no pass re-conjugates
    for position, u in enumerate(rows):
        done, done_conj = members[:position], conj[:position]
        if position:
            u = u - (done_conj @ _weighted(ctx, u)) @ done
            u = u - (done_conj @ _weighted(ctx, u)) @ done
        pivot = _norm(ctx, u)
        if pivot <= drop:
            raise DegeneracyError(
                f"input vector {position} is numerically dependent on its "
                f"predecessors (pivot norm {pivot:.3e}, drop threshold {drop:.3e})"
            )
        members[position] = u / pivot
        conj[position] = members[position].conj()
    defect = _gram_defect(ctx, members)
    if defect > DEFAULT_ORTHO_TOL:
        raise DegeneracyError(
            f"orthonormalization stalled at gram defect {defect:.3e} > tol "
            f"{DEFAULT_ORTHO_TOL:.3e}; the input is too ill-conditioned for this tolerance"
        )
    return OrthonormalFamily(members, defect)


def index_set(indices: Sequence[int], family_size: int) -> tuple[int, ...]:
    """Validate a finite index selection into a family (0-based positions).

    Must be nonempty, strictly increasing and within range.
    """
    idx = tuple(map(int, indices))
    if not idx:
        raise ValueError("index set must be nonempty")
    if any(i < 0 or i >= family_size for i in idx):
        raise ValueError(f"index set {idx} out of range for family size {family_size}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"index set {idx} must be strictly increasing")
    return idx


def family_projection(
    ctx: SpaceContext, x: Vector, fam: OrthonormalFamily, indices: Sequence[int]
) -> Vector:
    """Orthogonal projection of x onto span{e_i : i in indices}."""
    require_certified(fam)
    rows = fam.members[list(index_set(indices, fam.size))]
    return _coefficients(ctx, _conforming(ctx, x), rows) @ rows


def _conforming(ctx: SpaceContext, x: Vector) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128)
    if v.shape != (ctx.dimension,):
        raise ValueError(
            f"vector has shape {v.shape}, context dimension is {ctx.dimension}"
        )
    return v
