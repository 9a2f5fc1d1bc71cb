"""Seeded random instance generation.

All randomness flows through ``numpy.random.Generator`` objects built from
:func:`rng_from_seed`, which derives independent, platform-stable PCG64
streams from a 64-bit seed plus an integer key path.  Instances manufactured
by the ``generate_*`` functions certify by construction: box midpoints are
placed near the expansion coefficients and the box diameters are scaled so
the norm form of the condition holds with a nonnegative margin.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .bounds import CoefficientBox
from .space import (
    DegeneracyError,
    OrthonormalFamily,
    SpaceContext,
    Vector,
    _coefficients,
    _norm,
    _validated_coords,
    gram_schmidt,
    index_set,
    require_certified,
)


class Instance(NamedTuple):
    ctx: SpaceContext
    x: Vector
    family: OrthonormalFamily
    indices: tuple[int, ...]
    box: CoefficientBox


class PairInstance(NamedTuple):
    ctx: SpaceContext
    x: Vector
    y: Vector
    family: OrthonormalFamily
    indices: tuple[int, ...]
    box_x: CoefficientBox
    box_y: CoefficientBox


def rng_from_seed(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 stream for (seed, key...).

    Streams for distinct key paths are statistically independent and
    reproduce across platforms, which is what makes suite outcomes and
    search results byte-stable.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), *map(int, key)))))


def gaussian_scalars(rng: np.random.Generator, count: int, complex_field: bool) -> np.ndarray:
    z = rng.standard_normal(count).astype(np.complex128)
    if complex_field:
        z = z + 1j * rng.standard_normal(count)
    return z


def random_vector(rng: np.random.Generator, ctx: SpaceContext, scale: float = 1.0) -> Vector:
    return scale * gaussian_scalars(rng, ctx.dimension, ctx.is_complex)


def random_family(rng: np.random.Generator, ctx: SpaceContext, size: int) -> OrthonormalFamily:
    """Orthonormalized random Gaussian vectors (retrying degenerate draws)."""
    if size > ctx.dimension:
        raise ValueError("family size cannot exceed the dimension")
    while True:
        raw = [gaussian_scalars(rng, ctx.dimension, ctx.is_complex) for _ in range(size)]
        try:
            return gram_schmidt(ctx, raw)
        except DegeneracyError:  # pragma: no cover - probability ~0
            continue


def certified_box_arrays(
    rng: np.random.Generator,
    ctx: SpaceContext,
    vectors: Sequence[Vector] | Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    mid_sigma: float = 0.25,
    slack_factor: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Box parameters (midpoints, half-offsets) of one box certifying every
    vector of ``vectors`` (a sequence of vectors, or a single vector) by
    construction.

    Midpoints sit at the mean of the vectors' expansion coefficients plus
    Gaussian noise of size ``mid_sigma``; the offsets are scaled so that

        sqrt(sum |d_i|^2) = slack_factor * max_v ||v - sum mid_i e_i||

    with ``slack_factor`` drawn uniformly from [1, 2] when not given.  A
    factor >= 1 makes the norm form of the condition hold for every vector,
    hence each inner-product slack is nonnegative up to the family's Gram
    defect.
    """
    require_certified(fam)
    rows = fam.members[list(index_set(indices, fam.size))]
    stack = _validated_coords(ctx, np.atleast_2d(vectors), 2)
    if slack_factor is not None and slack_factor < 0.0:
        raise ValueError("slack_factor must be nonnegative")
    return _box_arrays(rng, ctx, stack, rows, mid_sigma, slack_factor)


def _box_arrays(rng, ctx, vectors, rows, mid_sigma=0.25, slack_factor=None):
    """``certified_box_arrays`` on inputs valid by construction: vectors of
    ``ctx`` and the selected rows of a certified family."""
    noise = mid_sigma * gaussian_scalars(rng, len(rows), ctx.is_complex)
    coefficients = [_coefficients(ctx, v, rows) for v in vectors]
    mid = sum(coefficients) / len(coefficients) + noise
    combination = mid @ rows
    radius = max(_norm(ctx, v - combination) for v in vectors)
    if slack_factor is None:
        slack_factor = 1.0 + rng.uniform()
    return mid, _offsets(rng, ctx, len(rows), slack_factor * radius)


def _draw(rng: np.random.Generator, dim: int, family_size: int, field: str, count: int):
    """Context, random family, the full index set and ``count`` random vectors."""
    ctx = SpaceContext(field, dim)
    fam = random_family(rng, ctx, family_size)
    vectors = [random_vector(rng, ctx, float(rng.lognormal(0.0, 0.5))) for _ in range(count)]
    return ctx, fam, tuple(range(family_size)), vectors


def _offsets(rng: np.random.Generator, ctx: SpaceContext, count: int, target: float):
    """Half-offsets in a random direction with sqrt(sum |d_i|^2) = target."""
    direction = gaussian_scalars(rng, count, ctx.is_complex)
    length = float(np.sqrt(np.sum(np.abs(direction) ** 2)))
    while length == 0.0:  # pragma: no cover - probability ~0
        direction = gaussian_scalars(rng, count, ctx.is_complex)
        length = float(np.sqrt(np.sum(np.abs(direction) ** 2)))
    return direction * (target / length) if target > 0.0 else np.zeros(count, dtype=np.complex128)


def generate_certified_instance(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> Instance:
    """Random instance whose box condition holds by construction."""
    ctx, fam, idx, (x,) = _draw(rng, dim, family_size, field, 1)
    mid, d = _box_arrays(rng, ctx, (x,), fam.members)
    return Instance(ctx, x, fam, idx, CoefficientBox.centered(idx, mid, d))


def generate_unconstrained_instance(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> Instance:
    """Random instance with no feasibility guarantee: the box diameter scale
    is drawn from [0, 2), so roughly half of the draws violate the condition.
    """
    ctx, fam, idx, (x,) = _draw(rng, dim, family_size, field, 1)
    mid, d = _box_arrays(rng, ctx, (x,), fam.members, slack_factor=float(2.0 * rng.uniform()))
    return Instance(ctx, x, fam, idx, CoefficientBox.centered(idx, mid, d))


def generate_certified_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Two vectors over one family, each certified by its own box."""
    ctx, x, fam, idx, box_x = generate_certified_instance(rng, dim, family_size, field)
    y = random_vector(rng, ctx, scale=float(rng.lognormal(0.0, 0.5)))
    mid, d = _box_arrays(rng, ctx, (y,), fam.members)
    return PairInstance(ctx, x, y, fam, idx, box_x, CoefficientBox.centered(idx, mid, d))


def generate_midpoint_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Pair whose shared box certifies the midpoint (x+y)/2.

    ``box_x`` is the shared midpoint box; ``box_y`` repeats it for interface
    uniformity.
    """
    ctx, fam, idx, (x, y) = _draw(rng, dim, family_size, field, 2)
    mid, d = _box_arrays(rng, ctx, (0.5 * (x + y),), fam.members)
    box = CoefficientBox.centered(idx, mid, d)
    return PairInstance(ctx, x, y, fam, idx, box, box)


def generate_twosided_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Pair with one box certifying both (x+y)/2 and (x-y)/2.

    The box midpoints sit between the two midpoint coefficient vectors and
    the diameter covers the larger of the two distances, so both conditions
    hold by construction.
    """
    ctx, fam, idx, (x, y) = _draw(rng, dim, family_size, field, 2)
    mid, d = _box_arrays(rng, ctx, (0.5 * (x + y), 0.5 * (x - y)), fam.members, mid_sigma=0.1)
    box = CoefficientBox.centered(idx, mid, d)
    return PairInstance(ctx, x, y, fam, idx, box, box)
