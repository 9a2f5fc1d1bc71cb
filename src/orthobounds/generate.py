"""Seeded random instance generation.

All randomness flows through ``numpy.random.Generator`` objects built from
:func:`rng_from_seed`, which derives independent, platform-stable PCG64
streams from a 64-bit seed plus an integer key path.  Instances manufactured
by the ``generate_*`` functions certify by construction: box midpoints are
placed near the expansion coefficients and the box diameters are scaled so
the norm form of the condition holds with a nonnegative margin.

Each generator works on a stack of instances, one per stream: every draw is
made from each stream in turn, in one fixed order per stream, and the
arithmetic runs on the stacked draws.  A stream whose family CGS2 rejects, or
whose box direction is zero, redraws alone, as a single stream would.  The
public generators are stacks of one; ``suite.run_suite`` stacks a cell.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .bounds import CoefficientBox, _Boxes, _validated
from .space import (
    OrthonormalFamily,
    SpaceContext,
    Vector,
    _cgs2,
    _coefficients,
    _combine,
    _count,
    _integer,
    _norm,
    _rejected,
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


def check_seed(seed: int) -> int:
    """The seed rule of every command and seeded config: an integer
    (``space._integer``) that fits in 64 unsigned bits, returned as an int."""
    if not 0 <= _integer("seed", seed) < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed!r}")
    return int(seed)


class _Families(NamedTuple):
    """Orthonormal families stacked along a leading axis: members (B, F, d)
    and Gram defects (B,), unvalidated: an OrthonormalFamily with a batch
    axis cost verify-grid 1.3% (slower in 10 of 10 alternating runs)."""

    members: np.ndarray
    gram_defect: np.ndarray


def _gaussians(rngs, shape: tuple[int, ...], complex_field: bool) -> np.ndarray:
    """Standard Gaussian scalars of ``shape`` from each stream, stacked.

    Each vector along the last axis takes ``shape[-1]`` real parts, then (for
    the complex field) as many imaginary parts; the draws of one stream are a
    single standard_normal call, which yields the same numbers as one call
    per part."""
    parts = 2 if complex_field else 1
    draws = np.empty((len(rngs), *shape[:-1], parts, shape[-1]))
    for row, rng in zip(draws.reshape(len(rngs), -1), rngs):
        rng.standard_normal(out=row)
    z = draws[..., 0, :].astype(np.complex128)
    if complex_field:
        z = z + 1j * draws[..., 1, :]
    return z


def _families(rngs, ctx: SpaceContext, size: int) -> _Families:
    """An orthonormalized random Gaussian family on each stream: a stream
    whose draw CGS2 rejects draws again, alone."""
    size = _count("family_size", size)
    if size > ctx.dimension:
        raise ValueError("family size cannot exceed the dimension")
    members, pivots, drop, defect = _cgs2(
        ctx, _gaussians(rngs, (size, ctx.dimension), ctx.is_complex)
    )
    for i in np.flatnonzero(_rejected(pivots, drop, defect)):
        members[i], defect[i] = (a[0] for a in _families(rngs[i : i + 1], ctx, size))
    return _Families(members, defect)


def _vectors(rngs, ctx: SpaceContext) -> np.ndarray:
    """A Gaussian vector on each stream at a log-normal scale, drawn first."""
    scales = np.array([rng.lognormal(0.0, 0.5) for rng in rngs])
    return scales[:, None] * _gaussians(rngs, (ctx.dimension,), ctx.is_complex)


def certified_box_arrays(
    rng: np.random.Generator,
    ctx: SpaceContext,
    x: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Box parameters (midpoints, half-offsets) of a box certifying ``x`` by
    construction.

    Midpoints sit at the expansion coefficients of ``x`` plus Gaussian noise
    of size 0.25; the offsets are scaled so that

        sqrt(sum |d_i|^2) = slack_factor * ||x - sum mid_i e_i||

    with ``slack_factor`` drawn uniformly from [1, 2].  A factor >= 1 makes
    the norm form of the condition hold, hence the inner-product slack is
    nonnegative up to the family's Gram defect.
    """
    (x,), _, rows = _validated(ctx, fam, indices, (x,))
    mid, half = _box_arrays([rng], ctx, [x[None]], rows[None])
    return mid[0], half[0]


def _box_arrays(rngs, ctx, vectors, rows, mid_sigma=0.25, slack_factor=None):
    """``certified_box_arrays`` on each stream for one box that certifies
    every vector of ``vectors``, for inputs valid by construction:
    ``vectors`` a list of stacks (B, d), ``rows`` (B, F, d) the selected rows
    of certified families.  The midpoints are the mean of the vectors'
    coefficients plus noise of size ``mid_sigma``, and the radius covers the
    farthest vector."""
    count = rows.shape[-2]
    noise = mid_sigma * _gaussians(rngs, (count,), ctx.is_complex)
    coefficients = [_coefficients(ctx, v, rows) for v in vectors]
    mid = sum(coefficients) / len(coefficients) + noise
    combination = _combine(mid, rows)
    radius = np.maximum.reduce([_norm(ctx, v - combination) for v in vectors])
    if slack_factor is None:
        slack_factor = 1.0 + _uniforms(rngs)
    return mid, _offsets(rngs, ctx, count, slack_factor * radius)


def _uniforms(rngs) -> np.ndarray:
    return np.array([rng.uniform() for rng in rngs])


def _offsets(rngs, ctx: SpaceContext, count: int, target: np.ndarray) -> np.ndarray:
    """Half-offsets in a random direction with sqrt(sum |d_i|^2) = target."""
    direction, length = _direction(rngs, ctx, count)
    return np.where((target > 0.0)[:, None], direction * (target / length)[:, None], 0.0)


def _direction(rngs, ctx: SpaceContext, count: int):
    """A Gaussian direction and its length per stream; a stream that draws the
    zero vector draws again, alone."""
    direction = _gaussians(rngs, (count,), ctx.is_complex)
    length = np.sqrt(np.sum(np.abs(direction) ** 2, axis=-1))
    for i in np.flatnonzero(length == 0.0):
        direction[i], length[i] = (a[0] for a in _direction(rngs[i : i + 1], ctx, count))
    return direction, length


def _instances(rngs, ctx: SpaceContext, size: int, loose: bool = False) -> Instance:
    """Certified instances, or (``loose``) unconstrained ones, one per stream."""
    fam = _families(rngs, ctx, size)
    x = _vectors(rngs, ctx)
    factor = 2.0 * _uniforms(rngs) if loose else None
    box = _Boxes.centered(*_box_arrays(rngs, ctx, [x], fam.members, slack_factor=factor))
    return Instance(ctx, x, fam, tuple(range(size)), box)


def _certified_pairs(rngs, ctx: SpaceContext, size: int) -> PairInstance:
    ctx, x, fam, indices, box_x = _instances(rngs, ctx, size)
    y = _vectors(rngs, ctx)
    box_y = _Boxes.centered(*_box_arrays(rngs, ctx, [y], fam.members))
    return PairInstance(ctx, x, y, fam, indices, box_x, box_y)


def _shared_box_pairs(rngs, ctx: SpaceContext, size: int, twosided: bool) -> PairInstance:
    """Pairs whose one box certifies (x+y)/2 and, when ``twosided``, (x-y)/2."""
    fam = _families(rngs, ctx, size)
    x = _vectors(rngs, ctx)
    y = _vectors(rngs, ctx)
    if twosided:
        mid, half = _box_arrays(rngs, ctx, [0.5 * (x + y), 0.5 * (x - y)], fam.members, 0.1)
    else:
        mid, half = _box_arrays(rngs, ctx, [0.5 * (x + y)], fam.members)
    box = _Boxes.centered(mid, half)
    return PairInstance(ctx, x, y, fam, tuple(range(size)), box, box)


def _row(stack: Instance | PairInstance, i: int) -> Instance | PairInstance:
    """Instance ``i`` of a stack, as the public generators return it."""
    fam = OrthonormalFamily(stack.family.members[i], float(stack.family.gram_defect[i]))
    indices = stack.indices
    if isinstance(stack, PairInstance):
        box_x = _box_row(stack.box_x, indices, i)
        box_y = box_x if stack.box_y is stack.box_x else _box_row(stack.box_y, indices, i)
        return PairInstance(stack.ctx, stack.x[i], stack.y[i], fam, indices, box_x, box_y)
    return Instance(stack.ctx, stack.x[i], fam, indices, _box_row(stack.box, indices, i))


def _box_row(boxes: _Boxes, indices: tuple[int, ...], i: int) -> CoefficientBox:
    return CoefficientBox(indices, boxes.lower_array[i], boxes.upper_array[i])


def generate_certified_instance(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> Instance:
    """Random instance whose box condition holds by construction."""
    return _row(_instances([rng], SpaceContext(field, dim), family_size), 0)


def generate_unconstrained_instance(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> Instance:
    """Random instance with no feasibility guarantee: the box diameter scale
    is drawn from [0, 2), so roughly half of the draws violate the condition.
    """
    return _row(_instances([rng], SpaceContext(field, dim), family_size, loose=True), 0)


def generate_certified_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Two vectors over one family, each certified by its own box."""
    return _row(_certified_pairs([rng], SpaceContext(field, dim), family_size), 0)


def generate_midpoint_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Pair whose shared box certifies the midpoint (x+y)/2.

    ``box_x`` is the shared midpoint box; ``box_y`` is the same object, for
    interface uniformity.
    """
    return _row(_shared_box_pairs([rng], SpaceContext(field, dim), family_size, False), 0)


def generate_twosided_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Pair with one box certifying both (x+y)/2 and (x-y)/2.

    The box midpoints sit between the two midpoint coefficient vectors and
    the diameter covers the larger of the two distances, so both conditions
    hold by construction.
    """
    return _row(_shared_box_pairs([rng], SpaceContext(field, dim), family_size, True), 0)
