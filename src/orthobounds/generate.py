"""Seeded random instance generation.

All randomness flows through ``numpy.random.Generator`` objects built from
:func:`rng_from_seed`, which derives independent, platform-stable PCG64
streams from a 64-bit seed plus an integer key path.  Instances manufactured
by the ``generate_*`` functions certify by construction: box midpoints are
placed near the expansion coefficients and the box diameters are scaled so
the norm form of the condition holds with a nonnegative margin.

Generation works on a stack of streams, one instance per stream and source,
in two phases.  A source (``_CERTIFIED`` ... ``_TWOSIDED``, or the search's
start states) declares its draws once, in stream order: its family, then its
vectors and boxes; a box names the vectors it covers by their offset from the
source's first vector.  ``_plan`` lays a list of sources out as one row of
normals and one row of uniforms per stream.  A plan holds full sources, or
``certified_box_arrays``'s one box-only source, built on stand-ins.

* Draw phase: each stream draws all its sources in one loop, with one
  ``standard_normal(out=...)`` per run of normals inside a source and one
  ``random()`` per uniform.  A vector's log-normal scale is the run's normal
  z taken as ``math.exp(0.0 + 0.5 * z)``: numpy's ``Generator.lognormal``
  computes exactly ``exp(loc + scale * z)`` with libm's ``exp``, and
  ``uniform()`` computes ``0.0 + 1.0 * random()``, so the numbers are those
  of one ``lognormal``, ``standard_normal`` or ``uniform`` call per draw.
* Build phase: the arithmetic runs once across all sources, one ``_cgs2`` on
  the stack of every source's families and one box pass over every box.

A stream whose family CGS2 rejects, or whose box direction is zero, is drawn
again alone by the same loop (``_Plan._draw``), from a snapshot of its bit
generator's state and one call per draw in the same order: each checked draw
is drawn again until CGS2 or the length check passes it.  The stack is then
built again.  The public generators are one source on one stream;
``suite.run_suite`` draws a cell's five sources on each of its streams.
"""

from __future__ import annotations

import math
from functools import lru_cache
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
    """Independent PCG64 stream for (seed, key...): the seed under
    ``check_seed``, each key a nonnegative integer (``space._integer``).

    Streams for distinct key paths are statistically independent and
    reproduce across platforms, which is what makes suite outcomes and
    search results byte-stable.
    """
    for value in key:
        if _integer("each key", value, "a nonnegative integer") < 0:
            raise ValueError(f"each key must be a nonnegative integer, got {value!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((check_seed(seed), *map(int, key)))))


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


def _complex(draws: np.ndarray) -> np.ndarray:
    """Vectors (..., n) from standard normal draws (..., parts, n): the real
    parts, plus (with two parts) the imaginary parts."""
    z = draws[..., 0, :].astype(np.complex128)
    if draws.shape[-2] == 2:
        z = z + 1j * draws[..., 1, :]
    return z


def _length(direction: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(direction) ** 2, axis=-1))


# A source is a tuple of steps in stream order: ``_FAMILY`` (its Gaussian
# family, orthonormalized), then ``_Vector`` and ``_Box`` steps.
_FAMILY = "family"


class _Vector(NamedTuple):
    """A Gaussian vector, at a log-normal scale drawn first when ``scaled``."""

    scaled: bool = True


class _Box(NamedTuple):
    """A box certifying each vector it ``covers``: "x" and "y" are the
    source's first and second vectors, "x+y" and "x-y" half their sum and
    difference.  Its midpoints are the mean of their coefficients plus
    Gaussian noise of size ``sigma``; its half-offsets point in a Gaussian
    direction, scaled so that sqrt(sum |d_i|^2) is a slack factor times the
    farthest vector's distance ||v - sum mid_i e_i||.  The factor is 1 + u
    with u uniform on [0, 1), drawn after the noise; a ``loose`` box draws u
    before the noise and takes 2u, so that about half of its boxes violate
    the condition."""

    covers: tuple[str, ...]
    sigma: float = 0.25
    loose: bool = False


_CERTIFIED = (_FAMILY, _Vector(), _Box(("x",)))
_LOOSE = (_FAMILY, _Vector(), _Box(("x",), loose=True))
_PAIR = (_FAMILY, _Vector(), _Box(("x",)), _Vector(), _Box(("y",)))
_MIDPOINT = (_FAMILY, _Vector(), _Vector(), _Box(("x+y",)))
_TWOSIDED = (_FAMILY, _Vector(), _Vector(), _Box(("x+y", "x-y"), 0.1))


class _Built(NamedTuple):
    """A build of every source of a plan: families (S, B, F, d) and their
    Gram defects (S, B; None on stand-ins); vectors (V, B, d); box midpoints
    and half-offsets (N, B, F) and the boxes they center (None on stand-ins,
    whose caller reads the midpoints and half-offsets); for each (box,
    cover) pair, in ``_Plan.cover_box`` order, the covered vector (C, B, d)
    and its family rows (C, B, F, d); and retry flags (S + N, B), set where
    CGS2 rejected a family or a box direction is zero, and reduced to
    streams only when one is set."""

    members: np.ndarray
    gram_defect: np.ndarray
    vectors: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    boxes: _Boxes
    covered: np.ndarray
    cover_rows: np.ndarray
    retry: np.ndarray


class _Plan:
    """The draws of a list of sources on one stream, laid out as one row of
    normals and one row of uniforms, and the build that turns a stack of
    such rows into families, vectors and boxes.

    ``draws`` lists every draw in stream order as (check, start, stop): a
    slice of the normals row, or (``stop`` None) one uniform; ``check`` names
    what the build may reject ("family" or "direction") and is None
    elsewhere.  ``calls`` lists the first pass's calls as unchecked triples,
    the normals of a source that no uniform separates merged into one slice.
    The sources are either full (family, vectors, boxes) or the one box-only
    source of ``certified_box_arrays``, whose covers index the stand-in
    vectors ``run`` is given."""

    def __init__(self, sources, dimension: int, size: int, complex_field: bool):
        self.sources, self.dimension, self.size = sources, dimension, size
        self.parts = parts = 2 if complex_field else 1
        self.draws, self.calls = [], []
        families, vectors, owners, scales, boxes, self.slices = [], [], [], [], [], []
        normals = uniforms = 0

        def draw(count=None, check=None):
            nonlocal normals, uniforms
            if count is None:
                self.draws.append((None, uniforms, None))
                self.calls.append((None, uniforms, None))
                uniforms += 1
                return uniforms - 1
            self.draws.append((check, normals, normals + count))
            if len(self.calls) > first_call and self.calls[-1][2] == normals:
                self.calls[-1] = (None, self.calls[-1][1], normals + count)
            else:
                self.calls.append((None, normals, normals + count))
            normals += count
            return range(normals - count, normals)

        for source, steps in enumerate(sources):
            first_call = len(self.calls)  # a run of normals stays inside its source
            first_vector, first_box = len(vectors), len(boxes)
            for step in steps:
                if step == _FAMILY:
                    families.append(draw(size * parts * dimension, "family"))
                elif isinstance(step, _Vector):
                    if step.scaled:
                        scales.append(draw(1)[0])
                    vectors.append(draw(parts * dimension))
                    owners.append(source)
                else:
                    uniform = draw() if step.loose else None
                    noise = draw(parts * size)
                    if not step.loose:
                        uniform = draw()
                    direction = draw(parts * size, "direction")
                    covers = [_cover(name, first_vector) for name in step.covers]
                    boxes.append((source, covers, step, noise, uniform, direction))
            self.slices.append((slice(first_vector, len(vectors)), slice(first_box, len(boxes))))
        self.normals, self.uniforms = normals, uniforms
        self.families, self.vectors = _columns(families), _columns(vectors)
        if len(scales) not in (0, len(vectors)):
            raise ValueError("a plan's vectors are all drawn at a log-normal scale or none is")
        self.scales = _frozen(scales)
        self.box_source = _frozen([box[0] for box in boxes])
        # every (box, cover) pair: each box's first cover, then the others
        pairs = [(b, box[1][0]) for b, box in enumerate(boxes)]
        pairs += [(b, cover) for b, box in enumerate(boxes) for cover in box[1][1:]]
        self.cover_box = _frozen([b for b, _ in pairs])
        self.cover_source = _frozen(self.box_source[self.cover_box])
        self.first = _frozen([cover[0] for _, cover in pairs])
        self.halves = [(p, cover) for p, (_, cover) in enumerate(pairs) if cover[1] is not None]
        self.extra = [(p, b) for p, (b, _) in enumerate(pairs) if p >= len(boxes)]
        # each source's pairs, and the source of each vector
        self.covers_of = [[p for p, (b, _) in enumerate(pairs) if own.start <= b < own.stop]
                          for _, own in self.slices]
        self.vector_source = _frozen(owners)
        self.box_count = np.array([len(box[1]) for box in boxes])[:, None, None]
        self.sigma = np.array([box[2].sigma for box in boxes])[:, None, None]
        self.loose = np.array([box[2].loose for box in boxes])[:, None]
        self.uniform = _frozen([box[4] for box in boxes])
        # every box's noise, then every box's direction
        self.box_normals = _columns([box[3] for box in boxes] + [box[5] for box in boxes])

    def run(self, rngs, ctx: SpaceContext, rows=None, vectors=None) -> _Built:
        """Draw and build every source on each stream of ``rngs``, replaying
        a stream the build flags.  ``rows`` (1, B, F, d) and ``vectors``
        (V, B, d) stand in for what a box-only source does not draw."""
        normals = np.empty((len(rngs), self.normals))
        uniforms = np.empty((len(rngs), self.uniforms))
        states = []
        for rng, row, urow in zip(rngs, normals, uniforms):
            states.append(rng.bit_generator.state)
            self._draw(ctx, rng, row, urow, self.calls)
        built = self._build(ctx, normals, uniforms, rows, vectors)
        if not np.count_nonzero(built.retry):
            return built
        for i in np.flatnonzero(np.logical_or.reduce(built.retry)):
            rngs[i].bit_generator.state = states[i]
            self._draw(ctx, rngs[i], normals[i], uniforms[i], self.draws)
        return self._build(ctx, normals, uniforms, rows, vectors)

    def _draw(self, ctx, rng, normals, uniforms, draws) -> None:
        """Draw one stream's row in the order of ``draws``, one call per
        entry, and draw a checked entry again until ``_rejects`` passes it."""
        for check, start, stop in draws:
            if stop is None:
                uniforms[start] = rng.random()
                continue
            drawn = normals[start:stop]
            rng.standard_normal(out=drawn)
            while check is not None and self._rejects(ctx, check, drawn):
                rng.standard_normal(out=drawn)

    def _rejects(self, ctx, check: str, draws: np.ndarray) -> bool:
        if check == "family":
            members = _complex(draws.reshape(1, self.size, self.parts, self.dimension))
            return bool(_rejected(*_cgs2(ctx, members)[1:])[0])
        return bool(_length(_complex(draws.reshape(1, self.parts, self.size)))[0] == 0.0)

    def _build(self, ctx, normals, uniforms, rows, vectors) -> _Built:
        """Every source built from the drawn rows at once: one CGS2 over all
        families, unless ``rows`` stands in for them, and one box pass over
        all boxes.  A rejected family or a zero direction flags its stream
        for a retry, and the stream's results are meaningless."""
        count, size, parts, dim = len(normals), self.size, self.parts, self.dimension
        streams = np.arange(count).reshape(1, count, 1)

        def gather(columns, *shape):
            # (K, B, *shape): draws of the K items of ``columns`` on each stream
            return normals[streams, columns].reshape(len(columns), count, *shape)

        if rows is None:
            draws = gather(self.families, size, parts, dim).reshape(-1, size, parts, dim)
            members, pivots, drop, defect = _cgs2(ctx, _complex(draws))
            rejected = _rejected(pivots, drop, defect).reshape(-1, count)
            rows = members.reshape(-1, count, size, dim)
            defect = defect.reshape(-1, count)
            vectors = _complex(gather(self.vectors, parts, dim))
            if self.scales.size:
                z = normals[:, self.scales].T.ravel().tolist()
                scales = np.array([math.exp(0.0 + 0.5 * t) for t in z])
                vectors = scales.reshape(len(self.scales), count, 1) * vectors
        else:  # a stand-in family is neither measured nor rejected
            defect, rejected = None, np.zeros((0, count), bool)
        # the box pass: every box of every source at once
        covered = self._covers(vectors)
        cover_rows = rows[self.cover_source]
        boxes = len(self.uniform)
        coefficients = _coefficients(ctx, covered, cover_rows)
        # the mean of the covered coefficients, summed from 0 as sum() would
        total = 0 + coefficients[:boxes]
        for pair, box in self.extra:
            total[box] = total[box] + coefficients[pair]
        box_normals = _complex(gather(self.box_normals, parts, size))
        noise, direction = box_normals[:boxes], box_normals[boxes:]
        mid = total / self.box_count + self.sigma * noise
        combination = _combine(mid, cover_rows[:boxes])
        radius = _norm(ctx, covered[:boxes] - combination)
        for pair, box in self.extra:
            radius[box] = np.maximum(radius[box], _norm(ctx, covered[pair] - combination[box]))
        u = uniforms[:, self.uniform].T
        target = np.where(self.loose, 2.0 * u, 1.0 + u) * radius
        length = _length(direction)
        zero = length == 0.0
        scale = target / np.where(zero, 1.0, length)
        half = np.where((target > 0.0)[..., None], direction * scale[..., None], 0.0)
        centered = None if defect is None else _Boxes.centered(mid, half)
        return _Built(
            rows, defect, vectors, mid, half, centered, covered, cover_rows,
            np.concatenate((rejected, zero)),
        )

    def _covers(self, vectors: np.ndarray) -> np.ndarray:
        """The vector of each (box, cover) pair (C, ..., d), from the
        sources' vectors (V, ..., d)."""
        covered = vectors[self.first]
        for pair, cover in self.halves:
            covered[pair] = _covered(vectors, cover)
        return covered

    def given(self, rows: np.ndarray, vectors: np.ndarray, boxes) -> _Built:
        """One given instance of the plan's one source, laid out as ``_build``
        lays out a stream, with no batch axis and no draws: its selected rows
        (F, d), vectors (V, d) and CoefficientBoxes (a shared box's copies
        after the first are not read)."""
        members = rows[None]
        arrays = (np.array([getattr(box, name) for box in boxes]) for name in _Boxes._fields)
        return _Built(
            members, None, vectors, None, None, _Boxes(*arrays), self._covers(vectors),
            members[self.cover_source], None,
        )


def _cover(name: str, first: int) -> tuple[int, int | None, bool]:
    """(i, j, plus) of a covered vector, for a source whose first vector is
    vector ``first``: vector i, or half of v_i + v_j (``plus``) or of
    v_i - v_j."""
    if name in ("x", "y"):
        return first + "xy".index(name), None, True
    return first, first + 1, name == "x+y"


def _covered(vectors: np.ndarray, cover) -> np.ndarray:
    i, j, plus = cover
    if j is None:
        return vectors[i]
    return 0.5 * (vectors[i] + vectors[j] if plus else vectors[i] - vectors[j])


def _frozen(values, dtype=np.intp) -> np.ndarray:
    """A read-only copy of ``values``, by default as an index array."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def _columns(ranges) -> np.ndarray:
    """The normals columns of equal-length draws, one row per draw, shaped to
    index a (streams, columns) array into (draws, streams, length)."""
    return _frozen([list(r) for r in ranges]).reshape(len(ranges), 1, -1 if ranges else 0)


@lru_cache(maxsize=64)
def _plan(sources, dimension: int, size: int, complex_field: bool) -> _Plan:
    return _Plan(sources, dimension, size, complex_field)


def _drawn(rngs, ctx: SpaceContext, size: int, sources) -> tuple[_Plan, _Built]:
    """The plan of ``sources`` and its build on each stream of ``rngs``."""
    size = _count("family_size", size)
    if size > ctx.dimension:
        raise ValueError("family size cannot exceed the dimension")
    plan = _plan(tuple(sources), ctx.dimension, size, ctx.is_complex)
    return plan, plan.run(rngs, ctx)


def _stacks(ctx: SpaceContext, plan: _Plan, built: _Built) -> list[Instance | PairInstance]:
    """One stack of instances per source of ``plan``, a row per stream of
    ``built``: an Instance for a source of one vector, else a PairInstance
    whose one box, if it has only one, is both ``box_x`` and ``box_y``."""
    lower, upper, half_diameter_sq = built.boxes
    indices = tuple(range(plan.size))
    stacks = []
    for source, (vectors, own) in enumerate(plan.slices):
        family = _Families(built.members[source], built.gram_defect[source])
        vectors = built.vectors[vectors]
        own = [_Boxes(lower[b], upper[b], half_diameter_sq[b]) for b in range(own.start, own.stop)]
        if len(vectors) == 1:
            stacks.append(Instance(ctx, vectors[0], family, indices, *own))
        else:
            stacks.append(PairInstance(ctx, *vectors, family, indices, own[0], own[-1]))
    return stacks


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
    plan = _plan(((_Box(("x",)),),), ctx.dimension, len(rows), ctx.is_complex)
    built = plan.run([rng], ctx, rows[None, None], x[None, None])
    return built.mid[0, 0], built.half[0, 0]


def _row(stack: Instance | PairInstance, i: int) -> Instance | PairInstance:
    """Instance ``i`` of a stack, as the public generators return it: every
    array its own read-only copy."""
    fam = OrthonormalFamily(stack.family.members[i], float(stack.family.gram_defect[i]))
    indices, x = stack.indices, _frozen(stack.x[i], np.complex128)
    if isinstance(stack, PairInstance):
        box_x = _box_row(stack.box_x, indices, i)
        box_y = box_x if stack.box_y is stack.box_x else _box_row(stack.box_y, indices, i)
        return PairInstance(stack.ctx, x, _frozen(stack.y[i], np.complex128), fam, indices, box_x, box_y)
    return Instance(stack.ctx, x, fam, indices, _box_row(stack.box, indices, i))


def _box_row(boxes: _Boxes, indices: tuple[int, ...], i: int) -> CoefficientBox:
    return CoefficientBox(indices, boxes.lower_array[i], boxes.upper_array[i])


def _generated(source, rng, dim, family_size, field):
    ctx = SpaceContext(field, dim)
    (stack,) = _stacks(ctx, *_drawn([rng], ctx, family_size, (source,)))
    return _row(stack, 0)


def generate_certified_instance(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> Instance:
    """Random instance whose box condition holds by construction."""
    return _generated(_CERTIFIED, rng, dim, family_size, field)


def generate_unconstrained_instance(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> Instance:
    """Random instance with no feasibility guarantee: the box diameter scale
    is drawn from [0, 2), so roughly half of the draws violate the condition.
    """
    return _generated(_LOOSE, rng, dim, family_size, field)


def generate_certified_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Two vectors over one family, each certified by its own box."""
    return _generated(_PAIR, rng, dim, family_size, field)


def generate_midpoint_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Pair whose shared box certifies the midpoint (x+y)/2.

    ``box_x`` is the shared midpoint box; ``box_y`` is the same object, for
    interface uniformity.
    """
    return _generated(_MIDPOINT, rng, dim, family_size, field)


def generate_twosided_pair(
    rng: np.random.Generator, dim: int, family_size: int, field: str
) -> PairInstance:
    """Pair with one box certifying both (x+y)/2 and (x-y)/2.

    The box midpoints sit between the two midpoint coefficient vectors and
    the diameter covers the larger of the two distances, so both conditions
    hold by construction.
    """
    return _generated(_TWOSIDED, rng, dim, family_size, field)
