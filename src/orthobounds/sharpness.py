"""Numerical confirmation that 1/4 is the best constant in the bound chains.

Two routes:

* :func:`extremal_instance` reproduces the two-dimensional construction that
  attains equality throughout the residual chain (residual = refined =
  coarse = m^2 with zero condition slack), which pins the constant from
  below exactly.
* :func:`maximize_residual_ratio` / :func:`maximize_gruss_ratio` run a
  seeded multi-start random search with coordinate-wise hill climbing and
  geometric step decay over certified instances, maximizing the
  bound-tightness ratios

      residual / sum|Phi_i - phi_i|^2              (residual mode)
      |deviation| / (sum|Phi-phi|^2 sum|Gamma-gamma|^2)^(1/2)   (gruss mode)

  Infeasible proposals (negative condition slack) are rejected outright, so
  every evaluated ratio is certified and can never exceed 1/4 beyond
  roundoff.  The search is gradient-free because the feasible set is
  nonconvex in the box parameters.

Both modes run through one driver, and each public search function declares
its mode once: the vector count (1 or 2, also the key of the restart
streams), the stacked evaluator, the instance kind and the chain that
reports on the best state.  A search state is one flat array: the mode's
vectors (x, or x and y), then (midpoints, half-widths) of each vector's box.
The evaluator maps a stack of states to (infeasible, ratio, slack,
degenerate) arrays through the same private kernel as the bound chains in
:mod:`orthobounds.bounds` (condition slack, residual, deviation), so the
search has no formulas of its own; ``tests/reference.py`` stays the
independent second route.  The gruss evaluator passes x and y, their
midpoints and their half-widths as (2, n, ...) stacks through one call each
of the slack, norm, coefficient and diameter kernels, and the deviation
takes the two rows of the one coefficient stack.  That one evaluator serves
the poll, which evaluates a sweep's moves along the rows of a direction
matrix (today the coordinate directions) in stacked chunks, and the start
state and the pattern moves as stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .bounds import CoefficientBox, counterpart_bounds, gruss_bounds
from .bounds import _deviation, _residual, _slack_inner
from .generate import _FAMILY, Instance, PairInstance, _Box, _drawn, _Families, _Vector
from .generate import check_seed, rng_from_seed
from .space import REAL, OrthonormalFamily, SpaceContext, as_vector
from .space import _coefficients, _count, _dot, _field, _modulus, _norm_sq

#: Hill-climbing steps start at _STEP_SCALE times the initial state's largest
#: entry (at least 1) and decay geometrically down to _FINAL_STEP_FRACTION of
#: that start over one restart.
_STEP_SCALE = 0.5
_FINAL_STEP_FRACTION = 1e-7


def extremal_instance(m: float) -> Instance:
    """Equality instance of the residual chain, parameterized by m > 0.

    In the plane with the single unit member e = (1, 1)/sqrt(2), the vector
    x = (m, -m)/sqrt(2) is orthogonal to e, so the residual equals ||x||^2 =
    m^2 while the box [-m, m] gives coarse = m^2 and zero condition slack.
    """
    if not m > 0:
        raise ValueError("the extremal construction needs m > 0")
    ctx = SpaceContext(REAL, 2)
    s = 1.0 / np.sqrt(2.0)
    fam = OrthonormalFamily.from_members(ctx, [(s, s)])
    x = as_vector(ctx, (m * s, -m * s))
    return Instance(ctx, x, fam, (0,), CoefficientBox((0,), (complex(-m),), (complex(m),)))


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the multi-start search; identical configs give identical
    results (restart r draws its stream from (seed, mode's vector count, r))."""

    dimension: int = 4
    family_size: int = 2
    field: str = REAL
    restarts: int = 64
    steps_per_restart: int = 2000
    seed: int = 1905

    def __post_init__(self) -> None:
        for name in ("dimension", "family_size", "restarts", "steps_per_restart"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.family_size > self.dimension:
            raise ValueError("need 1 <= family_size <= dimension")
        _field(self.field)
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class SharpnessResult:
    best_ratio: float
    best_instance: dict
    evaluations: int
    degenerate: bool = False


def _coordinate_directions(size: int, complex_field: bool) -> np.ndarray:
    """The coordinate poll's directions: the identity over a state's ``size``
    coordinates, then ``1j`` times it for a complex field."""
    eye = np.eye(size, dtype=np.complex128)
    return np.concatenate([eye, 1j * eye]) if complex_field else eye


#: Moves per stacked poll chunk.  The chunk only has to outlast the usual run
#: of rejected moves (an accepted move comes every 17-29 evaluations) without
#: paying much for the moves after an early hit.  Timed on the 64 reference
#: restarts (restarts 0-15 of seed 1905 in both modes on (4,2,real) and
#: (16,8,complex)), 2-vCPU x86-64 Xeon, numpy 2.4.6: a prototype took 1.74 s
#: at 32 moves per chunk, 1.82 s doubling from 8, 1.76 s doubling from 16,
#: 2.20 s on the whole remaining sweep and 4.87-5.05 s one move at a time;
#: this climb takes 2.67, 1.97, 1.69 and 1.68 s at 8, 16, 32 and 64 moves,
#: 1.81 s on the whole sweep and 4.61 s one move at a time.  With the stacked
#: gruss evaluator, 8 alternating rounds gave medians of 0.89, 0.87 and
#: 0.89 s at 16, 32 and 64 moves, and no size won every round.
_CHUNK = 32


def _hill_climb(state, evaluate, directions, steps, initial_scale):
    """Hill climbing along the rows of ``directions`` with geometric step
    decay and a stacked, opportunistic poll.

    A sweep tries the moves +step, -step along each row in order and accepts
    the first acceptable one; after an accepted move the sweep goes on at the
    next row from the new state.  The step shrinks geometrically whenever a
    full sweep produces no accepted move.  ``evaluate`` maps a stack of states
    to (infeasible, ratio, slack, degenerate) arrays.  Acceptance is
    lexicographic: a strictly larger ratio always wins, and at an unchanged
    ratio a strictly larger feasibility slack wins; an infeasible state or a
    NaN slack never wins.  The tie rule matters: box midpoints do not enter
    the ratio at all, so recentering moves only ever show up as slack gains,
    and without them the offset coordinates jam against the feasibility
    boundary early.

    The poll is stacked: the sweep's next ``_CHUNK`` moves from the current
    state (fewer at the end of the sweep or of the budget) are evaluated as
    one stack ``state + scaled[a:b]``, with ``scaled = step * moves`` formed
    once per step size (the bits of ``state + step * moves[a:b]``), and the
    first acceptable one in the sequential order, the acceptance mask's
    ``argmax``, is taken.  ``evaluations`` counts the moves that order
    would have tried: up to and including the accepted one, or the whole
    chunk on a miss.  So the budget, the step schedule and every trajectory
    are those of trying one move at a time.  The start state and each
    pattern move are stacks of one.  A unit coordinate direction moves its
    coordinate by exactly +-step and adds a zero to every other coordinate,
    which can only turn a -0.0 part into +0.0.

    The evaluation budget is ``2 * steps`` (both directions per step); the
    climb stops early once the step underflows relative to its start.
    """
    infeasible, best = _row(evaluate(state[None]), 0)
    if infeasible:
        raise AssertionError("hill climb must start from a feasible state")
    evaluations = 1
    budget = 2 * steps
    scale = initial_scale
    floor = _FINAL_STEP_FRACTION * initial_scale
    moves = np.stack([directions, -directions], axis=1).reshape(-1, directions.shape[-1])
    scaled = scale * moves

    def acceptable(values):
        infeasible, ratio, slack, _ = values
        wins = ratio > best[0]
        wins |= (ratio == best[0]) & (slack > best[1])
        wins &= slack == slack  # a NaN slack never wins
        return wins > infeasible  # wins & ~infeasible, in one call

    while evaluations < budget and scale > floor:
        improved = False
        sweep_start = state
        move = 0
        while move < len(moves) and evaluations < budget:
            count = min(_CHUNK, len(moves) - move, budget - evaluations)
            chunk = state + scaled[move : move + count]
            values = evaluate(chunk)
            wins = acceptable(values)
            hit = int(wins.argmax())
            if not wins[hit]:
                evaluations += count
                move += count
                continue
            evaluations += hit + 1
            state, (_, best) = chunk[hit], _row(values, hit)
            improved = True
            move = (move + hit) // 2 * 2 + 2  # the next row's +step
        if not improved:
            scale *= 0.5
            np.multiply(scale, moves, out=scaled)  # in place: one scaled copy at a time
            continue
        # pattern move: ride the aggregated sweep direction while it keeps
        # paying off; single-coordinate steps alone crawl along the diagonal
        # ridges this objective is full of
        direction = state - sweep_start
        while evaluations < budget:
            candidate = state + direction
            values = evaluate(candidate[None])
            evaluations += 1
            if not acceptable(values)[0]:
                break
            state, (_, best) = candidate, _row(values, 0)
    return state, best, evaluations


def _row(values, index: int):
    """Row ``index`` of evaluated values as Python scalars: (infeasible,
    (ratio, slack, degenerate))."""
    infeasible, ratio, slack, degenerate = values
    return bool(infeasible[index]), (
        float(ratio[index]), float(slack[index]), bool(degenerate[index])
    )


#: Residuals and deviations below NOISE_FLOOR_REL times the instance scale
#: count as zero inside the search.  Without the floor, a run that drives the
#: true residual to zero (x in the span of F) could divide leftover rounding
#: noise by an ever-shrinking box and report an arbitrary fake ratio; with it
#: a nonzero ratio's rounding error is at most ``space.allowance`` at scale
#: (1/4) / NOISE_FLOOR_REL, the window the ``sharpness`` command checks.
NOISE_FLOOR_REL = 1e-5


def _split(flat: np.ndarray, dim: int, fsize: int, count: int):
    """Views of a state (size,) or a stack of states (n, size): ``count``
    vectors, then (midpoints, half-widths) of each vector's box, each with
    the vector axis first, (count, dim) or (count, n, dim)."""
    lead = flat.shape[:-1]
    vectors = flat[..., : count * dim].reshape(*lead, count, dim).swapaxes(0, -2)
    boxes = flat[..., count * dim :].reshape(*lead, count, 2, fsize).swapaxes(0, -2)
    return vectors, boxes[0], boxes[1]


def _objective(infeasible, value, diameter, scale, slack):
    """(infeasible, ratio, slack, degenerate) of a stack: ``value`` over the
    box diameter term, with ``value`` below the noise floor counted as zero
    and a zero diameter giving ratio 0 and the degenerate flag."""
    value = np.where(value < NOISE_FLOOR_REL * scale, 0.0, value)
    degenerate = diameter <= 0.0
    ratio = np.divide(value, diameter, out=np.zeros(value.shape), where=~degenerate)
    return infeasible, ratio, slack, degenerate


def _diameter(d):
    return 4.0 * _dot(d, d).real


def _residual_evaluator(ctx: SpaceContext, rows: np.ndarray):
    """Stacked state evaluator of the residual mode over the family rows: a
    stack of states (n, size) to (infeasible, ratio, slack, degenerate) arrays
    of n.  A state is infeasible once a condition slack is negative; a NaN
    slack is not.  The hill climb evaluates its start state, its poll chunks
    and its pattern moves all through this one function, and each row's
    values are the bits it gets as a stack of one."""
    dim, fsize = ctx.dimension, rows.shape[0]

    def evaluate(stack: np.ndarray):
        vectors, mids, halves = _split(stack, dim, fsize, 1)
        x, mid, d = vectors[0], mids[0], halves[0]  # indexing, not iterating
        slack = _slack_inner(ctx, x, rows, mid - d, mid + d)
        norm_sq, diam = _norm_sq(ctx, x), _diameter(d)
        residual = _residual(norm_sq, _coefficients(ctx, x, rows))
        return _objective(slack < 0.0, residual, diam, norm_sq + diam, slack)

    return evaluate


def _gruss_evaluator(ctx: SpaceContext, rows: np.ndarray):
    """``_residual_evaluator`` of the gruss mode: states carry x and y."""
    dim, fsize = ctx.dimension, rows.shape[0]

    def evaluate(stack: np.ndarray):
        vectors, mid, d = _split(stack, dim, fsize, 2)
        slack = _slack_inner(ctx, vectors, rows, mid - d, mid + d)
        diam = _diameter(d)
        scales = _norm_sq(ctx, vectors) + diam
        c = _coefficients(ctx, vectors, rows)  # indexed: unpacking was 1 us/call slower (Xeon)
        deviation = _modulus(_deviation(ctx, vectors[0], vectors[1], c[0], c[1]))
        # the slack SUM is the tie-break: with min() a recentering move on the
        # non-binding box would never be accepted
        negative = slack < 0.0
        return _objective(
            negative[0] | negative[1],
            deviation,
            np.sqrt(diam[0] * diam[1]),
            np.sqrt(scales[0] * scales[1]),
            slack[0] + slack[1],
        )

    return evaluate


def _start_states(cfg: SearchConfig, count: int, ctx: SpaceContext):
    """Every restart's family and start state (restarts, size), drawn as one
    stack through the draw plan ``run_suite`` draws a cell with: the stream
    (seed, count, r) of restart r draws its family, then its ``count``
    vectors, then their boxes."""
    rngs = [rng_from_seed(cfg.seed, count, r) for r in range(cfg.restarts)]
    names = "xy"[:count]
    source = (_FAMILY, *(_Vector(scaled=False) for _ in names), *(_Box((name,)) for name in names))
    _, built = _drawn(rngs, ctx, cfg.family_size, (source,))
    boxes = (part for box in zip(built.mid, built.half) for part in box)
    families = _Families(built.members[0], built.gram_defect[0])
    return families, np.concatenate([*built.vectors, *boxes], -1)


def _maximize(cfg: SearchConfig, mode: str, count: int, evaluator, kind, chain) -> SharpnessResult:
    """Multi-start search of one mode: ``count`` vectors per state, each with
    its own box, scored by ``evaluator(ctx, rows)``; the best state comes back
    as a ``kind`` instance with its ``chain`` report.  Restart r climbs from
    row r of ``_start_states``.
    """
    ctx = SpaceContext(cfg.field, cfg.dimension)
    indices = tuple(range(cfg.family_size))
    families, states = _start_states(cfg, count, ctx)
    directions = _coordinate_directions(states.shape[-1], ctx.is_complex)
    best = None
    evaluations = 0
    for restart, (members, flat) in enumerate(zip(families.members, states)):
        scale = _STEP_SCALE * max(1.0, float(np.max(np.abs(flat))))
        state, (ratio, _slack, degenerate), used = _hill_climb(
            flat, evaluator(ctx, members), directions, cfg.steps_per_restart, scale
        )
        evaluations += used
        if best is None or ratio > best[0]:
            best = ratio, state, restart, degenerate
    ratio, state, restart, degenerate = best
    fam = OrthonormalFamily(families.members[restart], float(families.gram_defect[restart]))
    vectors, mids, half_widths = _split(state, ctx.dimension, cfg.family_size, count)
    vectors = [as_vector(ctx, v) for v in vectors]
    boxes = [CoefficientBox.centered(indices, m, d) for m, d in zip(mids, half_widths)]
    instance = kind(ctx, *vectors, fam, indices, *boxes)
    payload = serialize.instance_to_dict(instance)
    payload.update(report=chain(*instance).to_dict(), ratio=ratio, mode=mode)
    return SharpnessResult(float(ratio), payload, evaluations, degenerate)


def maximize_residual_ratio(cfg: SearchConfig = SearchConfig()) -> SharpnessResult:
    """Search for the largest certified residual-to-box-diameter ratio.

    The certified supremum is 1/4; with the default configuration the search
    gets within 1e-4 of it.
    """
    return _maximize(cfg, "residual", 1, _residual_evaluator, Instance, counterpart_bounds)


def maximize_gruss_ratio(cfg: SearchConfig = SearchConfig()) -> SharpnessResult:
    """Search for the largest certified deviation-to-box-diameter ratio; the
    certified supremum is again 1/4."""
    return _maximize(cfg, "gruss", 2, _gruss_evaluator, PairInstance, gruss_bounds)
