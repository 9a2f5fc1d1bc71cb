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
independent second route.  That one evaluator serves the coordinate poll,
which evaluates a sweep's moves in stacked chunks, and the start state and
the pattern moves as stacks of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .bounds import CoefficientBox, counterpart_bounds, gruss_bounds
from .bounds import _deviation, _residual, _slack_inner
from .generate import Instance, PairInstance, _box_arrays, _families, _gaussians
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
        check_seed(self.seed)


@dataclass(frozen=True)
class SharpnessResult:
    best_ratio: float
    best_instance: dict
    evaluations: int
    degenerate: bool = False


def _slots(total: int, complex_field: bool) -> list[tuple[int, bool]]:
    slots = [(i, False) for i in range(total)]
    if complex_field:
        slots += [(i, True) for i in range(total)]
    return slots


#: Moves per stacked poll chunk.  The chunk only has to outlast the usual run
#: of rejected moves (an accepted move comes every 17-29 evaluations) without
#: paying much for the moves after an early hit.  Timed on the 64 reference
#: restarts (restarts 0-15 of seed 1905 in both modes on (4,2,real) and
#: (16,8,complex)), 2-vCPU x86-64 Xeon, numpy 2.4.6: a prototype took 1.74 s
#: at 32 moves per chunk, 1.82 s doubling from 8, 1.76 s doubling from 16,
#: 2.20 s on the whole remaining sweep and 4.87-5.05 s one move at a time;
#: this climb takes 2.67, 1.97, 1.69 and 1.68 s at 8, 16, 32 and 64 moves,
#: 1.81 s on the whole sweep and 4.61 s one move at a time.
_CHUNK = 32


def _hill_climb(state, evaluate, slots, steps, initial_scale):
    """Coordinate-wise hill climbing with geometric step decay and a stacked,
    opportunistic poll.

    A sweep tries the moves (slot k, +step), (slot k, -step) for each slot in
    order and accepts the first acceptable one; after an accepted move the
    sweep goes on at slot k+1 from the new state.  The step shrinks
    geometrically whenever a full sweep produces no accepted move.
    ``evaluate`` maps a stack of states to (infeasible, ratio, slack,
    degenerate) arrays.  Acceptance is lexicographic: a strictly larger ratio
    always wins, and at an unchanged ratio a strictly larger feasibility slack
    wins; an infeasible state or a NaN slack never wins.  The tie rule
    matters: box midpoints do not enter the ratio at all, so recentering moves
    only ever show up as slack gains, and without them the offset coordinates
    jam against the feasibility boundary early.

    The poll is stacked: the sweep's next ``_CHUNK`` moves from the current
    state (fewer at the end of the sweep or of the budget) are evaluated as
    one stack, and the first acceptable one in the sequential order is taken.
    ``evaluations`` counts the moves that order would have tried: up to and
    including the accepted one, or the whole chunk on a miss.  So the budget,
    the step schedule and every trajectory are those of trying one move at a
    time.  The start state and each pattern move are stacks of one.

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
    columns = np.repeat([index for index, _ in slots], 2)
    moves = columns.size

    def acceptable(values):
        infeasible, ratio, slack, _ = values
        wins = (ratio > best[0]) | ((ratio == best[0]) & (slack > best[1]))
        return wins & ~infeasible & ~np.isnan(slack)

    while evaluations < budget and scale > floor:
        improved = False
        sweep_start = state
        # each move's delta as the Python scalar a single move adds, so even
        # the signs of its zero parts match
        deltas = np.array(
            [1j * signed if imaginary else signed
             for _, imaginary in slots for signed in (scale, -scale)],
            dtype=np.complex128,
        )
        move = 0
        while move < moves and evaluations < budget:
            count = min(_CHUNK, moves - move, budget - evaluations)
            chunk = np.repeat(state[None], count, axis=0)
            chunk[np.arange(count), columns[move : move + count]] += deltas[move : move + count]
            values = evaluate(chunk)
            hits = np.flatnonzero(acceptable(values))
            if not hits.size:
                evaluations += count
                move += count
                continue
            hit = int(hits[0])
            evaluations += hit + 1
            state, (_, best) = chunk[hit], _row(values, hit)
            improved = True
            move = (move + hit) // 2 * 2 + 2  # the next slot's +step
        if not improved:
            scale *= 0.5
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
    infeasible, ratio, slack, degenerate = (part[index] for part in values)
    return bool(infeasible), (float(ratio), float(slack), bool(degenerate))


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
    vectors = flat[..., : count * dim].reshape(*lead, count, dim)
    boxes = flat[..., count * dim :].reshape(*lead, count, 2, fsize)
    return (
        vectors.swapaxes(0, -2),
        boxes[..., 0, :].swapaxes(0, -2),
        boxes[..., 1, :].swapaxes(0, -2),
    )


def _objective(infeasible, value, diameter, scale, slack):
    """(infeasible, ratio, slack, degenerate) of a stack: ``value`` over the
    box diameter term, with ``value`` below the noise floor counted as zero
    and a zero diameter giving ratio 0 and the degenerate flag."""
    value = np.where(value < NOISE_FLOOR_REL * scale, 0.0, value)
    degenerate = diameter <= 0.0
    ratio = np.divide(value, diameter, out=np.zeros_like(value), where=~degenerate)
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
        (x,), (mid,), (d,) = _split(stack, dim, fsize, 1)
        slack = _slack_inner(ctx, x, rows, mid - d, mid + d)
        norm_sq, diam = _norm_sq(ctx, x), _diameter(d)
        residual = _residual(norm_sq, _coefficients(ctx, x, rows))
        return _objective(slack < 0.0, residual, diam, norm_sq + diam, slack)

    return evaluate


def _gruss_evaluator(ctx: SpaceContext, rows: np.ndarray):
    """``_residual_evaluator`` of the gruss mode: states carry x and y."""
    dim, fsize = ctx.dimension, rows.shape[0]

    def evaluate(stack: np.ndarray):
        (x, y), (mid_x, mid_y), (d_x, d_y) = _split(stack, dim, fsize, 2)
        slack_x = _slack_inner(ctx, x, rows, mid_x - d_x, mid_x + d_x)
        slack_y = _slack_inner(ctx, y, rows, mid_y - d_y, mid_y + d_y)
        diam_x, diam_y = _diameter(d_x), _diameter(d_y)
        scale = np.sqrt((_norm_sq(ctx, x) + diam_x) * (_norm_sq(ctx, y) + diam_y))
        deviation = _modulus(_deviation(ctx, x, y, rows))
        # the slack SUM is the tie-break: with min() a recentering move on the
        # non-binding box would never be accepted
        infeasible = (slack_x < 0.0) | (slack_y < 0.0)
        return _objective(
            infeasible, deviation, np.sqrt(diam_x * diam_y), scale, slack_x + slack_y
        )

    return evaluate


def _start_states(cfg: SearchConfig, count: int, ctx: SpaceContext):
    """Every restart's family and start state (restarts, size), drawn as one
    stack the way ``run_suite`` draws a cell: the stream (seed, count, r) of
    restart r draws its family, then its ``count`` vectors, then their boxes."""
    rngs = [rng_from_seed(cfg.seed, count, r) for r in range(cfg.restarts)]
    families = _families(rngs, ctx, cfg.family_size)
    vectors = [_gaussians(rngs, (ctx.dimension,), ctx.is_complex) for _ in range(count)]
    boxes = [_box_arrays(rngs, ctx, [v], families.members) for v in vectors]
    return families, np.concatenate([*vectors, *(part for box in boxes for part in box)], -1)


def _maximize(cfg: SearchConfig, mode: str, count: int, evaluator, kind, chain) -> SharpnessResult:
    """Multi-start search of one mode: ``count`` vectors per state, each with
    its own box, scored by ``evaluator(ctx, rows)``; the best state comes back
    as a ``kind`` instance with its ``chain`` report.  Restart r climbs from
    row r of ``_start_states``.
    """
    ctx = SpaceContext(cfg.field, cfg.dimension)
    indices = tuple(range(cfg.family_size))
    families, states = _start_states(cfg, count, ctx)
    slots = _slots(states.shape[-1], ctx.is_complex)
    best = None
    evaluations = 0
    for restart, (members, flat) in enumerate(zip(families.members, states)):
        scale = _STEP_SCALE * max(1.0, float(np.max(np.abs(flat))))
        state, (ratio, _slack, degenerate), used = _hill_climb(
            flat, evaluator(ctx, members), slots, cfg.steps_per_restart, scale
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
