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

Both modes run through one driver.  A search state is one flat array: the
mode's vectors (x, or x and y), then (midpoints, half-widths) of each
vector's box.  It is evaluated through the same private kernel as the bound
chains in :mod:`orthobounds.bounds` (condition slack, residual, deviation),
so the search has no formulas of its own; ``tests/reference.py`` stays the
independent second route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .bounds import CoefficientBox, counterpart_bounds, gruss_bounds
from .bounds import _deviation, _residual, _slack_inner
from .generate import Instance, PairInstance, certified_box_arrays
from .generate import check_seed, random_family, random_vector, rng_from_seed
from .space import COMPLEX, REAL, OrthonormalFamily, SpaceContext, Vector, as_vector
from .space import _coefficients, _dot, _norm_sq

#: Vectors per search state in each mode; the count is also the mode's key
#: in the restart RNG streams (seed, count, restart).
_VECTORS = {"residual": 1, "gruss": 2}

#: Hill-climbing steps start at _STEP_SCALE times the initial state's largest
#: entry (at least 1) and decay geometrically down to _FINAL_STEP_FRACTION of
#: that start over one restart.
_STEP_SCALE = 0.5
_FINAL_STEP_FRACTION = 1e-7


@dataclass(frozen=True)
class ExtremalInstance:
    """Equality instance of the residual chain, parameterized by m > 0.

    In the plane with the single unit member e = (1, 1)/sqrt(2), the vector
    x = (m, -m)/sqrt(2) is orthogonal to e, so the residual equals ||x||^2 =
    m^2 while the box [-m, m] gives coarse = m^2 and zero condition slack.
    """

    m: float
    ctx: SpaceContext
    x: Vector
    family: OrthonormalFamily
    indices: tuple[int, ...]
    box: CoefficientBox

    def report(self):
        return counterpart_bounds(self.ctx, self.x, self.family, self.indices, self.box)


def extremal_instance(m: float) -> ExtremalInstance:
    if not m > 0:
        raise ValueError("the extremal construction needs m > 0")
    ctx = SpaceContext(REAL, 2)
    s = 1.0 / np.sqrt(2.0)
    fam = OrthonormalFamily.from_members(ctx, [(s, s)])
    x = as_vector(ctx, (m * s, -m * s))
    box = CoefficientBox((0,), (complex(-m),), (complex(m),))
    return ExtremalInstance(m=float(m), ctx=ctx, x=x, family=fam, indices=(0,), box=box)


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
        if self.restarts < 1 or self.steps_per_restart < 1:
            raise ValueError("restarts and steps_per_restart must be >= 1")
        if not 1 <= self.family_size <= self.dimension:
            raise ValueError("need 1 <= family_size <= dimension")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {self.field!r}")
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


def _perturb(state: np.ndarray, slot: tuple[int, bool], delta: float) -> np.ndarray:
    candidate = state.copy()
    index, imaginary = slot
    candidate[index] += 1j * delta if imaginary else delta
    return candidate


def _hill_climb(state, evaluate, slots, steps, initial_scale):
    """Coordinate-wise hill climbing with geometric step decay.

    Sweeps the coordinates in order, trying +step and -step on each; the
    step shrinks geometrically whenever a full sweep produces no accepted
    move.  ``evaluate`` returns (ratio, slack, degenerate) for feasible
    states and None for infeasible ones.  Acceptance is lexicographic: a
    strictly larger ratio always wins, and at an unchanged ratio a strictly
    larger feasibility slack wins.  The tie rule matters: box midpoints do
    not enter the ratio at all, so recentering moves only ever show up as
    slack gains, and without them the offset coordinates jam against the
    feasibility boundary early.

    The evaluation budget is ``2 * steps`` (both directions per step); the
    climb stops early once the step underflows relative to its start.
    """
    best = evaluate(state)
    if best is None:
        raise AssertionError("hill climb must start from a feasible state")
    evaluations = 1
    budget = 2 * steps
    scale = initial_scale
    floor = _FINAL_STEP_FRACTION * initial_scale

    def accepts(value):
        return value is not None and (
            value[0] > best[0] or (value[0] == best[0] and value[1] > best[1])
        )

    while evaluations < budget and scale > floor:
        improved = False
        sweep_start = state
        for slot in slots:
            if evaluations >= budget:
                break
            for signed in (scale, -scale):
                candidate = _perturb(state, slot, signed)
                value = evaluate(candidate)
                evaluations += 1
                if accepts(value):
                    state, best = candidate, value
                    improved = True
                    break
                if evaluations >= budget:
                    break
        if not improved:
            scale *= 0.5
            continue
        # pattern move: ride the aggregated sweep direction while it keeps
        # paying off; single-coordinate steps alone crawl along the diagonal
        # ridges this objective is full of
        direction = state - sweep_start
        while evaluations < budget:
            candidate = state + direction
            value = evaluate(candidate)
            evaluations += 1
            if not accepts(value):
                break
            state, best = candidate, value
    return state, best, evaluations


#: Residuals and deviations below NOISE_FLOOR_REL times the instance scale
#: count as zero inside the search.  Without the floor, a run that drives the
#: true residual to zero (x in the span of F) could divide leftover rounding
#: noise by an ever-shrinking box and report an arbitrary fake ratio; with it
#: a nonzero ratio's rounding error is at most ``space.allowance`` at scale
#: (1/4) / NOISE_FLOOR_REL, the window the ``sharpness`` command checks.
NOISE_FLOOR_REL = 1e-5


def _split(flat: np.ndarray, dim: int, fsize: int, count: int):
    """Views of a flat state: ``count`` vectors, then (midpoints, half-widths)
    of each vector's box, as arrays of ``count`` rows each."""
    boxes = flat[count * dim :].reshape(count, 2, fsize)
    return flat[: count * dim].reshape(count, dim), boxes[:, 0], boxes[:, 1]


def _objective(value: float, diameter: float, scale: float, slack: float):
    """(ratio, slack, degenerate) of a feasible state: ``value`` over the box
    diameter term, with ``value`` below the noise floor counted as zero."""
    if value < NOISE_FLOOR_REL * scale:
        value = 0.0
    if diameter <= 0.0:
        return 0.0, slack, True
    return value / diameter, slack, False


def _make_evaluator(ctx: SpaceContext, rows: np.ndarray, mode: str):
    """State evaluator of one mode over the family rows: (ratio, slack,
    degenerate) for a feasible state, None once a condition slack is negative.
    The mode is settled here, not on every call, so each closure is branch-free."""
    dim, fsize = ctx.dimension, rows.shape[0]

    def diameter(d) -> float:
        return 4.0 * float(_dot(d, d).real)

    if mode == "residual":

        def evaluate(flat: np.ndarray):
            (x,), (mid,), (d,) = _split(flat, dim, fsize, 1)
            slack = _slack_inner(ctx, x, rows, mid - d, mid + d)
            if slack < 0.0:
                return None
            norm_sq, diam = _norm_sq(ctx, x), diameter(d)
            residual = _residual(norm_sq, _coefficients(ctx, x, rows))
            return _objective(residual, diam, norm_sq + diam, slack)

        return evaluate

    def evaluate(flat: np.ndarray):
        (x, y), (mid_x, mid_y), (d_x, d_y) = _split(flat, dim, fsize, 2)
        slack_x = _slack_inner(ctx, x, rows, mid_x - d_x, mid_x + d_x)
        if slack_x < 0.0:
            return None
        slack_y = _slack_inner(ctx, y, rows, mid_y - d_y, mid_y + d_y)
        if slack_y < 0.0:
            return None
        diam_x, diam_y = diameter(d_x), diameter(d_y)
        scale = np.sqrt((_norm_sq(ctx, x) + diam_x) * (_norm_sq(ctx, y) + diam_y))
        deviation = abs(_deviation(ctx, x, y, rows))
        # the slack SUM is the tie-break: with min() a recentering move on the
        # non-binding box would never be accepted
        slack = slack_x + slack_y
        return _objective(deviation, float(np.sqrt(diam_x * diam_y)), scale, slack)

    return evaluate


def _maximize(cfg: SearchConfig, mode: str) -> SharpnessResult:
    """Multi-start search of one mode; restart r draws the family, the
    vectors and then their boxes from the stream (seed, vector count, r)."""
    ctx = SpaceContext(cfg.field, cfg.dimension)
    indices = tuple(range(cfg.family_size))
    count = _VECTORS[mode]
    best = None
    evaluations = 0
    for restart in range(cfg.restarts):
        rng = rng_from_seed(cfg.seed, count, restart)
        fam = random_family(rng, ctx, cfg.family_size)
        vectors = [random_vector(rng, ctx) for _ in range(count)]
        boxes = [certified_box_arrays(rng, ctx, v, fam, indices) for v in vectors]
        flat = np.concatenate([*vectors, *(part for box in boxes for part in box)])
        evaluate = _make_evaluator(ctx, fam.members, mode)
        slots = _slots(flat.size, ctx.is_complex)
        scale = _STEP_SCALE * max(1.0, float(np.max(np.abs(flat))))
        state, (ratio, _slack, degenerate), used = _hill_climb(
            flat, evaluate, slots, cfg.steps_per_restart, scale
        )
        evaluations += used
        if best is None or ratio > best[0]:
            best = ratio, state, fam, degenerate
    ratio, state, fam, degenerate = best
    vectors, mids, half_widths = _split(state, ctx.dimension, cfg.family_size, count)
    vectors = [as_vector(ctx, v) for v in vectors]
    boxes = [CoefficientBox.centered(indices, m, d) for m, d in zip(mids, half_widths)]
    if mode == "residual":
        instance = Instance(ctx, *vectors, fam, indices, *boxes)
        report = counterpart_bounds(*instance)
    else:
        instance = PairInstance(ctx, *vectors, fam, indices, *boxes)
        report = gruss_bounds(*instance)
    payload = serialize.instance_to_dict(instance)
    payload.update(report=report.to_dict(), ratio=ratio, mode=mode)
    return SharpnessResult(float(ratio), payload, evaluations, degenerate)


def maximize_residual_ratio(cfg: SearchConfig = SearchConfig()) -> SharpnessResult:
    """Search for the largest certified residual-to-box-diameter ratio.

    The certified supremum is 1/4; with the default configuration the search
    gets within 1e-4 of it.
    """
    return _maximize(cfg, "residual")


def maximize_gruss_ratio(cfg: SearchConfig = SearchConfig()) -> SharpnessResult:
    """Search for the largest certified deviation-to-box-diameter ratio; the
    certified supremum is again 1/4."""
    return _maximize(cfg, "gruss")
