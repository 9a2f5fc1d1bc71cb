"""Verification suite: run the library's inequality invariants over seeded
random instances and aggregate pass/fail tallies per check.

Every check below certifies a different link of the bound chains:

* ``generator_soundness``  - generated instances really do certify
* ``counterpart_chain``    - 0 <= residual <= refined <= coarse
* ``identity``             - the two residual-identity evaluation routes agree
* ``condition_equivalence``- the two slack forms agree in sign
* ``gruss_chain``          - |deviation| <= refined <= coarse plus the
                             squared Schwarz route |dev|^2 <= res_x * res_y
                             <= refined_x * refined_y
* ``projection_identity``  - deviation equals <x - Px, y - Py>
* ``schwarz``              - |<x-Px, y-Py>|^2 <= ||x-Px||^2 ||y-Py||^2
* ``companion``            - Re(deviation) <= bound under a midpoint box
* ``companion_abs``        - |Re(deviation)| <= bound under both +/- boxes
* ``l2_embedding``         - a unit-weight (counting-measure) context
                             reproduces the coordinate backend

Each comparison allows ``space.allowance`` at the instance's scale: the
rounding term for its dot-product length d + |F| plus |F| times the family's
Gram defect.

``run_suite`` generates and checks one cell at a time, its instances stacked
along a leading axis, on the kernel of :mod:`orthobounds.bounds`.  It reads
one table, ``_SOURCES``, from each generated source's declared draws to its
evaluator.  One pass, ``_evaluated``, reads the cell's build: every
vector's squared norm, one ``_coefficients`` call over all eight vectors (each
on its own source's family rows) and one ``_condition`` call over all seven
(vector, box) pairs (each box's covered vector, (x-y)/2 included).  An
evaluator receives its stack and its vectors' norms, coefficients and
conditions; a pair evaluator forms its deviation from the coefficients.  It
takes the allowance scale from the norms and derives all of the source's
records, a chain holding when it is certified and its ``margin`` is at least
minus the allowance.  The second routes of ``identity`` (the right side,
``_identity_right``, against the residual) and ``l2_embedding`` (a
counting-context report) are computed on purpose.  Records are tallied one at
a time, instance by instance.  Each public ``check_*`` enters the pass as a
drawn cell does: ``run_suite`` hands ``_evaluated`` a cell laid out by
``generate._drawn``, a ``check_*`` one instance laid out (and validated) by
``generate._given``, and ``_evaluated`` reads both through ``_stacks``.

Outcomes are deterministic per seed and serialize to JSON byte-identically
(the ``generated_at`` stamp is the one field excluded from comparisons).
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .bounds import (
    ConditionReport,
    _Boxes,
    _companion,
    _companion_abs,
    _condition,
    _counterpart,
    _deviation,
    _gruss,
    _identity_right,
    _instance_scale,
    _pair_scale,
    counterpart_bounds,
    gruss_bounds,
)
from .generate import (
    _CERTIFIED,
    _LOOSE,
    _MIDPOINT,
    _PAIR,
    _TWOSIDED,
    Instance,
    PairInstance,
    _drawn,
    _given,
    _row,
    _stacks,
    check_seed,
    rng_from_seed,
)
from .space import (
    COMPLEX,
    REAL,
    SpaceContext,
    _coefficients,
    _combine,
    _count,
    _field,
    _inner,
    _integer,
    _modulus,
    _norm_sq,
    allowance,
)

#: How many failing instances an outcome retains in full.
MAX_STORED_FAILURES = 25


@dataclass(frozen=True)
class SuiteConfig:
    """Grid of (dimension, family size, field) cells, each populated with
    ``instance_count`` seeded instances."""

    instance_count: int = 50
    dims: tuple[int, ...] = (2, 4, 8, 16)
    family_sizes: tuple[int, ...] = (1, 2, 4, 8)
    fields: tuple[str, ...] = (REAL, COMPLEX)
    seed: int = 20230516

    def __post_init__(self) -> None:
        object.__setattr__(self, "instance_count", _count("instance_count", self.instance_count))
        for name in ("dims", "family_sizes", "fields"):
            values = getattr(self, name)
            # a string or a scalar would be split into characters or not iterate
            if not isinstance(values, (tuple, list)):
                raise ValueError(f"{name} must be a tuple or a list, got {values!r}")
            object.__setattr__(self, name, tuple(values))
        # integers before the grid check, so that cells() compares numbers;
        # positive ones after it, so that --dims 0 names the empty grid
        names = ("dims", "family_sizes")
        for name in names:
            values = getattr(self, name)
            values = tuple(_integer(f"each of {name}", v, "a positive integer") for v in values)
            object.__setattr__(self, name, values)
        if not self.cells():
            raise ValueError(
                f"the grid has no cell: no family size in {list(self.family_sizes)} "
                f"fits a dimension in {list(self.dims)} over fields {list(self.fields)}"
            )
        for name in names:
            for value in getattr(self, name):
                _count(f"each of {name}", value)
        for value in self.fields:
            _field(value)
        # a repeated value would run its cells again, each on its own streams
        for name in ("dims", "family_sizes", "fields"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} must hold distinct values, got a second {value!r}")
        object.__setattr__(self, "seed", check_seed(self.seed))

    def cells(self) -> list[tuple[int, int, str]]:
        return [
            (dim, fs, fld)
            for dim, fs, fld in itertools.product(self.dims, self.family_sizes, self.fields)
            if fs <= dim
        ]

    def to_dict(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in vars(self).items()}


@dataclass
class CheckTally:
    passed: int = 0
    failed: int = 0
    worst_margin: float = float("inf")

    def record(self, ok: bool, margin: float) -> None:
        """Count one record's verdict and keep its margin if it is less than
        the worst so far: of equal least margins the first one stays (0.0
        before -0.0 keeps 0.0), and NaN never does."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
        if margin < self.worst_margin:
            self.worst_margin = margin

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failed": self.failed,
            "worst_margin": self.worst_margin if self.passed + self.failed else None,
        }


@dataclass
class SuiteOutcome:
    config: SuiteConfig
    checks: dict[str, CheckTally] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def total_failed(self) -> int:
        return sum(tally.failed for tally in self.checks.values())

    @property
    def ok(self) -> bool:
        return self.total_failed == 0

    def _store(self, name: str, margin: float, instance) -> None:
        payload = serialize.instance_to_dict(instance)
        payload["check"] = name
        payload["margin"] = margin
        self.failures.append(payload)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "checks": {name: tally.to_dict() for name, tally in sorted(self.checks.items())},
            "failures": self.failures,
            "total_failed": self.total_failed,
            "ok": self.ok,
        }


def chain_allowance(inst: Instance | PairInstance, scale: float) -> float:
    """``space.allowance`` at ``scale`` for the instance's dimension, index
    set and family: how far any of its chain comparisons may miss."""
    size = len(inst.indices)
    return allowance(scale, inst.ctx.dimension + size, size, inst.family.gram_defect)


def check_generator_soundness(inst: Instance) -> tuple[bool, float]:
    """The generated box certifies x, with the inner-product slack as margin."""
    return _replay(_CERTIFIED, "generator_soundness", inst)


def check_counterpart_chain(inst: Instance) -> tuple[bool, float]:
    """Certified residual chain with per-step slack >= -allowance."""
    return _replay(_CERTIFIED, "counterpart_chain", inst)


def check_identity(inst: Instance) -> tuple[bool, float]:
    """Two evaluation routes of the residual identity agree."""
    return _replay(_CERTIFIED, "identity", inst)


def check_condition_equivalence(inst: Instance) -> tuple[bool, float]:
    """Inner and norm slack forms agree in sign when both are resolvable."""
    return _replay(_LOOSE, "condition_equivalence", inst)


def check_gruss_chain(pair: PairInstance) -> tuple[bool, float]:
    """Certified deviation chain plus the squared Schwarz route."""
    return _replay(_PAIR, "gruss_chain", pair)


def check_projection_identity(pair: PairInstance) -> tuple[bool, float]:
    """The deviation equals the inner product of the projection residuals."""
    return _replay(_PAIR, "projection_identity", pair)


def check_schwarz(pair: PairInstance) -> tuple[bool, float]:
    """|<x-Px, y-Py>|^2 <= ||x-Px||^2 ||y-Py||^2."""
    return _replay(_PAIR, "schwarz", pair)


def check_companion(pair: PairInstance) -> tuple[bool, float]:
    """Re(deviation) <= bound under the shared midpoint box."""
    return _replay(_MIDPOINT, "companion", pair)


def check_companion_abs(pair: PairInstance) -> tuple[bool, float]:
    """|Re(deviation)| <= bound under both (x+y)/2 and (x-y)/2 conditions."""
    return _replay(_TWOSIDED, "companion_abs", pair)


def check_l2_embedding(inst: Instance) -> tuple[bool, float]:
    """A unit-weight (counting-measure) context reproduces the coordinate-backend
    report within the instance's allowance."""
    return _replay(_CERTIFIED, "l2_embedding", inst)


def _replay(source, name: str, inst):
    """Record ``name`` of ``source``'s evaluator on one instance, laid out by
    ``generate._given`` and fed through the cell pass as a drawn cell is."""
    records = _evaluated(inst.ctx, *_given(source, inst))
    ok, margin = next((ok, margin) for check, _, ok, margin in records if check == name)
    return bool(ok), float(margin)


# The evaluators, one per entry of ``_SOURCES``.  ``inst`` holds arrays with a
# leading batch axis (or none) and its family the selected rows, followed by
# what ``_evaluated`` computed for it; the records {name: (ok, margin)} are
# arrays, in the order ``run_suite`` records them.  As in the kernel, each
# operation is the same numpy call on a stack and on one of its rows, so a
# stacked margin is the per-instance one bit for bit.


def _verdict(report, tol):
    """A certified chain whose tightest link misses by at most ``tol``."""
    margin = report.margin
    return report.certified & (margin >= -tol), margin


def _equivalence(condition: ConditionReport, tol):
    """The two slack forms agree in sign wherever both exceed ``tol`` in
    magnitude; a disagreement's margin is minus the smaller magnitude."""
    slack_inner, slack_norm = condition.slack_inner, condition.slack_norm
    closest = np.minimum(np.abs(slack_inner), np.abs(slack_norm))
    disagreement = (closest > tol) & ((slack_inner > 0) != (slack_norm > 0))
    return ~disagreement, np.where(disagreement, -closest, 0.0)


def _instance_records(inst: Instance, norm_sq, c, condition):
    ctx, x, rows, box = inst.ctx, inst.x, inst.family.members, inst.box
    report = _counterpart(norm_sq, c, box, condition)
    tol = chain_allowance(inst, _instance_scale(norm_sq, box))
    # two deliberate second routes: the identity's right side takes the slack
    # from the vectors, and a unit-weight context recomputes the whole report
    identity = -np.abs(report.residual - _identity_right(ctx, x, c, rows, box))
    counting = _counting(ctx.field, ctx.dimension)
    counting_norm_sq = _norm_sq(counting, x)
    counting_condition = _condition(counting, x, counting_norm_sq, rows, box)
    counting_c = _coefficients(counting, x, rows)
    l2_report = _counterpart(counting_norm_sq, counting_c, box, counting_condition)
    embedding = -np.maximum.reduce([
        np.abs(report.residual - l2_report.residual),
        np.abs(report.refined - l2_report.refined),
        np.abs(report.coarse - l2_report.coarse),
        np.abs(report.condition.slack_inner - l2_report.condition.slack_inner),
        np.abs(report.condition.slack_norm - l2_report.condition.slack_norm),
    ])
    return {
        "generator_soundness": (report.condition.holds, report.condition.slack_inner),
        "counterpart_chain": _verdict(report, tol),
        "identity": (identity >= -tol, identity),
        "condition_equivalence": _equivalence(report.condition, tol),
        "l2_embedding": (embedding >= -tol, embedding),
    }


@lru_cache(maxsize=64)
def _counting(field: str, dimension: int) -> SpaceContext:
    """The unit-weight context of the coordinate space (field, dimension)."""
    return SpaceContext(field, dimension, np.ones(dimension))


def _loose_records(inst: Instance, norm_sq, c, condition):
    tol = chain_allowance(inst, _instance_scale(norm_sq, inst.box))
    return {"condition_equivalence": _equivalence(condition, tol)}


def _pair_records(pair: PairInstance, norm_sq_x, norm_sq_y, c_x, c_y, condition_x, condition_y):
    ctx, x, y, rows = pair.ctx, pair.x, pair.y, pair.family.members
    deviation = _deviation(ctx, x, y, c_x, c_y)
    report = _gruss(pair.box_x, pair.box_y, condition_x, condition_y, deviation)
    scale = _pair_scale(norm_sq_x, norm_sq_y, pair.box_x, pair.box_y)
    tol, tol_sq = chain_allowance(pair, scale), chain_allowance(pair, scale * scale)
    # the squared Schwarz route of the chain, through each vector's residual chain
    chain_x = _counterpart(norm_sq_x, c_x, pair.box_x, condition_x)
    chain_y = _counterpart(norm_sq_y, c_y, pair.box_y, condition_y)
    residuals = chain_x.residual * chain_y.residual
    squared_ok = (report.deviation_abs ** 2 <= residuals + tol_sq) & (
        residuals <= chain_x.refined * chain_y.refined + tol_sq
    )
    chain_ok, chain_margin = _verdict(report, tol)
    # the projection residuals x - Px and y - Py
    u, v = x - _combine(c_x, rows), y - _combine(c_y, rows)
    uv = _inner(ctx, u, v)
    identity = -_modulus(deviation - uv)
    schwarz = _norm_sq(ctx, u) * _norm_sq(ctx, v) - _modulus(uv) ** 2
    return {
        "gruss_chain": (chain_ok & squared_ok, chain_margin),
        "projection_identity": (identity >= -tol, identity),
        "schwarz": (schwarz >= -tol_sq, schwarz),
    }


def _shared_box_verdict(report, pair: PairInstance, norm_sq_x, norm_sq_y):
    """``_verdict`` of a companion report, whose one box ``box_x`` enters the
    pair scale on both sides."""
    scale = _pair_scale(norm_sq_x, norm_sq_y, pair.box_x, pair.box_x)
    return _verdict(report, chain_allowance(pair, scale))


def _midpoint_records(pair: PairInstance, norm_sq_x, norm_sq_y, c_x, c_y, condition):
    report = _companion(pair.box_x, condition, _deviation(pair.ctx, pair.x, pair.y, c_x, c_y))
    return {"companion": _shared_box_verdict(report, pair, norm_sq_x, norm_sq_y)}


def _twosided_records(pair: PairInstance, norm_sq_x, norm_sq_y, c_x, c_y, condition_sum, condition_diff):
    deviation = _deviation(pair.ctx, pair.x, pair.y, c_x, c_y)
    report = _companion_abs(pair.box_x, condition_sum, condition_diff, deviation)
    return {"companion_abs": _shared_box_verdict(report, pair, norm_sq_x, norm_sq_y)}


#: Each generated source's declared draws and its evaluator, in the order
#: ``run_suite`` draws and records them.
_SOURCES = {
    _CERTIFIED: _instance_records,
    _LOOSE: _loose_records,
    _PAIR: _pair_records,
    _MIDPOINT: _midpoint_records,
    _TWOSIDED: _twosided_records,
}


def _evaluated(ctx, plan, built) -> list[tuple]:
    """Every record of the sources of ``plan`` as (check, stack, ok, margin),
    in record order, from one pass over what their stacks (``_stacks``) share:
    the squared norm and the coefficients (over its own source's family rows)
    of every vector of ``built``, a drawn cell or one replayed instance, and
    the box condition of every (box, cover) pair."""
    stacks = _stacks(ctx, plan, built)
    norm_sq = _norm_sq(ctx, built.vectors)
    coefficients = _coefficients(ctx, built.vectors, built.members[plan.vector_source])
    covered = built.covered
    boxes = _Boxes(*(array[plan.cover_box] for array in built.boxes))
    condition = _condition(ctx, covered, _norm_sq(ctx, covered), built.cover_rows, boxes)
    # a constant allowance gives one tolerance for every pair
    tolerance = np.broadcast_to(condition.tolerance, condition.holds.shape)
    fields = (condition.slack_inner, condition.slack_norm, condition.holds, tolerance)
    conditions = [ConditionReport(*(field[p] for field in fields)) for p in range(len(covered))]
    records = []
    for source, stack, (vectors, _), covers in zip(plan.sources, stacks, plan.slices, plan.covers_of):
        own = (conditions[p] for p in covers)
        evaluated = _SOURCES[source](stack, *norm_sq[vectors], *coefficients[vectors], *own)
        records += [(name, stack, ok, margin) for name, (ok, margin) in evaluated.items()]
    return records


def run_suite(cfg: SuiteConfig) -> SuiteOutcome:
    """Execute every check over ``cfg.instance_count`` instances per cell.

    Instance i of cell c draws from the stream ``rng_from_seed(seed, c, i)``,
    once per entry of ``_SOURCES``: a certified instance, an unconstrained
    one, a certified pair, a midpoint pair and a two-sided pair, in that
    order, the draws the public generators make one after another.  A cell
    is drawn and built at once (``generate._drawn``) and checked in one pass
    over its stacks, one per source; evaluation draws nothing.  Its records
    are tallied instance by instance, in record order (a check of two sources
    alternates them), and a failing one is stored, rebuilt from its row of
    the stack, until ``MAX_STORED_FAILURES`` are.  Results are deterministic
    for a given config; callers that keep the outcome write
    ``outcome.to_dict()``.
    """
    outcome = SuiteOutcome(config=cfg)
    for cell_index, (dim, fsize, fld) in enumerate(cfg.cells()):
        ctx = SpaceContext(fld, dim)
        rngs = [rng_from_seed(cfg.seed, cell_index, i) for i in range(cfg.instance_count)]
        records = [
            (outcome.checks.setdefault(name, CheckTally()).record, name, stack, ok.tolist(), margin.tolist())
            for name, stack, ok, margin in _evaluated(ctx, *_drawn(rngs, ctx, fsize, _SOURCES))
        ]
        for i in range(cfg.instance_count):
            for record, name, stack, ok, margin in records:
                record(ok[i], margin[i])
                if not ok[i] and len(outcome.failures) < MAX_STORED_FAILURES:
                    outcome._store(name, margin[i], _row(stack, i))
    return outcome


def tightness_rows(instances_with_ids) -> list[tuple]:
    """Rows (id, value, refined, coarse, slack_x, slack_y, ratio) for CSV.

    ``instances_with_ids`` yields (identifier, Instance-or-PairInstance);
    single instances report the residual chain, pairs the deviation chain.
    """
    rows = []
    for identifier, inst in instances_with_ids:
        if isinstance(inst, PairInstance):
            report = gruss_bounds(
                inst.ctx, inst.x, inst.y, inst.family, inst.indices, inst.box_x, inst.box_y
            )
            value = report.deviation_abs
            slack_x = report.condition_x.slack_inner
            slack_y = report.condition_y.slack_inner
        else:
            report = counterpart_bounds(*inst)
            value = report.residual
            slack_x = report.condition.slack_inner
            slack_y = ""
        # the sharpness normalization: value over sum |Phi - phi|^2 (or its
        # product-form analogue), which equals 4 * coarse in both chains;
        # the best constant shows up as ratio 0.25
        ratio = value / (4.0 * report.coarse) if report.coarse > 0 else 0.0
        rows.append(
            (identifier, value, report.refined, report.coarse, slack_x, slack_y, ratio)
        )
    return rows


TIGHTNESS_HEADER = (
    "instance-id",
    "residual-or-deviation",
    "refined",
    "coarse",
    "slack_x",
    "slack_y",
    "ratio",
)
