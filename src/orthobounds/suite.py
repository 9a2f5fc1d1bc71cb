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

Outcomes are deterministic per seed and serialize to JSON byte-identically
(the ``generated_at`` stamp is the one field excluded from comparisons).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .bounds import (
    bessel_residual,
    check_condition,
    companion_abs_bound,
    companion_bound,
    counterpart_bounds,
    gruss_bounds,
    gruss_deviation,
    instance_scale,
    pair_scale,
    residual_identity_sides,
)
from .generate import (
    Instance,
    PairInstance,
    generate_certified_instance,
    generate_certified_pair,
    generate_midpoint_pair,
    generate_twosided_pair,
    generate_unconstrained_instance,
    rng_from_seed,
)
from .space import (
    COMPLEX,
    REAL,
    SpaceContext,
    allowance,
    family_projection,
    inner_product,
    norm,
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
        if self.instance_count < 1:
            raise ValueError("instance_count must be positive")
        if not self.cells():
            raise ValueError(
                f"the grid has no cell: no family size in {list(self.family_sizes)} "
                f"fits a dimension in {list(self.dims)} over fields {list(self.fields)}"
            )

    def cells(self) -> list[tuple[int, int, str]]:
        return [
            (dim, fs, fld)
            for dim, fs, fld in itertools.product(self.dims, self.family_sizes, self.fields)
            if fs <= dim
        ]

    def to_dict(self) -> dict:
        return {
            "instance_count": self.instance_count,
            "dims": list(self.dims),
            "family_sizes": list(self.family_sizes),
            "fields": list(self.fields),
            "seed": self.seed,
        }


@dataclass
class CheckTally:
    passed: int = 0
    failed: int = 0
    worst_margin: float = float("inf")

    def record(self, ok: bool, margin: float) -> None:
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
    total_failed: int = 0

    @property
    def ok(self) -> bool:
        return self.total_failed == 0

    def record(self, name: str, ok: bool, margin: float, instance=None) -> None:
        tally = self.checks.setdefault(name, CheckTally())
        tally.record(ok, margin)
        if not ok:
            self.total_failed += 1
            if len(self.failures) < MAX_STORED_FAILURES and instance is not None:
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


def _pair_scale(inst: PairInstance) -> float:
    return pair_scale(inst.ctx, inst.x, inst.y, inst.box_x, inst.box_y)


def _instance_scale(inst: Instance) -> float:
    return instance_scale(inst.ctx, inst.x, inst.box)


def chain_allowance(inst: Instance | PairInstance, scale: float) -> float:
    """``space.allowance`` at ``scale`` for the instance's dimension, index
    set and family: how far any of its chain comparisons may miss."""
    size = len(inst.indices)
    return allowance(scale, inst.ctx.dimension + size, size, inst.family.gram_defect)


def check_counterpart_chain(inst: Instance) -> tuple[bool, float]:
    """Certified residual chain with per-step slack >= -allowance."""
    report = counterpart_bounds(*inst)
    margin = min(
        report.residual,
        report.refined - report.residual,
        report.coarse - report.refined,
    )
    return report.certified and margin >= -chain_allowance(inst, _instance_scale(inst)), margin


def check_identity(inst: Instance) -> tuple[bool, float]:
    """Two evaluation routes of the residual identity agree."""
    left, right = residual_identity_sides(inst.ctx, inst.x, inst.family, inst.indices, inst.box)
    margin = -abs(left - right)
    return margin >= -chain_allowance(inst, _instance_scale(inst)), margin


def check_condition_equivalence(inst: Instance) -> tuple[bool, float]:
    """Inner and norm slack forms agree in sign when both are resolvable."""
    tol = chain_allowance(inst, _instance_scale(inst))
    report = check_condition(inst.ctx, inst.x, inst.family, inst.indices, inst.box, tol=tol)
    if report.sign_disagreement:
        return False, -min(abs(report.slack_inner), abs(report.slack_norm))
    return True, 0.0


def check_gruss_chain(pair: PairInstance) -> tuple[bool, float]:
    """Certified deviation chain plus the squared Schwarz route."""
    report = gruss_bounds(
        pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x, pair.box_y
    )
    scale = _pair_scale(pair)
    tol, tol_sq = chain_allowance(pair, scale), chain_allowance(pair, scale**2)
    margin = min(
        report.refined - report.deviation_abs,
        report.coarse - report.refined,
        report.refined,
    )
    res_x = bessel_residual(pair.ctx, pair.x, pair.family, pair.indices)
    res_y = bessel_residual(pair.ctx, pair.y, pair.family, pair.indices)
    refined_x = pair.box_x.half_diameter_sq - report.condition_x.slack_inner
    refined_y = pair.box_y.half_diameter_sq - report.condition_y.slack_inner
    squared_ok = (
        report.deviation_abs**2 <= res_x * res_y + tol_sq
        and res_x * res_y <= refined_x * refined_y + tol_sq
    )
    ok = report.certified and margin >= -tol and squared_ok
    return ok, margin


def _projection_residuals(pair: PairInstance):
    """x - Px and y - Py, P the projection onto the pair's selected members."""
    ctx, x, y, fam, idx = pair.ctx, pair.x, pair.y, pair.family, pair.indices
    return x - family_projection(ctx, x, fam, idx), y - family_projection(ctx, y, fam, idx)


def check_projection_identity(pair: PairInstance) -> tuple[bool, float]:
    """gruss_deviation equals the inner product of the projection residuals."""
    direct = gruss_deviation(pair.ctx, pair.x, pair.y, pair.family, pair.indices)
    via_residuals = inner_product(pair.ctx, *_projection_residuals(pair))
    margin = -abs(direct - via_residuals)
    return margin >= -chain_allowance(pair, _pair_scale(pair)), margin


def check_schwarz(pair: PairInstance) -> tuple[bool, float]:
    """|<x-Px, y-Py>|^2 <= ||x-Px||^2 ||y-Py||^2."""
    ctx = pair.ctx
    u, v = _projection_residuals(pair)
    lhs = abs(inner_product(ctx, u, v)) ** 2
    rhs = norm(ctx, u) ** 2 * norm(ctx, v) ** 2
    margin = rhs - lhs
    return margin >= -chain_allowance(pair, _pair_scale(pair) ** 2), margin


def check_companion(pair: PairInstance) -> tuple[bool, float]:
    """Re(deviation) <= bound under the shared midpoint box."""
    report = companion_bound(
        pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x
    )
    margin = report.bound - report.re_deviation
    return report.certified and margin >= -chain_allowance(pair, _pair_scale(pair)), margin


def check_companion_abs(pair: PairInstance) -> tuple[bool, float]:
    """|Re(deviation)| <= bound under both (x+y)/2 and (x-y)/2 conditions."""
    report = companion_abs_bound(
        pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x
    )
    margin = report.bound - report.abs_re_deviation
    return report.certified and margin >= -chain_allowance(pair, _pair_scale(pair)), margin


def check_l2_embedding(inst: Instance) -> tuple[bool, float]:
    """A unit-weight (counting-measure) context reproduces the coordinate-backend
    report within the instance's allowance."""
    vector_report = counterpart_bounds(*inst)
    counting = SpaceContext(inst.ctx.field, inst.ctx.dimension, np.ones(inst.ctx.dimension))
    l2_report = counterpart_bounds(counting, inst.x, inst.family, inst.indices, inst.box)
    deltas = [
        abs(vector_report.residual - l2_report.residual),
        abs(vector_report.refined - l2_report.refined),
        abs(vector_report.coarse - l2_report.coarse),
        abs(vector_report.condition.slack_inner - l2_report.condition.slack_inner),
        abs(vector_report.condition.slack_norm - l2_report.condition.slack_norm),
    ]
    margin = -max(deltas)
    return margin >= -chain_allowance(inst, _instance_scale(inst)), margin


def run_suite(cfg: SuiteConfig) -> SuiteOutcome:
    """Execute every check over ``cfg.instance_count`` instances per cell.

    Results are deterministic for a given config; callers that keep the
    outcome write ``outcome.to_dict()``.
    """
    outcome = SuiteOutcome(config=cfg)
    for cell_index, (dim, fsize, fld) in enumerate(cfg.cells()):
        for i in range(cfg.instance_count):
            rng = rng_from_seed(cfg.seed, cell_index, i)
            inst = generate_certified_instance(rng, dim, fsize, fld)
            cond = check_condition(inst.ctx, inst.x, inst.family, inst.indices, inst.box)
            outcome.record("generator_soundness", cond.holds, cond.slack_inner, inst)
            ok, margin = check_counterpart_chain(inst)
            outcome.record("counterpart_chain", ok, margin, inst)
            ok, margin = check_identity(inst)
            outcome.record("identity", ok, margin, inst)
            ok, margin = check_condition_equivalence(inst)
            outcome.record("condition_equivalence", ok, margin, inst)
            ok, margin = check_l2_embedding(inst)
            outcome.record("l2_embedding", ok, margin, inst)

            loose = generate_unconstrained_instance(rng, dim, fsize, fld)
            ok, margin = check_condition_equivalence(loose)
            outcome.record("condition_equivalence", ok, margin, loose)

            pair = generate_certified_pair(rng, dim, fsize, fld)
            ok, margin = check_gruss_chain(pair)
            outcome.record("gruss_chain", ok, margin, pair)
            ok, margin = check_projection_identity(pair)
            outcome.record("projection_identity", ok, margin, pair)
            ok, margin = check_schwarz(pair)
            outcome.record("schwarz", ok, margin, pair)

            mid_pair = generate_midpoint_pair(rng, dim, fsize, fld)
            ok, margin = check_companion(mid_pair)
            outcome.record("companion", ok, margin, mid_pair)

            two_pair = generate_twosided_pair(rng, dim, fsize, fld)
            ok, margin = check_companion_abs(two_pair)
            outcome.record("companion_abs", ok, margin, two_pair)
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


def emit_tightness_table(instances_with_ids, out_path) -> None:
    """Write the refined-vs-coarse tightness comparison as CSV plot data."""
    serialize.write_csv(out_path, TIGHTNESS_HEADER, tightness_rows(instances_with_ids))
