"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with ``pytest -s`` to see them inline).

The randomized criteria share one seeded instance grid:
dims {2,4,8,16} x family sizes {1,2,4,8} x fields {real, complex},
restricted to family_size <= dim (26 cells), with enough instances per cell
to clear 10,000 in total.
"""

import itertools
import math
import time

import numpy as np

from orthobounds import (
    COMPLEX,
    REAL,
    SearchConfig,
    check_condition,
    companion_abs_bound,
    companion_bound,
    counterpart_bounds,
    extremal_instance,
    gruss_bounds,
    instance_scale,
    maximize_gruss_ratio,
    maximize_residual_ratio,
    norm,
    residual_identity_sides,
    sample,
    sandwich_box,
    sandwich_check,
    scalar_lemmas_check,
)
from orthobounds.generate import (
    generate_certified_instance,
    generate_certified_pair,
    generate_midpoint_pair,
    generate_twosided_pair,
    generate_unconstrained_instance,
    rng_from_seed,
)
from orthobounds.quadrature import (
    WeightedL2Context,
    build_family,
    periodic_trapezoid,
)
from orthobounds.suite import check_l2_embedding

SEED = 20230516
DIMS = (2, 4, 8, 16)
FAMILY_SIZES = (1, 2, 4, 8)
FIELDS = (REAL, COMPLEX)
CELLS = [
    (dim, fs, fld)
    for dim, fs, fld in itertools.product(DIMS, FAMILY_SIZES, FIELDS)
    if fs <= dim
]
TARGET = 10_000
PER_CELL = -(-TARGET // len(CELLS))  # 385 -> 10,010 instances

_cache: dict = {}


def conclude(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {number} ({name}): {verdict} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _pool(kind: str, generator, stream: int):
    key = (kind, stream)
    if key not in _cache:
        start = time.perf_counter()
        pool = []
        for cell_index, (dim, fs, fld) in enumerate(CELLS):
            for i in range(PER_CELL):
                rng = rng_from_seed(SEED, stream, cell_index, i)
                pool.append(generator(rng, dim, fs, fld))
        _cache[key] = (pool, time.perf_counter() - start)
    return _cache[key]


def certified_pool():
    return _pool("certified", generate_certified_instance, 1)


def unconstrained_pool():
    return _pool("unconstrained", generate_unconstrained_instance, 2)


def pair_pool():
    return _pool("pairs", generate_certified_pair, 3)


def midpoint_pool():
    return _pool("midpoint", generate_midpoint_pair, 4)


def twosided_pool():
    return _pool("twosided", generate_twosided_pair, 5)


def test_criterion_1_extremal_equality():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_slack = 0.0
    for m in (0.5, 1.0, 2.0, 10.0):
        report = extremal_instance(m).report()
        target = m * m
        for value in (report.residual, report.refined, report.coarse):
            worst_rel = max(worst_rel, abs(value - target) / target)
        worst_slack = max(worst_slack, abs(report.condition.slack_inner))
        assert report.certified
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-12 and worst_slack <= 1e-14 and elapsed < 1.0
    conclude(
        1,
        "extremal equality",
        ok,
        f"max rel err {worst_rel:.2e}, max |slack| {worst_slack:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_counterpart_chain():
    pool, build_time = certified_pool()
    start = time.perf_counter()
    failures = 0
    worst = math.inf
    for inst in pool:
        report = counterpart_bounds(*inst)
        scale = instance_scale(inst.ctx, inst.x, inst.box)
        margin = min(
            report.residual,
            report.refined - report.residual,
            report.coarse - report.refined,
        )
        worst = min(worst, margin / scale if scale > 0 else margin)
        if not report.certified or margin < -1e-9 * scale:
            failures += 1
    elapsed = build_time + (time.perf_counter() - start)
    ok = failures == 0 and elapsed < 30.0
    conclude(
        2,
        "counterpart chain",
        ok,
        f"{len(pool)} instances, {failures} failures, worst margin/scale {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_identity_oracle():
    pool, _ = certified_pool()
    failures = 0
    worst = 0.0
    for inst in pool:
        left, right = residual_identity_sides(
            inst.ctx, inst.x, inst.family, inst.indices, inst.box
        )
        scale = instance_scale(inst.ctx, inst.x, inst.box)
        gap = abs(left - right) / scale if scale > 0 else abs(left - right)
        worst = max(worst, gap)
        if abs(left - right) > 1e-10 * scale:
            failures += 1
    ok = failures == 0
    conclude(
        3,
        "identity oracle",
        ok,
        f"{len(pool)} instances, {failures} failures, worst |l-r|/scale {worst:.2e}",
    )


def test_criterion_4_condition_equivalence():
    certified, _ = certified_pool()
    unconstrained, _ = unconstrained_pool()
    disagreements = 0
    checked = 0
    for inst in itertools.chain(certified, unconstrained):
        scale = instance_scale(inst.ctx, inst.x, inst.box)
        report = check_condition(*inst, tol=1e-10 * scale)
        resolvable = min(abs(report.slack_inner), abs(report.slack_norm)) > 1e-10 * scale
        if resolvable:
            checked += 1
            if (report.slack_inner > 0) != (report.slack_norm > 0):
                disagreements += 1
    ok = disagreements == 0
    conclude(
        4,
        "condition equivalence",
        ok,
        f"{len(certified) + len(unconstrained)} instances, {checked} sign-resolvable, "
        f"{disagreements} disagreements",
    )


def test_criterion_5_gruss_chain():
    pool, build_time = pair_pool()
    start = time.perf_counter()
    failures = 0
    worst = math.inf
    for pair in pool:
        report = gruss_bounds(
            pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x, pair.box_y
        )
        scale = (
            norm(pair.ctx, pair.x) ** 2
            + norm(pair.ctx, pair.y) ** 2
            + pair.box_x.half_diameter_sq
            + pair.box_y.half_diameter_sq
        )
        margin = min(
            report.refined - report.deviation_abs,
            report.coarse - report.refined,
            report.refined,
        )
        worst = min(worst, margin / scale if scale > 0 else margin)
        chain_ok = report.certified and margin >= -1e-9 * scale
        rep_x = counterpart_bounds(pair.ctx, pair.x, pair.family, pair.indices, pair.box_x)
        rep_y = counterpart_bounds(pair.ctx, pair.y, pair.family, pair.indices, pair.box_y)
        squared_ok = (
            report.deviation_abs**2 <= rep_x.residual * rep_y.residual + 1e-9 * scale**2
            and rep_x.residual * rep_y.residual
            <= rep_x.refined * rep_y.refined + 1e-9 * scale**2
        )
        if not (chain_ok and squared_ok):
            failures += 1
    elapsed = build_time + (time.perf_counter() - start)
    ok = failures == 0
    conclude(
        5,
        "gruss chain",
        ok,
        f"{len(pool)} pairs, {failures} failures, worst margin/scale {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_companion_bounds():
    midpoints, t_mid = midpoint_pool()
    twosided, t_two = twosided_pool()
    start = time.perf_counter()
    failures = 0
    for pair in midpoints:
        report = companion_bound(
            pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x
        )
        scale = (
            norm(pair.ctx, pair.x) ** 2
            + norm(pair.ctx, pair.y) ** 2
            + pair.box_x.half_diameter_sq
        )
        if not report.certified or report.re_deviation > report.bound + 1e-9 * scale:
            failures += 1
    for pair in twosided:
        report = companion_abs_bound(
            pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x
        )
        scale = (
            norm(pair.ctx, pair.x) ** 2
            + norm(pair.ctx, pair.y) ** 2
            + pair.box_x.half_diameter_sq
        )
        if not report.certified or report.abs_re_deviation > report.bound + 1e-9 * scale:
            failures += 1
    elapsed = t_mid + t_two + (time.perf_counter() - start)
    ok = failures == 0
    conclude(
        6,
        "companion bounds",
        ok,
        f"{len(midpoints)} midpoint + {len(twosided)} two-sided pairs, "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_7_sharpness():
    start = time.perf_counter()
    residual_result = maximize_residual_ratio(SearchConfig())
    residual_time = time.perf_counter() - start
    start = time.perf_counter()
    gruss_result = maximize_gruss_ratio(SearchConfig())
    gruss_time = time.perf_counter() - start
    ok = (
        0.2499 <= residual_result.best_ratio <= 0.25 + 1e-9
        and 0.2499 <= gruss_result.best_ratio <= 0.25 + 1e-9
        and residual_time < 30.0
        and gruss_time < 30.0
    )
    conclude(
        7,
        "sharpness of 1/4",
        ok,
        f"residual {residual_result.best_ratio:.7f} ({residual_time:.1f}s), "
        f"gruss {gruss_result.best_ratio:.7f} ({gruss_time:.1f}s)",
    )


def test_criterion_8_l2_equivalence():
    per_cell = -(-1000 // len(CELLS))
    failures = 0
    count = 0
    worst = 0.0
    for cell_index, (dim, fs, fld) in enumerate(CELLS):
        for i in range(per_cell):
            rng = rng_from_seed(SEED, 8, cell_index, i)
            inst = generate_certified_instance(rng, dim, fs, fld)
            _, margin = check_l2_embedding(inst)
            worst = max(worst, -margin)
            count += 1
            if not -margin <= 1e-12:
                failures += 1
    ok = failures == 0
    conclude(
        8,
        "L2 backend equivalence",
        ok,
        f"{count} instances, {failures} failures, worst |delta| {worst:.2e}",
    )


def test_criterion_9_closed_form_l2_case():
    ctx = WeightedL2Context.uniform_density(periodic_trapezoid(1024))
    fam = build_family(ctx, "trig", 1)
    f = sample(ctx, lambda s: 2.0 + np.sin(s))
    root = math.sqrt(2.0 * math.pi)
    m, M = {0: root}, {0: 3.0 * root}
    sandwich = sandwich_check(ctx, f, fam, (0,), m, M, tol=1e-12)
    report = counterpart_bounds(ctx.context, f, fam, (0,), sandwich_box((0,), m, M))
    errors = {
        "residual": abs(report.residual - math.pi),
        "refined": abs(report.refined - math.pi),
        "coarse": abs(report.coarse - 2.0 * math.pi),
    }
    ok = sandwich.holds and report.certified and all(e <= 1e-8 for e in errors.values())
    conclude(
        9,
        "closed-form L2 case",
        ok,
        "sandwich holds, " + ", ".join(f"{k} err {v:.2e}" for k, v in errors.items()),
    )


def test_criterion_10_scalar_lemmas():
    rng = rng_from_seed(SEED, 10)
    start = time.perf_counter()
    violations = 0
    draws = 100_000
    for _ in range(draws):
        a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        m, n, p, q = rng.uniform(-10, 10, 4)
        first, second = scalar_lemmas_check(a, b, m, n, p, q)
        if not (first and second):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    conclude(
        10,
        "scalar lemmas",
        ok,
        f"{draws} draws, {violations} violations, {elapsed:.1f}s",
    )
