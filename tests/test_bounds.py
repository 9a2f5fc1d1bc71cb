import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobounds import bounds, serialize
from orthobounds.bounds import (
    CoefficientBox,
    check_condition,
    companion_abs_bound,
    companion_bound,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
    pair_scale,
    residual_identity_sides,
    scalar_lemmas_check,
)
from orthobounds.cli import main
from orthobounds.generate import (
    Instance,
    _gaussians,
    certified_box_arrays,
    generate_certified_instance,
    generate_certified_pair,
    generate_unconstrained_instance,
    rng_from_seed,
)
from orthobounds.space import (
    COMPLEX,
    REAL,
    OrthonormalFamily,
    SpaceContext,
    allowance,
    as_vector,
    gram_schmidt,
    inner_product,
    norm,
)
from reference import (
    ref_coefficient_term,
    ref_deviation,
    ref_half_diameter_sq,
    ref_residual,
    ref_slack_inner,
    ref_slack_norm,
)
from test_space import projection

S = 1.0 / math.sqrt(2.0)


def _sign_disagreement(report):
    """Both slacks of a ConditionReport exceed its tolerance in magnitude and
    disagree in sign."""
    resolvable = min(abs(report.slack_inner), abs(report.slack_norm)) > report.tolerance
    return resolvable and (report.slack_inner > 0) != (report.slack_norm > 0)


def _endpoints(box):
    """The box's (lower, upper) as lists of Python complex numbers, for the
    reference oracle."""
    return box.lower_array.tolist(), box.upper_array.tolist()


def _residual(ctx, x, fam, F):
    """||x||^2 - sum_F |<x, e_i>|^2, read off a report over a zero-width box:
    the residual does not read the box."""
    box = CoefficientBox(F, [0.0] * len(F), [0.0] * len(F))
    return counterpart_bounds(ctx, x, fam, F, box).residual


def _deviation(ctx, x, y, fam, F):
    """<x,y> - sum_F <x,e_i><e_i,y>, read off a report over zero-width boxes."""
    box = CoefficientBox(F, [0.0] * len(F), [0.0] * len(F))
    return gruss_bounds(ctx, x, y, fam, F, box, box).deviation


@pytest.fixture()
def r3():
    """The worked 3-dimensional example: x, y, standard basis, F = {0, 1}."""
    ctx = SpaceContext(REAL, 3)
    fam = OrthonormalFamily.from_members(ctx, np.eye(3))
    x = as_vector(ctx, (0.5, 0.3, 0.2))
    y = as_vector(ctx, (0.2, 0.6, 0.1))
    unit_box = CoefficientBox((0, 1), (0, 0), (1, 1))
    return ctx, x, y, fam, (0, 1), unit_box


@pytest.fixture()
def extremal():
    """Unit member (1,1)/sqrt(2), x = (1,-1)/sqrt(2), box [-1, 1]."""
    ctx = SpaceContext(REAL, 2)
    fam = OrthonormalFamily.from_members(ctx, [(S, S)])
    x = as_vector(ctx, (S, -S))
    box = CoefficientBox((0,), (-1,), (1,))
    return ctx, x, fam, (0,), box


class TestCoefficientBox:
    def test_half_diameter(self):
        box = CoefficientBox((0, 1), (0, 0), (1, 1))
        assert box.half_diameter_sq == 0.5
        assert 4 * box.half_diameter_sq == 2.0

    def test_endpoint_norm_sq_is_the_larger_endpoint(self):
        box = CoefficientBox((0, 1), (3.0, -4j), (1.0, 2.0))
        assert box.endpoint_norm_sq == 25.0
        assert CoefficientBox((0,), (1e160,), (1e160 + 1e146,)).endpoint_norm_sq == math.inf

    def test_degenerate_box_is_legal(self):
        box = CoefficientBox((0,), (0.7,), (0.7,))
        assert box.half_diameter_sq == 0.0

    def test_rejects_nonfinite_endpoints(self):
        with pytest.raises(ValueError, match="finite"):
            CoefficientBox((0,), (np.nan,), (1.0,))

    def test_rejects_diameter_overflow(self):
        # finite endpoints whose squared diameter overflows would give
        # coarse = inf and refined = NaN in a report marked certified
        with pytest.raises(ValueError, match="overflows"):
            CoefficientBox((0,), (-1e200,), (1e200,))

    @pytest.mark.parametrize(
        "indices, lower, upper",
        [
            ((0, 1), (0.0,), (1.0, 1.0)),
            ((0,), 0.5, 1.0),
            ((0, 1), [[0, 0], [0, 0]], [[1, 1], [1, 1]]),
        ],
        ids=["short", "scalar", "nested"],
    )
    def test_length_mismatch(self, indices, lower, upper):
        # scalar and nested endpoints used to raise TypeError from len() and
        # from the complex conversion
        with pytest.raises(ValueError, match="one entry per index"):
            CoefficientBox(indices, lower, upper)

    @pytest.mark.parametrize(
        "midpoints, half_widths",
        [([0.5, 0.5], [0.1]), (0.5, [0.1, 0.1]), ([0.5], [0.1, 0.1]), ([[0.5, 0.5]], [0.1, 0.1])],
        ids=["one-half-width", "scalar-midpoint", "one-midpoint", "nested"],
    )
    def test_centered_does_not_broadcast(self, midpoints, half_widths):
        # midpoint -/+ half-width used to broadcast before the constructor
        # counted entries, so one half-width served every index
        with pytest.raises(ValueError, match="one entry per index"):
            CoefficientBox.centered((0, 1), midpoints, half_widths)


class TestConditionSlackInner:
    """``check_condition(...).slack_inner``, the inner-product form."""

    def test_extremal_equality_case(self, extremal):
        ctx, x, fam, F, box = extremal
        assert abs(check_condition(ctx, x, fam, F, box).slack_inner) <= 1e-15

    def test_unit_box_value(self, r3):
        ctx, x, _, fam, F, box = r3
        value = check_condition(ctx, x, fam, F, box).slack_inner
        assert value == pytest.approx(0.42, rel=1e-14)

    def test_zero_vector_gives_family_count(self):
        ctx = SpaceContext(REAL, 4)
        fam = OrthonormalFamily.from_members(ctx, np.eye(4))
        box = CoefficientBox((0, 1, 2), (-1, -1, -1), (1, 1, 1))
        x = as_vector(ctx, np.zeros(4))
        value = check_condition(ctx, x, fam, (0, 1, 2), box).slack_inner
        assert value == pytest.approx(3.0, rel=1e-14)

    def test_violated_condition_is_negative(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0)])
        box = CoefficientBox((0,), (-1,), (1,))
        x = as_vector(ctx, (10, 0))
        value = check_condition(ctx, x, fam, (0,), box).slack_inner
        assert value == pytest.approx(-99.0, rel=1e-14)

    def test_matches_reference_on_random_instances(self):
        for field in (REAL, COMPLEX):
            for i in range(50):
                rng = rng_from_seed(101, i, int(field == COMPLEX))
                inst = generate_unconstrained_instance(rng, 5, 3, field)
                got = check_condition(*inst).slack_inner
                want = ref_slack_inner(
                    list(inst.x), [list(r) for r in inst.family.members],
                    inst.indices, *_endpoints(inst.box),
                )
                scale = instance_scale(inst.ctx, inst.x, inst.box)
                assert abs(got - want) <= 1e-12 * scale

    def test_box_index_mismatch(self, r3):
        ctx, x, _, fam, _, box = r3
        with pytest.raises(ValueError, match="box covers"):
            check_condition(ctx, x, fam, (0, 2), box)


class TestConditionSlackNorm:
    """``check_condition(...).slack_norm``, the norm form."""

    def test_extremal_equality_case(self, extremal):
        ctx, x, fam, F, box = extremal
        assert abs(check_condition(ctx, x, fam, F, box).slack_norm) <= 1e-15

    def test_unit_box_value(self, r3):
        ctx, x, _, fam, F, box = r3
        value = check_condition(ctx, x, fam, F, box).slack_norm
        assert value == pytest.approx(0.4242640687119285, rel=1e-13)

    def test_degenerate_box_centered_on_projection(self, r3):
        ctx, x, _, fam, F, _ = r3
        mids = (0.5, 0.3)
        box = CoefficientBox(F, mids, mids)
        x_in_span = as_vector(ctx, (0.5, 0.3, 0.0))
        value = check_condition(ctx, x_in_span, fam, F, box).slack_norm
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_matches_reference(self, r3):
        ctx, x, _, fam, F, box = r3
        want = ref_slack_norm(list(x), [list(r) for r in fam.members], F, *_endpoints(box))
        value = check_condition(ctx, x, fam, F, box).slack_norm
        assert value == pytest.approx(want, rel=1e-13)


class TestCheckCondition:
    def test_extremal_holds_with_zero_slacks(self, extremal):
        ctx, x, fam, F, box = extremal
        report = check_condition(ctx, x, fam, F, box)
        assert report.holds
        assert abs(report.slack_inner) <= 1e-15
        assert abs(report.slack_norm) <= 1e-15
        assert not _sign_disagreement(report)

    def test_unit_box_example(self, r3):
        ctx, x, _, fam, F, box = r3
        report = check_condition(ctx, x, fam, F, box)
        assert report.holds
        assert report.slack_inner == pytest.approx(0.42, rel=1e-14)
        assert report.slack_norm == pytest.approx(0.4242640687119285, rel=1e-13)

    def test_violated_condition(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0)])
        box = CoefficientBox((0,), (-1,), (1,))
        report = check_condition(ctx, as_vector(ctx, (10, 0)), fam, (0,), box)
        assert not report.holds
        assert report.slack_inner == pytest.approx(-99.0, rel=1e-14)

    def test_explicit_tolerance_allows_small_negatives(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0)])
        box = CoefficientBox((0,), (0.0,), (1.0,))
        x = as_vector(ctx, (1.0 + 1e-12, 0.0))
        strict = check_condition(ctx, x, fam, (0,), box, tol=0.0)
        loose = check_condition(ctx, x, fam, (0,), box, tol=1e-9)
        assert not strict.holds
        assert loose.holds

    def test_sign_agreement_over_random_instances(self):
        disagreements = 0
        for i in range(400):
            rng = rng_from_seed(77, i)
            inst = generate_unconstrained_instance(rng, 4, 2, COMPLEX if i % 2 else REAL)
            scale = instance_scale(inst.ctx, inst.x, inst.box)
            report = check_condition(*inst, tol=1e-10 * scale)
            if _sign_disagreement(report):
                disagreements += 1
        assert disagreements == 0


class TestBesselResidual:
    def test_family_member(self, r3):
        ctx, _, _, fam, _, _ = r3
        assert _residual(ctx, fam.members[0], fam, (0,)) == pytest.approx(0.0, abs=1e-15)

    def test_extremal_value(self, extremal):
        ctx, x, fam, F, _ = extremal
        assert _residual(ctx, x, fam, F) == pytest.approx(1.0, rel=1e-14)

    def test_worked_example(self, r3):
        ctx, x, _, fam, F, _ = r3
        assert _residual(ctx, x, fam, F) == pytest.approx(0.04, rel=1e-12)

    def test_nonnegative_for_certified_families(self):
        for i in range(100):
            rng = rng_from_seed(31, i)
            inst = generate_certified_instance(rng, 6, 3, COMPLEX if i % 2 else REAL)
            value = _residual(inst.ctx, inst.x, inst.family, inst.indices)
            assert value >= -1e-12 * norm(inst.ctx, inst.x) ** 2

    def test_matches_reference(self, r3):
        ctx, x, _, fam, F, _ = r3
        want = ref_residual(list(x), [list(r) for r in fam.members], F)
        assert _residual(ctx, x, fam, F) == pytest.approx(want, rel=1e-13)


class TestResidualIdentity:
    def test_zero_vector_degenerate_box(self):
        ctx = SpaceContext(REAL, 3)
        fam = OrthonormalFamily.from_members(ctx, np.eye(3))
        box = CoefficientBox((0, 1), (0, 0), (0, 0))
        left, right = residual_identity_sides(ctx, as_vector(ctx, np.zeros(3)), fam, (0, 1), box)
        assert left == pytest.approx(0.0, abs=1e-15)
        assert right == pytest.approx(0.0, abs=1e-15)

    def test_extremal_both_sides_one(self, extremal):
        ctx, x, fam, F, box = extremal
        left, right = residual_identity_sides(ctx, x, fam, F, box)
        assert left == pytest.approx(1.0, rel=1e-14)
        assert right == pytest.approx(1.0, rel=1e-14)

    def test_worked_example_sides(self, r3):
        ctx, x, _, fam, F, box = r3
        left, right = residual_identity_sides(ctx, x, fam, F, box)
        assert left == pytest.approx(0.04, rel=1e-12)
        assert right == pytest.approx(0.04, rel=1e-10)

    def test_agreement_on_random_instances(self):
        for field in (REAL, COMPLEX):
            for i in range(200):
                rng = rng_from_seed(13, i, int(field == COMPLEX))
                inst = generate_unconstrained_instance(rng, 8, 4, field)
                left, right = residual_identity_sides(
                    inst.ctx, inst.x, inst.family, inst.indices, inst.box
                )
                scale = instance_scale(inst.ctx, inst.x, inst.box)
                assert abs(left - right) <= 1e-10 * scale


class TestCounterpartBounds:
    def test_extremal_triple_equality(self, extremal):
        ctx, x, fam, F, box = extremal
        report = counterpart_bounds(ctx, x, fam, F, box)
        assert report.certified
        assert report.residual == pytest.approx(1.0, rel=1e-14)
        assert report.refined == pytest.approx(1.0, rel=1e-14)
        assert report.coarse == pytest.approx(1.0, rel=1e-14)

    def test_worked_example_chain(self, r3):
        ctx, x, _, fam, F, box = r3
        report = counterpart_bounds(ctx, x, fam, F, box)
        assert report.certified
        assert report.residual == pytest.approx(0.04, rel=1e-12)
        assert report.refined == pytest.approx(0.08, rel=1e-12)
        assert report.coarse == pytest.approx(0.5, rel=1e-15)

    def test_degenerate_box_equality_throughout(self, r3):
        ctx, _, _, fam, _, _ = r3
        box = CoefficientBox((0,), (1.0,), (1.0,))
        report = counterpart_bounds(ctx, fam.members[0], fam, (0,), box)
        assert report.certified
        assert abs(report.residual) <= 1e-15
        assert abs(report.refined) <= 1e-15
        assert report.coarse == 0.0

    def test_uncertified_instances_still_report(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0)])
        box = CoefficientBox((0,), (-1,), (1,))
        report = counterpart_bounds(ctx, as_vector(ctx, (10, 0)), fam, (0,), box)
        assert not report.certified
        assert report.residual == pytest.approx(0.0, abs=1e-13)
        assert report.refined == pytest.approx(1.0 - (-99.0))

    def test_chain_holds_on_certified_instances(self):
        for i in range(300):
            rng = rng_from_seed(3, i)
            inst = generate_certified_instance(rng, 8, 4, COMPLEX if i % 3 == 0 else REAL)
            report = counterpart_bounds(*inst)
            scale = instance_scale(inst.ctx, inst.x, inst.box)
            assert report.certified
            assert report.residual >= -1e-9 * scale
            assert report.residual <= report.refined + 1e-9 * scale
            assert report.refined <= report.coarse + 1e-9 * scale

    def test_requires_certified_family(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0), (S, S)])
        box = CoefficientBox((0,), (0,), (1,))
        with pytest.raises(ValueError, match="not certified"):
            counterpart_bounds(ctx, fam.members[0], fam, (0,), box)


class TestGrussDeviation:
    def test_projection_reproduces_member(self, r3):
        ctx, x, _, fam, _, _ = r3
        for vec in (x, fam.members[1], as_vector(ctx, (3.0, -2.0, 0.5))):
            value = _deviation(ctx, vec, fam.members[0], fam, (0,))
            assert abs(value) <= 1e-14

    def test_equal_vectors_give_residual(self, r3):
        ctx, x, _, fam, F, _ = r3
        value = _deviation(ctx, x, x, fam, F)
        assert value.imag == pytest.approx(0.0, abs=1e-15)
        assert value.real == pytest.approx(_residual(ctx, x, fam, F), rel=1e-12)

    def test_worked_example(self, r3):
        ctx, x, y, fam, F, _ = r3
        assert _deviation(ctx, x, y, fam, F) == pytest.approx(0.02, rel=1e-12)

    def test_matches_projection_residual_inner_product(self):
        for i in range(100):
            rng = rng_from_seed(17, i)
            pair = generate_certified_pair(rng, 6, 3, COMPLEX if i % 2 else REAL)
            ctx, x, y, fam, F = pair.ctx, pair.x, pair.y, pair.family, pair.indices
            direct = _deviation(ctx, x, y, fam, F)
            u = x - projection(ctx, x, fam, F)
            v = y - projection(ctx, y, fam, F)
            other = inner_product(ctx, u, v)
            scale = norm(ctx, x) ** 2 + norm(ctx, y) ** 2
            assert abs(direct - other) <= 1e-10 * scale

    def test_matches_reference(self, r3):
        ctx, x, y, fam, F, _ = r3
        want = ref_deviation(list(x), list(y), [list(r) for r in fam.members], F)
        assert _deviation(ctx, x, y, fam, F) == pytest.approx(want, rel=1e-13)


class TestGrussBounds:
    def test_worked_example(self, r3):
        ctx, x, y, fam, F, box = r3
        report = gruss_bounds(ctx, x, y, fam, F, box, box)
        assert report.certified
        assert report.deviation_abs == pytest.approx(0.02, rel=1e-12)
        # frozen from the loop-based oracle: 0.5 - sqrt(0.42 * 0.39)
        assert report.refined == pytest.approx(0.09527787310303887, rel=1e-12)
        assert report.coarse == pytest.approx(0.5, rel=1e-14)
        assert report.condition_x.slack_inner == pytest.approx(0.42, rel=1e-14)
        assert report.condition_y.slack_inner == pytest.approx(0.39, rel=1e-14)

    def test_extremal_pair_equality(self, extremal):
        ctx, x, fam, F, box = extremal
        report = gruss_bounds(ctx, x, x, fam, F, box, box)
        assert report.certified
        assert report.deviation_abs == pytest.approx(1.0, rel=1e-14)
        assert report.refined == pytest.approx(1.0, rel=1e-14)
        assert report.coarse == pytest.approx(1.0, rel=1e-14)

    def test_orthogonal_vector_against_span_member(self):
        ctx = SpaceContext(REAL, 3)
        fam = OrthonormalFamily.from_members(ctx, np.eye(3)[:2])
        x = as_vector(ctx, (0, 0, 1.0))
        y = as_vector(ctx, (0.4, -0.3, 0.0))
        box_y = CoefficientBox((0, 1), (0.4, -0.3), (0.4, -0.3))
        box_x = CoefficientBox((0, 1), (-1.5, -1.5), (1.5, 1.5))
        report = gruss_bounds(ctx, x, y, fam, (0, 1), box_x, box_y)
        assert report.certified
        assert abs(report.deviation) <= 1e-15
        assert abs(report.condition_y.slack_inner) <= 1e-15
        assert report.refined == pytest.approx(report.coarse, rel=1e-12)

    def test_refined_clamps_small_negative_slacks(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0)])
        x = as_vector(ctx, (1.0 + 1e-13, 0.0))
        box = CoefficientBox((0,), (0.0,), (1.0,))
        report = gruss_bounds(ctx, x, x, fam, (0,), box, box)
        assert not math.isnan(report.refined)

    def test_chain_on_random_pairs(self):
        for i in range(200):
            rng = rng_from_seed(23, i)
            pair = generate_certified_pair(rng, 6, 2, COMPLEX if i % 2 else REAL)
            report = gruss_bounds(
                pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x, pair.box_y
            )
            scale = (
                norm(pair.ctx, pair.x) ** 2
                + norm(pair.ctx, pair.y) ** 2
                + pair.box_x.half_diameter_sq
                + pair.box_y.half_diameter_sq
            )
            assert report.certified
            assert report.refined >= -1e-9 * scale
            assert report.deviation_abs <= report.refined + 1e-9 * scale
            assert report.refined <= report.coarse + 1e-9 * scale


class TestCompanionBound:
    def test_equal_vectors_worked_example(self, r3):
        ctx, x, _, fam, F, box = r3
        report = companion_bound(ctx, x, x, fam, F, box)
        assert report.certified
        assert report.re_deviation == pytest.approx(0.04, rel=1e-12)
        assert report.bound == pytest.approx(0.5, rel=1e-15)

    def test_negated_vector_with_symmetric_box(self, r3):
        ctx, x, _, fam, F, _ = r3
        box = CoefficientBox(F, (-1, -1), (1, 1))
        report = companion_bound(ctx, x, -x, fam, F, box)
        assert report.certified
        assert report.condition.slack_inner == pytest.approx(2.0, rel=1e-14)
        assert report.re_deviation == pytest.approx(
            -_residual(ctx, x, fam, F), rel=1e-12
        )
        assert report.re_deviation <= report.bound

    def test_extremal_equality(self, extremal):
        ctx, x, fam, F, box = extremal
        report = companion_bound(ctx, x, x, fam, F, box)
        assert report.certified
        assert report.re_deviation == pytest.approx(1.0, rel=1e-14)
        assert report.bound == pytest.approx(1.0, rel=1e-14)


class TestCompanionAbsBound:
    def test_equal_vectors_reduce_to_companion(self, r3):
        ctx, x, _, fam, F, _ = r3
        box = CoefficientBox(F, (-1, -1), (1, 1))
        two_sided = companion_abs_bound(ctx, x, x, fam, F, box)
        one_sided = companion_bound(ctx, x, x, fam, F, box)
        assert two_sided.certified
        assert two_sided.condition_diff.slack_inner == pytest.approx(2.0, rel=1e-14)
        assert two_sided.abs_re_deviation == pytest.approx(abs(one_sided.re_deviation), rel=1e-12)
        assert two_sided.bound == one_sided.bound

    def test_worked_pair_with_explicit_slacks(self, r3):
        ctx, x, y, fam, F, _ = r3
        box = CoefficientBox(F, (-1, -1), (1, 1))
        report = companion_abs_bound(ctx, x, y, fam, F, box)
        assert report.certified
        # frozen from the loop-based oracle
        assert report.condition_sum.slack_inner == pytest.approx(1.6525, rel=1e-13)
        assert report.condition_diff.slack_inner == pytest.approx(1.9525, rel=1e-13)
        assert report.abs_re_deviation == pytest.approx(0.02, rel=1e-12)
        assert report.bound == pytest.approx(2.0, rel=1e-15)

    def test_single_member_real_bound_shape(self):
        # |F| = 1 in a real space: the bound is (M - m)^2 / 4
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0)])
        m, M = -0.5, 2.5
        box = CoefficientBox((0,), (m,), (M,))
        x = as_vector(ctx, (1.0, 0.3))
        y = as_vector(ctx, (0.8, -0.1))
        report = companion_abs_bound(ctx, x, y, fam, (0,), box)
        assert report.bound == pytest.approx((M - m) ** 2 / 4.0, rel=1e-15)
        assert report.certified
        assert report.abs_re_deviation <= report.bound


class TestScalarLemmas:
    def test_equality_at_equal_arguments(self):
        assert scalar_lemmas_check(1, 1, 1, 1, 1, 1) == (True, True)

    def test_opposite_arguments(self):
        first, _ = scalar_lemmas_check(1, -1, 1, 1, 1, 1)
        assert first

    def test_worked_quadruple(self):
        _, second = scalar_lemmas_check(0, 0, 2, 1, 3, 1)
        assert second  # (3)(8) = 24 <= (6-1)^2 = 25

    def test_fuzz_no_violations(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            a = complex(*rng.uniform(-10, 10, 2))
            b = complex(*rng.uniform(-10, 10, 2))
            m, n, p, q = rng.uniform(-10, 10, 4)
            assert scalar_lemmas_check(a, b, m, n, p, q) == (True, True)

    @settings(deadline=None)
    @given(
        a=st.tuples(
            st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
        ).map(lambda t: complex(*t)),
        b=st.tuples(
            st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
        ).map(lambda t: complex(*t)),
        reals=st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
    )
    def test_hypothesis_fuzz(self, a, b, reals):
        first, second = scalar_lemmas_check(a, b, *reals)
        assert first and second


#: Contexts for the oracle comparison: coordinate backends in both fields and
#: weighted backends whose weights vanish at some nodes.
ORACLE_CONTEXTS = {
    "real": (REAL, None),
    "complex": (COMPLEX, None),
    "weighted-real": (REAL, (0.0, 0.5, 1.3, 0.0, 2.0, 0.7)),
    "weighted-complex": (COMPLEX, (0.8, 0.0, 0.0, 1.1, 0.4, 2.5)),
}


def rescaled_offsets(ctx, x, fam, F, mid, half, factor):
    """The half-offsets of ``certified_box_arrays`` rescaled to
    ||half|| = factor * ||x - sum_F mid_i e_i||: a factor of 1 puts x on the
    box's boundary, one below 1 can leave the box uncertified."""
    radius = norm(ctx, x - mid @ fam.members[list(F)])
    return half * (factor * radius / np.linalg.norm(half))


def _oracle_pairs(field, weights, count=12):
    """Pairs over a CGS2 family in a 6-dimensional context; box_x certifies x,
    box_y is drawn without a guarantee, so both slack signs occur."""
    ctx = SpaceContext(field, 6, None if weights is None else np.array(weights))
    for i in range(count):
        rng = rng_from_seed(404, i)
        fam = gram_schmidt(ctx, [_gaussians([rng], (6,), ctx.is_complex)[0] for _ in range(4)])
        F = (0, 2, 3)
        x, y = (as_vector(ctx, _gaussians([rng], (6,), ctx.is_complex)[0]) for _ in range(2))
        box_x = CoefficientBox.centered(F, *certified_box_arrays(rng, ctx, x, fam, F))
        mid, half = certified_box_arrays(rng, ctx, y, fam, F)
        box_y = CoefficientBox.centered(
            F, mid, rescaled_offsets(ctx, y, fam, F, mid, half, 0.5 + i / count)
        )
        yield ctx, x, y, fam, F, box_x, box_y


@pytest.mark.parametrize("context", ORACLE_CONTEXTS)
def test_every_chain_matches_the_oracle(context):
    field, weights = ORACLE_CONTEXTS[context]
    w = None if weights is None else list(weights)
    for ctx, x, y, fam, F, box_x, box_y in _oracle_pairs(field, weights):
        members = [list(r) for r in fam.members]
        xs, ys = list(x), list(y)
        half_sum = [(a + b) / 2 for a, b in zip(xs, ys)]
        half_diff = [(a - b) / 2 for a, b in zip(xs, ys)]

        def slack(v, box):
            return ref_slack_inner(v, members, F, *_endpoints(box), w)

        res_x = ref_residual(xs, members, F, w)
        dev = ref_deviation(xs, ys, members, F, w)
        hd_x = ref_half_diameter_sq(*_endpoints(box_x))
        hd_y = ref_half_diameter_sq(*_endpoints(box_y))
        coarse_xy = math.sqrt(hd_x) * math.sqrt(hd_y)
        slack_product = max(slack(xs, box_x), 0.0) * max(slack(ys, box_y), 0.0)
        scale = norm(ctx, x) ** 2 + norm(ctx, y) ** 2 + hd_x + hd_y
        got_want = [
            (check_condition(ctx, x, fam, F, box_x).slack_inner, slack(xs, box_x)),
            (
                check_condition(ctx, y, fam, F, box_y).slack_norm,
                ref_slack_norm(ys, members, F, *_endpoints(box_y), w),
            ),
            (check_condition(ctx, y, fam, F, box_y).slack_inner, slack(ys, box_y)),
            (
                check_condition(ctx, x, fam, F, box_x).slack_norm,
                ref_slack_norm(xs, members, F, *_endpoints(box_x), w),
            ),
            (_residual(ctx, x, fam, F), res_x),
            (_deviation(ctx, x, y, fam, F), dev),
        ]
        report = counterpart_bounds(ctx, x, fam, F, box_x)
        got_want += [
            (report.residual, res_x),
            (report.refined, hd_x - slack(xs, box_x)),
            (report.coarse, hd_x),
        ]
        report = gruss_bounds(ctx, x, y, fam, F, box_x, box_y)
        # refined = coarse - sqrt(slack_x) sqrt(slack_y); compared squared,
        # since a square root near a zero slack magnifies rounding
        assert abs((report.coarse - report.refined) ** 2 - slack_product) <= 1e-12 * scale**2
        got_want += [
            (report.deviation, dev),
            (report.coarse, coarse_xy),
            (report.condition_y.slack_inner, slack(ys, box_y)),
        ]
        report = companion_bound(ctx, x, y, fam, F, box_x)
        got_want += [
            (report.re_deviation, dev.real),
            (report.condition.slack_inner, slack(half_sum, box_x)),
        ]
        report = companion_abs_bound(ctx, x, y, fam, F, box_y)
        got_want += [
            (report.abs_re_deviation, abs(dev.real)),
            (report.condition_sum.slack_inner, slack(half_sum, box_y)),
            (report.condition_diff.slack_inner, slack(half_diff, box_y)),
        ]
        left, right = residual_identity_sides(ctx, x, fam, F, box_x)
        coefficient_term = ref_coefficient_term(xs, members, F, *_endpoints(box_x), w)
        got_want += [(left, res_x), (right, coefficient_term - slack(xs, box_x))]
        for k, (got, want) in enumerate(got_want):
            assert abs(got - want) <= 1e-12 * scale, (context, k, got, want)


def test_identity_right_side_takes_slack_from_vectors():
    # a family certified at a loose tolerance but 1e-4 away from orthonormal:
    # the routes differ by Re sum_ij Phi_i conj(phi_j) (<e_j, e_i> - delta_ij)
    # ~ -2e-4, which a right side rebuilt from the coefficients would hide
    ctx = SpaceContext(REAL, 3)
    fam = OrthonormalFamily.from_members(ctx, [(1, 0, 0), (1e-4, 1, 0)], tolerance=1e-3)
    x = as_vector(ctx, (0.5, 0.3, 0.2))
    box = CoefficientBox((0, 1), (-1, -1), (1, 1))
    members = [list(r) for r in fam.members]
    left, right = residual_identity_sides(ctx, x, fam, (0, 1), box)
    want_right = ref_coefficient_term(
        list(x), members, (0, 1), *_endpoints(box)
    ) - ref_slack_inner(list(x), members, (0, 1), *_endpoints(box))
    assert left == pytest.approx(ref_residual(list(x), members, (0, 1)), abs=1e-15)
    assert right == pytest.approx(want_right, abs=1e-15)
    assert left - right == pytest.approx(2e-4, rel=1e-3)


#: The chain links whose least is each report's ``margin``.
MARGIN_LINKS = {
    "counterpart_bounds": lambda r: [r.residual, r.refined - r.residual, r.coarse - r.refined],
    "gruss_bounds": lambda r: [r.refined - abs(r.deviation), r.coarse - r.refined, r.refined],
    "companion_bound": lambda r: [r.bound - r.re_deviation],
    "companion_abs_bound": lambda r: [r.bound - r.abs_re_deviation],
}

#: Each report's ``to_dict`` keys, which ``margin`` (a property) leaves alone.
REPORT_KEYS = {
    "counterpart_bounds": {"residual", "refined", "coarse", "slack_inner", "slack_norm", "certified"},
    "gruss_bounds": {
        "deviation", "deviation_abs", "refined", "coarse",
        "slack_inner_x", "slack_norm_x", "slack_inner_y", "slack_norm_y", "certified",
    },
    "companion_bound": {"re_deviation", "bound", "slack_inner", "slack_norm", "certified"},
    "companion_abs_bound": {
        "abs_re_deviation", "bound",
        "slack_inner_sum", "slack_norm_sum", "slack_inner_diff", "slack_norm_diff", "certified",
    },
}


@pytest.mark.parametrize("chain", sorted(MARGIN_LINKS))
def test_margin_is_the_tightest_link_and_no_field(chain):
    for pair in _oracle_pairs(COMPLEX, None, count=4):
        report = getattr(bounds, chain)(*_chain_calls(pair)[chain])
        assert type(report.margin) is float
        assert report.margin == min(MARGIN_LINKS[chain](report))
        assert set(report.to_dict()) == REPORT_KEYS[chain]


def _plain_fields(result, name=""):
    """(name, value) for every field of a chain result, nested
    ConditionReports and the tuple of ``residual_identity_sides`` included."""
    if isinstance(result, tuple):
        return [q for i, value in enumerate(result) for q in _plain_fields(value, f"{name}[{i}]")]
    if dataclasses.is_dataclass(result):
        return [
            q for key, value in vars(result).items() for q in _plain_fields(value, f"{name}.{key}")
        ]
    return [(name, result)]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_every_report_field_is_a_plain_python_scalar(field):
    # numpy scalars would leak into JSON encoders and comparisons; the public
    # chains convert every kernel value, in nested reports too
    for pair in _oracle_pairs(field, None, count=3):
        for chain, args in _chain_calls(pair).items():
            for name, value in _plain_fields(getattr(bounds, chain)(*args)):
                assert type(value) in (float, bool, complex), (chain, name, type(value))


def _chain_calls(pair):
    ctx, x, y, fam, F, box_x, box_y = pair
    return {
        "check_condition": (ctx, x, fam, F, box_x),
        "residual_identity_sides": (ctx, x, fam, F, box_x),
        "counterpart_bounds": (ctx, x, fam, F, box_x),
        "gruss_bounds": (ctx, x, y, fam, F, box_x, box_y),
        "companion_bound": (ctx, x, y, fam, F, box_x),
        "companion_abs_bound": (ctx, x, y, fam, F, box_x),
    }


def test_each_chain_validates_once_and_calls_no_public_function(monkeypatch):
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in inspect.getmembers(bounds, inspect.isfunction):
        if fn.__module__ == bounds.__name__ and (name == "_validated" or name[0] != "_"):
            monkeypatch.setattr(bounds, name, recording(name, fn))
    pair = next(_oracle_pairs(COMPLEX, None, count=1))
    for name, args in _chain_calls(pair).items():
        calls.clear()
        getattr(bounds, name)(*args)
        assert calls == [name, "_validated"], calls


def test_every_chain_rejects_overflowing_vectors():
    # ||x||^2 ~ 1e320 is inf in floating point; the chains used to report
    # NaN/inf values marked certified
    ctx, x, y, fam, F, box_x, box_y = next(_oracle_pairs(REAL, None, count=1))
    for name, args in _chain_calls((ctx, 1e160 * x, y, fam, F, box_x, box_y)).items():
        with pytest.raises(ValueError, match="too large"):
            getattr(bounds, name)(*args)


def test_box_far_from_origin_is_rejected():
    # a narrow box whose endpoints are ~1e160: half_diameter_sq is finite, but
    # slack_inner = Re<Phi e - x, x - phi e> overflows to -inf
    ctx = SpaceContext(REAL, 2)
    fam = OrthonormalFamily.from_members(ctx, [(1.0, 0.0)])
    x = as_vector(ctx, (1.0, 1.0))
    box = CoefficientBox((0,), (1e160,), (1e160 + 1e146,))
    with pytest.raises(ValueError, match="too large"):
        counterpart_bounds(ctx, x, fam, (0,), box)
    with pytest.raises(ValueError, match="too large"):
        gruss_bounds(ctx, x, x, fam, (0,), box, box)


def test_inputs_just_under_the_size_limit_stay_finite():
    ctx, x, y, fam, F, box_x, box_y = next(_oracle_pairs(COMPLEX, None, count=1))
    sizes = [norm(ctx, v) ** 2 for v in (x, y)]
    sizes += [np.vdot(e, e).real for b in (box_x, box_y) for e in (b.lower_array, b.upper_array)]
    s = 0.99 * math.sqrt(bounds._MAX_SQUARED_NORM / max(sizes))
    x, y = s * x, s * y
    box_x, box_y = (CoefficientBox(F, s * b.lower_array, s * b.upper_array) for b in (box_x, box_y))
    reports = [
        counterpart_bounds(ctx, x, fam, F, box_x),
        gruss_bounds(ctx, x, y, fam, F, box_x, box_y),
        companion_bound(ctx, x, y, fam, F, box_x),
        companion_abs_bound(ctx, x, y, fam, F, box_y),
    ]
    for report in reports:
        json.dumps(report.to_dict(), allow_nan=False)  # raises on inf or NaN


def _quantities(result, name=""):
    """(name, value, degree) for every float and verdict of a chain result;
    the degree is the power of the input scale it carries: 2 for the squared
    quantities (values, ConditionReport.tolerance), 1 for slack_norm, 0 for
    the verdicts."""
    if isinstance(result, bool):
        return [(name, result, 0)]
    if isinstance(result, complex):
        return [(name + ".re", result.real, 2), (name + ".im", result.imag, 2)]
    if isinstance(result, float):
        return [(name, result, 1 if name.endswith("slack_norm") else 2)]
    if isinstance(result, tuple):
        return [q for i, value in enumerate(result) for q in _quantities(value, f"{name}[{i}]")]
    return [
        q for f in dataclasses.fields(result)
        for q in _quantities(getattr(result, f.name), f"{name}.{f.name}")
    ]


def _results(pair):
    return {name: _quantities(getattr(bounds, name)(*args)) for name, args in _chain_calls(pair).items()}


@pytest.mark.parametrize("context", ORACLE_CONTEXTS)
@pytest.mark.parametrize("k", [-200, -50, 1, 50, 200])
def test_reports_scale_covariantly(context, k):
    # x, y and the box endpoints times 2^k scale every squared quantity by
    # exactly 4^k and slack_norm by 2^k, and leave every verdict as it was
    s = 2.0**k
    for pair in _oracle_pairs(*ORACLE_CONTEXTS[context], count=4):
        ctx, x, y, fam, F, box_x, box_y = pair
        box_x, box_y = (CoefficientBox(F, s * b.lower_array, s * b.upper_array) for b in (box_x, box_y))
        scaled = _results((ctx, s * x, s * y, fam, F, box_x, box_y))
        for name, quantities in _results(pair).items():
            want = [(q, v * s**d if d else v) for q, v, d in quantities]
            assert [(q, v) for q, v, _ in scaled[name]] == want, (name, k)


def _assert_reports_agree(pair, moved, verdicts=False):
    """Every value of ``moved``'s reports within the allowance of ``pair``'s
    (at sqrt(scale) for slack_norm, a norm), and with ``verdicts`` every
    verdict equal.  The Gruss refined = coarse - sqrt(slack_x slack_y) is
    compared as (coarse - refined)^2, at scale^2: a square root near a zero
    slack magnifies rounding (slack_y is ~0 in the pair drawn at slack factor 1)."""
    ctx, x, y, fam, F, box_x, box_y = pair
    scale = pair_scale(ctx, x, y, box_x, box_y)
    defect = max(fam.gram_defect, moved[3].gram_defect)
    tol = {d: allowance(scale ** (d / 2), ctx.dimension + len(F), len(F), defect) for d in (1, 2, 4)}
    results = _results(moved)
    for name, quantities in _results(pair).items():
        for (q_name, want, d), (_, got, _) in zip(quantities, results[name]):
            if not d:
                assert got == want or not verdicts, (name, q_name, got, want)
            elif (name, q_name) != ("gruss_bounds", ".refined"):
                assert abs(got - want) <= tol[d], (name, q_name, got, want)
    want, got = ((r.coarse - r.refined) ** 2 for r in (gruss_bounds(*pair), gruss_bounds(*moved)))
    assert abs(got - want) <= tol[4], (got, want)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_reports_are_unitarily_invariant(field):
    # a unitary applied to the members, x and y changes every value by no
    # more than the allowance
    for i, pair in enumerate(_oracle_pairs(field, None, count=6)):
        ctx, x, y, fam, F, box_x, box_y = pair
        rng = rng_from_seed(405, i)
        q, _ = np.linalg.qr(np.stack([_gaussians([rng], (6,), ctx.is_complex)[0] for _ in range(6)]))
        q = q if ctx.is_complex else q.real
        turned = OrthonormalFamily.from_members(ctx, fam.members @ q.T)
        _assert_reports_agree(
            pair, (ctx, as_vector(ctx, q @ x), as_vector(ctx, q @ y), turned, F, box_x, box_y)
        )


@pytest.mark.parametrize("context", ORACLE_CONTEXTS)
def test_reports_are_invariant_under_index_permutation(context):
    # reordering the members, with the box entries moved along, changes every
    # value by no more than the allowance and no verdict: the chains sum over
    # the index set, and only the order of the sums changes
    for i, pair in enumerate(_oracle_pairs(*ORACLE_CONTEXTS[context], count=6)):
        ctx, x, y, fam, F, box_x, box_y = pair
        order = rng_from_seed(406, i).permutation(fam.size)
        permuted = OrthonormalFamily.from_members(ctx, fam.members[order])
        # member order[p] of the family sits at position p of the permuted one
        moved = sorted((int(np.flatnonzero(order == j)[0]), k) for k, j in enumerate(F))
        G, ks = tuple(p for p, _ in moved), [k for _, k in moved]
        box_x2, box_y2 = (
            CoefficientBox(G, b.lower_array[ks], b.upper_array[ks]) for b in (box_x, box_y)
        )
        _assert_reports_agree(pair, (ctx, x, y, permuted, G, box_x2, box_y2), verdicts=True)


def test_certified_flips_at_the_gram_defect(tmp_path, capsys):
    ctx = SpaceContext(REAL, 2)
    members = [(1.0, 0.0), (1e-3, 1.0)]
    defect = OrthonormalFamily.from_members(ctx, members, 0.5).gram_defect
    x = as_vector(ctx, (1.0, 1.0))
    box = CoefficientBox((0, 1), (0.9, 0.9), (1.1, 1.1))
    path = tmp_path / "family.json"
    for tolerance, certified in [
        (math.nextafter(defect, math.inf), True),
        (defect, True),
        (math.nextafter(defect, -math.inf), False),
    ]:
        fam = OrthonormalFamily.from_members(ctx, members, tolerance)
        assert fam.certified is certified
        for name, args in _chain_calls((ctx, x, x, fam, (0, 1), box, box)).items():
            if certified:
                getattr(bounds, name)(*args)
            else:
                with pytest.raises(ValueError, match="not certified"):
                    getattr(bounds, name)(*args)
        serialize.dump_json(serialize.instance_to_dict(Instance(ctx, x, fam, (0, 1), box)), path)
        assert main(["bounds", str(path)]) == (0 if certified else 2)
        assert (capsys.readouterr().out == "") is not certified
