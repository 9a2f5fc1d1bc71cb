import math

import numpy as np
import pytest

from orthobounds.bounds import (
    CoefficientBox,
    check_condition,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
)
from orthobounds.quadrature import (
    SandwichConditionError,
    WeightedL2Context,
    build_family,
    counting_measure,
    gauss_legendre,
    l2_sandwich_gruss,
    periodic_trapezoid,
    sample,
    sandwich_box,
    sandwich_check,
)
from orthobounds.space import (
    COMPLEX,
    REAL,
    DegeneracyError,
    OrthonormalFamily,
    as_vector,
    inner_product,
)
from orthobounds.generate import generate_certified_instance, generate_certified_pair, rng_from_seed
from orthobounds.suite import check_l2_embedding

TWO_PI = 2.0 * math.pi
ROOT_2PI = math.sqrt(TWO_PI)


@pytest.fixture(scope="module")
def trig_ctx():
    return WeightedL2Context.uniform_density(periodic_trapezoid(1024))


@pytest.fixture(scope="module")
def trig_family(trig_ctx):
    return build_family(trig_ctx, "trig", 3)


class TestMeasureSpaces:
    def test_counting(self):
        space = counting_measure(4)
        assert space.kind == "counting"
        np.testing.assert_array_equal(space.weights, np.ones(4))

    def test_periodic_trapezoid_mass(self):
        space = periodic_trapezoid(256)
        assert space.weights.sum() == pytest.approx(TWO_PI, rel=1e-14)
        assert space.nodes[0] == 0.0
        assert space.nodes[-1] < TWO_PI

    def test_gauss_legendre_integrates_polynomials(self):
        space = gauss_legendre(8)
        # exact for degree <= 15
        for degree, exact in ((0, 2.0), (2, 2.0 / 3.0), (6, 2.0 / 7.0)):
            value = float(np.sum(space.weights * space.nodes**degree))
            assert value == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("rule", [counting_measure, periodic_trapezoid, gauss_legendre])
    @pytest.mark.parametrize("count", [0, -1])
    def test_rules_need_at_least_one_node(self, rule, count):
        # periodic_trapezoid(0) used to divide by zero before any check
        with pytest.raises(ValueError, match="at least one node"):
            rule(count)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            counting_measure(3).__class__(np.arange(3.0), np.array([1.0, 0.0, 1.0]), "counting")

    def test_rho_validation(self):
        space = counting_measure(3)
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedL2Context(space, np.array([1.0, -0.5, 1.0]), REAL)
        with pytest.raises(ValueError, match="vanish"):
            WeightedL2Context(space, np.zeros(3), REAL)


class TestWeightedInner:
    def test_indicator_on_counting_measure(self):
        ctx = WeightedL2Context.uniform_density(counting_measure(3))
        f = as_vector(ctx.context, [1.0, 0.0, 0.0])
        assert inner_product(ctx.context, f, f) == 1.0

    def test_constant_member_has_unit_norm(self, trig_ctx):
        f1 = as_vector(trig_ctx.context, np.full(1024, 1.0 / ROOT_2PI))
        assert inner_product(trig_ctx.context, f1, f1).real == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_of_shifted_sine(self, trig_ctx):
        f = sample(trig_ctx, lambda s: 2.0 + np.sin(s))
        f1 = as_vector(trig_ctx.context, np.full(1024, 1.0 / ROOT_2PI))
        # closed form: (1/sqrt(2pi)) * integral of (2 + sin) = 4pi/sqrt(2pi)
        assert inner_product(trig_ctx.context, f, f1).real == pytest.approx(
            2.0 * ROOT_2PI, rel=1e-12
        )

    def test_length_mismatch(self, trig_ctx):
        with pytest.raises(ValueError):
            inner_product(trig_ctx.context, np.ones(3), np.ones(1024))


class TestBuildFamily:
    def test_indicator_family_is_standard_basis(self):
        ctx = WeightedL2Context.uniform_density(counting_measure(3))
        fam = build_family(ctx, "indicator", 3)
        np.testing.assert_allclose(fam.members.real, np.eye(3), atol=1e-15)

    def test_trig_family_certifies(self, trig_ctx, trig_family):
        assert trig_family.gram_defect <= 1e-10
        assert trig_family.certified

    def test_trig_members_match_analytic_forms(self, trig_ctx, trig_family):
        s = trig_ctx.space.nodes
        np.testing.assert_allclose(
            trig_family.members[0].real, np.full(1024, 1.0 / ROOT_2PI), atol=1e-12
        )
        np.testing.assert_allclose(
            trig_family.members[1].real, np.cos(s) / math.sqrt(math.pi), atol=1e-10
        )
        np.testing.assert_allclose(
            trig_family.members[2].real, np.sin(s) / math.sqrt(math.pi), atol=1e-10
        )

    def test_legendre_family_certifies(self):
        ctx = WeightedL2Context.uniform_density(gauss_legendre(32))
        fam = build_family(ctx, "legendre", 4)
        assert fam.gram_defect <= 1e-10
        # normalized Legendre polynomials: sqrt((2k+1)/2) P_k
        s = ctx.space.nodes
        np.testing.assert_allclose(
            fam.members[1].real, math.sqrt(1.5) * s, atol=1e-10
        )

    def test_trig_defect_at_coarser_grids(self):
        for nodes in (256, 512):
            ctx = WeightedL2Context.uniform_density(periodic_trapezoid(nodes))
            fam = build_family(ctx, "trig", 5)
            assert fam.gram_defect <= 1e-10

    def test_indicator_degeneracy_with_vanishing_rho(self):
        rho = np.array([1.0, 0.0, 0.0, 1.0])
        ctx = WeightedL2Context(counting_measure(4), rho, REAL)
        with pytest.raises(DegeneracyError, match="positive effective weight"):
            build_family(ctx, "indicator", 3)

    def test_count_validation(self, trig_ctx):
        with pytest.raises(ValueError):
            build_family(trig_ctx, "trig", 0)
        with pytest.raises(ValueError, match="unknown family kind"):
            build_family(trig_ctx, "wavelet", 2)


class TestSandwichCheck:
    def test_family_member_in_degenerate_sandwich(self, trig_ctx, trig_family):
        f = trig_family.members[0]
        report = sandwich_check(trig_ctx, f, trig_family, (0,), {0: 1.0}, {0: 1.0})
        assert report.holds
        assert report.min_margin_lower == pytest.approx(0.0, abs=1e-12)
        assert report.min_margin_upper == pytest.approx(0.0, abs=1e-12)
        assert report.violating_node is None

    def test_shifted_sine_brackets(self, trig_ctx, trig_family):
        f = sample(trig_ctx, lambda s: 2.0 + np.sin(s))
        # 1 <= 2 + sin(s) <= 3 pointwise, attained at s = pi/2 and 3pi/2,
        # so give the node-wise margins room for sin() rounding
        report = sandwich_check(
            trig_ctx, f, trig_family, (0,), {0: ROOT_2PI}, {0: 3.0 * ROOT_2PI}, tol=1e-12
        )
        assert report.holds
        assert report.min_margin_lower == pytest.approx(0.0, abs=1e-9)
        assert report.min_margin_upper == pytest.approx(0.0, abs=1e-9)

    def test_too_small_upper_bound_fails_near_peak(self, trig_ctx, trig_family):
        f = sample(trig_ctx, lambda s: 2.0 + np.sin(s))
        report = sandwich_check(
            trig_ctx, f, trig_family, (0,), {0: ROOT_2PI}, {0: 2.5 * ROOT_2PI}
        )
        assert not report.holds
        peak = trig_ctx.space.nodes[report.violating_node]
        assert abs(peak - math.pi / 2.0) <= 0.01

    def test_complex_context_rejected(self):
        ctx = WeightedL2Context(counting_measure(3), np.ones(3), COMPLEX)
        fam = build_family(ctx, "indicator", 2)
        with pytest.raises(ValueError, match="real"):
            sandwich_check(ctx, np.ones(3), fam, (0,), {0: 0.0}, {0: 1.0})

    def test_positive_sandwich_implies_condition_certificate(self, trig_ctx, trig_family):
        # a strictly positive bracketing margin must translate into a
        # nonnegative inner-product slack for the derived box, up to
        # quadrature error
        rng = np.random.default_rng(404)
        nodes = trig_ctx.space.nodes
        root = math.sqrt(TWO_PI)
        for _ in range(25):
            a0, a1, b1 = rng.uniform(-2, 2, 3)
            pad = rng.uniform(0.01, 1.0)
            f = as_vector(trig_ctx.context, a0 + a1 * np.cos(nodes) + b1 * np.sin(nodes))
            # constant-member bracket: m f1 <= f <= M f1 with f1 = 1/sqrt(2pi)
            m = {0: root * (float(np.min(f.real)) - pad)}
            M = {0: root * (float(np.max(f.real)) + pad)}
            report = sandwich_check(trig_ctx, f, trig_family, (0,), m, M)
            assert report.holds
            assert min(report.min_margin_lower, report.min_margin_upper) > 0
            box = sandwich_box((0,), m, M)
            condition = check_condition(trig_ctx.context, f, trig_family, (0,), box)
            scale = instance_scale(trig_ctx.context, f, box)
            assert condition.slack_inner >= -1e-9 * scale


class TestClosedFormTrigCase:
    """f(s) = 2 + sin(s) over [0, 2pi) with the constant member and the
    sandwich box [sqrt(2pi), 3 sqrt(2pi)]: residual = refined = pi,
    coarse = 2pi, condition slack = pi."""

    def test_counterpart_report(self, trig_ctx, trig_family):
        f = sample(trig_ctx, lambda s: 2.0 + np.sin(s))
        box = sandwich_box((0,), {0: ROOT_2PI}, {0: 3.0 * ROOT_2PI})
        report = counterpart_bounds(trig_ctx.context, f, trig_family, (0,), box)
        assert report.certified
        assert report.residual == pytest.approx(math.pi, abs=1e-8)
        assert report.refined == pytest.approx(math.pi, abs=1e-8)
        assert report.coarse == pytest.approx(TWO_PI, abs=1e-8)
        assert report.condition.slack_inner == pytest.approx(math.pi, abs=1e-8)

    def test_gruss_pair_report(self, trig_ctx, trig_family):
        f = sample(trig_ctx, lambda s: 2.0 + np.sin(s))
        g = sample(trig_ctx, lambda s: 2.0 + np.cos(s))
        m, M = {0: ROOT_2PI}, {0: 3.0 * ROOT_2PI}
        report = l2_sandwich_gruss(
            trig_ctx, f, g, trig_family, (0,), m, M, m, M, sandwich_tol=1e-12
        )
        assert report.certified
        # <f,g> = 8pi and both coefficients are 4pi/sqrt(2pi), so the
        # truncated expansion reproduces <f,g> exactly: deviation 0
        assert report.deviation_abs == pytest.approx(0.0, abs=1e-8)
        assert report.coarse == pytest.approx(TWO_PI, abs=1e-8)
        # both slacks are pi, so refined = 2pi - pi = pi
        assert report.refined == pytest.approx(math.pi, abs=1e-8)

    def test_sandwich_equality_pair(self, trig_ctx, trig_family):
        f = sample(trig_ctx, lambda s: 2.0 + np.sin(s))
        m, M = {0: ROOT_2PI}, {0: 3.0 * ROOT_2PI}
        report = l2_sandwich_gruss(
            trig_ctx, f, f, trig_family, (0,), m, M, m, M, sandwich_tol=1e-12
        )
        assert report.certified
        assert report.deviation_abs == pytest.approx(math.pi, abs=1e-8)
        assert report.refined == pytest.approx(math.pi, abs=1e-8)

    def test_precondition_failure_carries_report(self, trig_ctx, trig_family):
        f = sample(trig_ctx, lambda s: 2.0 + np.sin(s))
        with pytest.raises(SandwichConditionError) as excinfo:
            l2_sandwich_gruss(
                trig_ctx, f, f, trig_family, (0,),
                {0: ROOT_2PI}, {0: 2.5 * ROOT_2PI}, {0: ROOT_2PI}, {0: 3.0 * ROOT_2PI},
            )
        assert excinfo.value.which == "f"
        assert not excinfo.value.report.holds

    def test_exact_span_membership_gives_zero_everything(self, trig_ctx, trig_family):
        f = 2.5 * trig_family.members[0]
        m = M = {0: 2.5}
        report = l2_sandwich_gruss(trig_ctx, f.real, f.real, trig_family, (0,), m, M, m, M)
        assert report.deviation_abs == pytest.approx(0.0, abs=1e-12)
        assert report.coarse == 0.0
        assert abs(report.condition_x.slack_inner) <= 1e-12


class TestBackendEquivalence:
    def test_worked_example_counting_embedding(self):
        ctx = WeightedL2Context.uniform_density(counting_measure(3))
        fam = build_family(ctx, "indicator", 3)
        box = CoefficientBox((0, 1), (0, 0), (1, 1))
        f = as_vector(ctx.context, [0.5, 0.3, 0.2])
        g = as_vector(ctx.context, [0.2, 0.6, 0.1])
        report = counterpart_bounds(ctx.context, f, fam, (0, 1), box)
        assert report.residual == pytest.approx(0.04, rel=1e-12)
        assert report.refined == pytest.approx(0.08, rel=1e-12)
        assert report.coarse == pytest.approx(0.5, rel=1e-15)
        gruss = gruss_bounds(ctx.context, f, g, fam, (0, 1), box, box)
        assert gruss.deviation_abs == pytest.approx(0.02, rel=1e-12)
        assert gruss.refined == pytest.approx(0.09527787310303887, rel=1e-12)
        assert gruss.coarse == pytest.approx(0.5, rel=1e-14)

    def test_equivalence_on_random_instances(self):
        for i in range(100):
            rng = rng_from_seed(555, i)
            inst = generate_certified_instance(rng, 6, 3, COMPLEX if i % 2 else REAL)
            ok, margin = check_l2_embedding(inst)
            assert ok, f"backends disagree by {-margin:.3e}"

    def test_gruss_equivalence_on_random_pairs(self):
        for i in range(50):
            rng = rng_from_seed(556, i)
            pair = generate_certified_pair(rng, 5, 2, COMPLEX if i % 2 else REAL)
            vec_report = gruss_bounds(
                pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x, pair.box_y
            )
            l2ctx = WeightedL2Context(counting_measure(5), np.ones(5), pair.ctx.field)
            fam = OrthonormalFamily.from_members(
                l2ctx.context, pair.family.members, pair.family.tolerance
            )
            l2_report = gruss_bounds(
                l2ctx.context, pair.x, pair.y, fam, pair.indices, pair.box_x, pair.box_y
            )
            assert abs(vec_report.deviation - l2_report.deviation) <= 1e-12
            assert abs(vec_report.refined - l2_report.refined) <= 1e-12
            assert abs(vec_report.coarse - l2_report.coarse) <= 1e-12


class TestBoxMonotonicity:
    def test_widening_never_decreases_coarse(self):
        rng = rng_from_seed(77, 3)
        inst = generate_certified_instance(rng, 4, 2, REAL)
        base = counterpart_bounds(*inst).coarse
        # widen along the box's own orientation so |upper - lower| grows
        diffs = [u - l for u, l in zip(inst.box.upper, inst.box.lower)]
        widened = CoefficientBox(
            inst.indices,
            tuple(l - 0.2 * d for l, d in zip(inst.box.lower, diffs)),
            tuple(u + 0.35 * d for u, d in zip(inst.box.upper, diffs)),
        )
        report = counterpart_bounds(
            inst.ctx, inst.x, inst.family, inst.indices, widened
        )
        assert report.coarse >= base
