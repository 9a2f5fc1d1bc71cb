import numpy as np
import pytest

from orthobounds.bounds import CoefficientBox, counterpart_bounds, gruss_bounds
from orthobounds.serialize import instance_from_dict
from orthobounds.sharpness import (
    SearchConfig,
    _make_evaluator,
    extremal_instance,
    maximize_gruss_ratio,
    maximize_residual_ratio,
)
from orthobounds.space import COMPLEX, REAL, SpaceContext

FAST = SearchConfig(restarts=6, steps_per_restart=1500, seed=11)


class TestExtremalInstance:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_triple_equality(self, m):
        report = extremal_instance(m).report()
        assert report.certified
        assert report.residual == pytest.approx(m * m, rel=1e-12)
        assert report.refined == pytest.approx(m * m, rel=1e-12)
        assert report.coarse == pytest.approx(m * m, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_condition_slack_vanishes(self, m):
        report = extremal_instance(m).report()
        assert abs(report.condition.slack_inner) <= 1e-14 * m * m

    def test_ratio_is_exactly_one_quarter_of_diameter_sum(self):
        inst = extremal_instance(2.0)
        report = inst.report()
        assert report.residual / (4 * inst.box.half_diameter_sq) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_rejects_nonpositive_m(self, m):
        with pytest.raises(ValueError):
            extremal_instance(m)


class TestScaleEquivariance:
    def test_scaling_is_exact_for_power_of_two(self):
        inst = extremal_instance(1.0)
        lam = 2.0
        scaled_box = CoefficientBox(
            inst.indices,
            tuple(lam * v for v in inst.box.lower),
            tuple(lam * v for v in inst.box.upper),
        )
        base = counterpart_bounds(inst.ctx, inst.x, inst.family, inst.indices, inst.box)
        scaled = counterpart_bounds(
            inst.ctx, lam * inst.x, inst.family, inst.indices, scaled_box
        )
        assert scaled.residual == lam**2 * base.residual
        assert scaled.coarse == lam**2 * base.coarse
        ratio_base = base.residual / (4 * inst.box.half_diameter_sq)
        ratio_scaled = scaled.residual / (4 * scaled_box.half_diameter_sq)
        assert ratio_scaled == ratio_base


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(family_size=5, dimension=4)
        with pytest.raises(ValueError):
            SearchConfig(seed=-1)
        with pytest.raises(ValueError):
            SearchConfig(field="quaternion")


class TestMaximizeResidualRatio:
    def test_reaches_sharp_constant(self):
        result = maximize_residual_ratio(FAST)
        assert 0.2499 <= result.best_ratio <= 0.25 + 1e-9

    def test_never_exceeds_certified_bound(self):
        for seed in (1, 2, 3):
            cfg = SearchConfig(restarts=3, steps_per_restart=800, seed=seed)
            result = maximize_residual_ratio(cfg)
            assert -1e-12 <= result.best_ratio <= 0.25 + 1e-9

    def test_deterministic(self):
        cfg = SearchConfig(restarts=3, steps_per_restart=500, seed=99)
        first = maximize_residual_ratio(cfg)
        second = maximize_residual_ratio(cfg)
        assert first.best_ratio == second.best_ratio
        assert first.evaluations == second.evaluations
        assert first.best_instance == second.best_instance

    def test_full_basis_gives_zero_ratio(self):
        cfg = SearchConfig(dimension=1, family_size=1, restarts=2, steps_per_restart=300, seed=3)
        result = maximize_residual_ratio(cfg)
        assert abs(result.best_ratio) <= 1e-12

    def test_best_instance_is_consistent(self):
        result = maximize_residual_ratio(FAST)
        inst = instance_from_dict(result.best_instance)
        report = counterpart_bounds(*inst)
        assert report.certified
        recomputed = report.residual / (4 * inst.box.half_diameter_sq)
        assert recomputed == pytest.approx(result.best_ratio, rel=1e-9, abs=1e-12)

    def test_complex_field(self):
        cfg = SearchConfig(field=COMPLEX, restarts=4, steps_per_restart=1500, seed=5)
        result = maximize_residual_ratio(cfg)
        assert 0.2499 <= result.best_ratio <= 0.25 + 1e-9


class TestMaximizeGrussRatio:
    def test_reaches_sharp_constant(self):
        result = maximize_gruss_ratio(SearchConfig(restarts=10, steps_per_restart=2000, seed=11))
        assert 0.2499 <= result.best_ratio <= 0.25 + 1e-9

    def test_deterministic(self):
        cfg = SearchConfig(restarts=2, steps_per_restart=400, seed=4)
        assert maximize_gruss_ratio(cfg) == maximize_gruss_ratio(cfg)

    def test_best_instance_is_consistent(self):
        result = maximize_gruss_ratio(SearchConfig(restarts=4, steps_per_restart=1200, seed=8))
        pair = instance_from_dict(result.best_instance)
        denominator = np.sqrt(4 * pair.box_x.half_diameter_sq * 4 * pair.box_y.half_diameter_sq)
        report = gruss_bounds(
            pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x, pair.box_y
        )
        assert report.certified
        assert report.deviation_abs / denominator == pytest.approx(
            result.best_ratio, rel=1e-9, abs=1e-12
        )


class TestSearchTrajectories:
    @pytest.mark.parametrize(
        "mode, cell, ratio, evaluations",
        [
            ("residual", (4, 2, REAL), 0.249999987428, 734),
            ("residual", (16, 8, COMPLEX), 0.249999914116, 4000),
            ("gruss", (4, 2, REAL), 0.249973978833, 1583),
            ("gruss", (16, 8, COMPLEX), 0.23637222971, 4000),
        ],
    )
    def test_search_results_are_pinned(self, mode, cell, ratio, evaluations):
        # one restart of the default seed in the two cells the benchmark
        # searches; a change to the draw order, the state layout, the
        # acceptance rule or the step schedule moves these
        dim, fsize, field = cell
        cfg = SearchConfig(
            dimension=dim, family_size=fsize, field=field,
            restarts=1, steps_per_restart=2000, seed=1905,
        )
        search = maximize_residual_ratio if mode == "residual" else maximize_gruss_ratio
        result = search(cfg)
        assert result.evaluations == evaluations
        assert float(f"{result.best_ratio:.12g}") == ratio


class TestEvaluatorEdgeCases:
    def test_degenerate_denominator_flagged(self):
        # x, y in the span with degenerate (zero-diameter) boxes: 0/0 -> 0
        members = np.eye(2, dtype=np.complex128)
        evaluate = _make_evaluator(SpaceContext(REAL, 2), members, "gruss")
        x = np.array([1.0, 0.0], dtype=np.complex128)
        y = np.array([0.0, 1.0], dtype=np.complex128)
        mid_x, d_x = x[:2].copy(), np.zeros(2, dtype=np.complex128)
        mid_y, d_y = y[:2].copy(), np.zeros(2, dtype=np.complex128)
        flat = np.concatenate([x, y, mid_x, d_x, mid_y, d_y])
        ratio, slack, degenerate = evaluate(flat)
        assert ratio == 0.0
        assert degenerate

    def test_infeasible_state_rejected(self):
        members = np.eye(1, 2, dtype=np.complex128)
        evaluate = _make_evaluator(SpaceContext(REAL, 2), members, "residual")
        x = np.array([10.0, 0.0], dtype=np.complex128)
        mid = np.array([0.0], dtype=np.complex128)
        d = np.array([1.0], dtype=np.complex128)
        assert evaluate(np.concatenate([x, mid, d])) is None
