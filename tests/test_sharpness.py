import hashlib

import numpy as np
import pytest

from orthobounds import serialize, sharpness
from orthobounds.bounds import (
    CoefficientBox,
    companion_abs_bound,
    companion_bound,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
)
from orthobounds.bounds import _deviation, _slack_inner
from orthobounds.generate import Instance, rng_from_seed
from orthobounds.serialize import instance_from_dict
from orthobounds.sharpness import (
    SearchConfig,
    _coordinate_directions,
    _diameter,
    _gruss_evaluator,
    _hill_climb,
    _objective,
    _residual_evaluator,
    _start_states,
    extremal_instance,
    maximize_gruss_ratio,
    maximize_residual_ratio,
)
from orthobounds.space import COMPLEX, REAL, OrthonormalFamily, SpaceContext, gram_schmidt
from orthobounds.space import _coefficients, _modulus, _norm_sq
from orthobounds.suite import SuiteConfig, chain_allowance

FAST = SearchConfig(restarts=6, steps_per_restart=1500, seed=11)

#: The (dimension, family size, field) cells of the default verify grid.
GRID = SuiteConfig().cells()


def _basis(dim, field):
    """A seeded orthonormal basis q_0 .. q_{dim-1}: the rows of gram_schmidt
    of a Gaussian dim x dim draw."""
    ctx = SpaceContext(field, dim)
    rng = rng_from_seed(1905, dim, int(field == COMPLEX))
    raw = rng.standard_normal((dim, dim)).astype(np.complex128)
    if field == COMPLEX:
        raw.imag = rng.standard_normal((dim, dim))
    return ctx, gram_schmidt(ctx, raw).members


class TestSharpInEveryCell:
    """The two-dimensional extremal construction lifted to each grid cell with
    F < d: the family e = (q_0 + q_F)/sqrt(2), q_1, ..., q_{F-1}, the vector
    x = m (q_0 - q_F)/sqrt(2) and the box [-m, m] on e, [0, 0] on the rest.
    Every chain then attains 1/4 of sum |Phi_i - phi_i|^2 = 4 m^2."""

    @pytest.mark.parametrize("m", [1.0, 3.7, 1e-3])
    @pytest.mark.parametrize("cell", [c for c in GRID if c[1] < c[0]], ids=str)
    def test_every_chain_attains_one_quarter(self, cell, m):
        dim, size, field = cell
        ctx, q = _basis(dim, field)
        s = 1.0 / np.sqrt(2.0)
        fam = OrthonormalFamily.from_members(ctx, [s * (q[0] + q[size]), *q[1:size]])
        x = m * s * (q[0] - q[size])
        F, zeros = tuple(range(size)), [0.0] * (size - 1)
        box = CoefficientBox(F, [-m, *zeros], [m, *zeros])
        reports = {
            "residual": counterpart_bounds(ctx, x, fam, F, box),
            "deviation_abs": gruss_bounds(ctx, x, x, fam, F, box, box),
            "re_deviation": companion_bound(ctx, x, x, fam, F, box),
            "abs_re_deviation": companion_abs_bound(ctx, x, x, fam, F, box),
        }
        for value, report in reports.items():
            ratio = getattr(report, value) / (2.0 * m) ** 2
            assert report.certified, value
            assert abs(ratio - 0.25) <= 4 * np.finfo(float).eps, (value, ratio)

    @pytest.mark.parametrize("m", [1.0, 3.7, 1e-3])
    @pytest.mark.parametrize("cell", [c for c in GRID if c[1] == c[0]], ids=str)
    def test_a_full_basis_leaves_no_residual(self, cell, m):
        # F = d leaves no q_F to lift into: x = m (q_0 - q_{d-1})/sqrt(2) lies
        # in the span of the whole basis, so there is no ratio, only a zero
        dim, _, field = cell
        ctx, q = _basis(dim, field)
        fam = OrthonormalFamily.from_members(ctx, q)
        x = m / np.sqrt(2.0) * (q[0] - q[-1])
        box = CoefficientBox(range(dim), [-m] * dim, [m] * dim)
        inst = Instance(ctx, x, fam, tuple(range(dim)), box)
        report = counterpart_bounds(*inst)
        assert report.certified
        assert abs(report.residual) <= chain_allowance(inst, instance_scale(ctx, x, box))


class TestExtremalInstance:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_triple_equality(self, m):
        report = counterpart_bounds(*extremal_instance(m))
        assert report.certified
        assert report.residual == pytest.approx(m * m, rel=1e-12)
        assert report.refined == pytest.approx(m * m, rel=1e-12)
        assert report.coarse == pytest.approx(m * m, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0])
    def test_condition_slack_vanishes(self, m):
        report = counterpart_bounds(*extremal_instance(m))
        assert abs(report.condition.slack_inner) <= 1e-14 * m * m

    def test_ratio_is_exactly_one_quarter_of_diameter_sum(self):
        inst = extremal_instance(2.0)
        report = counterpart_bounds(*inst)
        assert report.residual / (4 * inst.box.half_diameter_sq) == pytest.approx(0.25, rel=1e-12)

    def test_is_a_plain_instance(self):
        inst = extremal_instance(1.0)
        assert type(inst) is Instance
        assert inst.indices == (0,) and inst.ctx.dimension == 2

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_rejects_nonpositive_m(self, m):
        with pytest.raises(ValueError):
            extremal_instance(m)


class TestScaleEquivariance:
    def test_scaling_is_exact_for_power_of_two(self):
        inst = extremal_instance(1.0)
        lam = 2.0
        scaled_box = CoefficientBox(
            inst.indices, lam * inst.box.lower_array, lam * inst.box.upper_array
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

    def test_complex_gruss_ratio_is_pinned_to_the_bit(self):
        # |deviation| is np.hypot (space._modulus), the bits of the scalar abs
        # the one-move-at-a-time climb took; np.abs of the stacked deviations
        # moves this ratio's last bit, which the 12-digit pin cannot see
        cfg = SearchConfig(dimension=16, family_size=8, field=COMPLEX, restarts=1, seed=1905)
        assert maximize_gruss_ratio(cfg).best_ratio.hex() == "0x1.e4171fa24f99ap-3"

    @pytest.mark.parametrize(
        "mode, cell, ratio_hex, evaluations, instance_sha256",
        [
            (
                "residual", (4, 2, REAL), "0x1.fffffe500979fp-3", 734,
                "47fb371056b44893f97cb1fca37eb1884cea801737ead8a3db67975164dfd836",
            ),
            (
                "residual", (16, 8, COMPLEX), "0x1.fffff4790f4f4p-3", 4000,
                "1db0b5dff3de37e0e874be3198918e23c7b2ab5836c8112367232b9819e975ab",
            ),
            (
                "gruss", (4, 2, REAL), "0x1.fff25b7f834a2p-3", 1583,
                "6d7f8ce2fef8f8fc4d2455295a3ea1a83ec26986f53e219c1ca5e872d9246b14",
            ),
            (
                "gruss", (16, 8, COMPLEX), "0x1.e4171fa24f99ap-3", 4000,
                "22d6dd1989ee6800cea8fb5fc92d7d44269f442a36ce5eb0550f7864b8c399c8",
            ),
        ],
    )
    def test_benchmark_searches_are_pinned_to_the_bit(
        self, mode, cell, ratio_hex, evaluations, instance_sha256
    ):
        # the four searches of the benchmark's sharpness workload at one
        # restart: the best ratio to the bit and the SHA-256 of the best
        # instance's JSON (its vectors, boxes, report and ratio)
        dim, fsize, field = cell
        cfg = SearchConfig(
            dimension=dim, family_size=fsize, field=field,
            restarts=1, steps_per_restart=2000, seed=1905,
        )
        search = maximize_residual_ratio if mode == "residual" else maximize_gruss_ratio
        result = search(cfg)
        text = serialize.dump_json(result.best_instance, None)
        assert result.best_ratio.hex() == ratio_hex
        assert result.evaluations == evaluations
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == instance_sha256

    @pytest.mark.parametrize(
        "mode, cell, steps, ratio, evaluations",
        [
            (mode, cell, steps, ratio, 2 * steps)
            for mode, cell, ratios in [
                ("residual", (1, 1, REAL), [0.0] * 5),
                ("gruss", (2, 2, COMPLEX), [0.0] * 5),
                ("residual", (16, 15, REAL), [0.0139775718984] * 3 + [0.0320875309469] * 2),
            ]
            for steps, ratio in zip((1, 2, 3, 7, 13), ratios)
        ],
    )
    def test_budget_cuts_are_pinned(self, mode, cell, steps, ratio, evaluations):
        # budgets of 2 to 26 evaluations end inside the first sweeps, where a
        # poll chunk is cut short by the budget; recorded with the climb that
        # evaluated one move at a time
        dim, fsize, field = cell
        cfg = SearchConfig(
            dimension=dim, family_size=fsize, field=field,
            restarts=1, steps_per_restart=steps, seed=1905,
        )
        search = maximize_residual_ratio if mode == "residual" else maximize_gruss_ratio
        result = search(cfg)
        assert result.evaluations == evaluations
        assert float(f"{result.best_ratio:.12g}") == ratio


def _start_state(cell, mode):
    """The first restart's start state of the default seed, drawn as the search
    draws it, with the family members."""
    dim, fsize, field = cell
    ctx = SpaceContext(field, dim)
    cfg = SearchConfig(dimension=dim, family_size=fsize, field=field, restarts=1, seed=1905)
    families, states = _start_states(cfg, {"residual": 1, "gruss": 2}[mode], ctx)
    return ctx, families.members[0], states[0]


def _edge_stack(cell, mode):
    """``test_stack_equals_its_rows``' stack: every coordinate move of the
    start state, then x far outside its box, then zero-width boxes."""
    ctx, members, state = _start_state(cell, mode)
    step = 0.125 * float(np.max(np.abs(state)))
    moves = [
        state + signed * direction
        for direction in _coordinate_directions(state.size, ctx.is_complex)
        for signed in (step, -step)
    ]
    far = state.copy()
    far[0] += 1e3 * step
    flat = state.copy()
    flat[-cell[1]:] = 0.0
    if mode == "gruss":
        flat[-3 * cell[1]:-2 * cell[1]] = 0.0
    return ctx, members, np.array([*moves, far, flat])


class TestEvaluatorEdgeCases:
    @pytest.mark.parametrize("mode", ["residual", "gruss"])
    @pytest.mark.parametrize("cell", [(4, 2, REAL), (16, 8, COMPLEX)], ids=str)
    def test_stack_equals_its_rows(self, cell, mode):
        # every coordinate move of a start state, then one state with x far
        # outside its box and one with zero-width boxes: the stacked values
        # are each row's values as a stack of one, bit for bit
        ctx, members, state = _start_state(cell, mode)
        step = 0.125 * float(np.max(np.abs(state)))
        moves = []
        for direction in _coordinate_directions(state.size, ctx.is_complex):
            for signed in (step, -step):
                moves.append(state + signed * direction)
        far = state.copy()
        far[0] += 1e3 * step
        flat = state.copy()
        flat[-cell[1]:] = 0.0
        if mode == "gruss":
            flat[-3 * cell[1]:-2 * cell[1]] = 0.0
        stack = np.array([*moves, far, flat])
        evaluator = _residual_evaluator if mode == "residual" else _gruss_evaluator
        evaluate = evaluator(ctx, members)
        stacked = evaluate(stack)
        rows = [evaluate(stack[i : i + 1]) for i in range(len(stack))]
        for part, values in zip(stacked, zip(*rows)):
            assert part.shape == (len(stack),)
            assert part.tobytes() == np.concatenate(values).tobytes()
        infeasible, _, _, degenerate = stacked
        assert infeasible[-2] and degenerate[-1]
        assert not infeasible[: len(moves)].all()

    @pytest.mark.parametrize("cell", [(4, 2, REAL), (16, 8, COMPLEX)], ids=str)
    def test_gruss_pair_stack_equals_separate_vectors(self, cell):
        # the gruss evaluator takes x and y as one (2, n, ...) stack; each
        # kernel call on it gives the bits of separate calls on x and on y
        ctx, members, stack = _edge_stack(cell, "gruss")
        dim, fsize = cell[:2]
        x, y = stack[:, :dim], stack[:, dim : 2 * dim]
        boxes = 2 * dim + np.arange(4) * fsize
        mid_x, d_x, mid_y, d_y = (stack[:, a : a + fsize] for a in boxes)
        slack_x = _slack_inner(ctx, x, members, mid_x - d_x, mid_x + d_x)
        slack_y = _slack_inner(ctx, y, members, mid_y - d_y, mid_y + d_y)
        diam_x, diam_y = _diameter(d_x), _diameter(d_y)
        scale = np.sqrt((_norm_sq(ctx, x) + diam_x) * (_norm_sq(ctx, y) + diam_y))
        expected = _objective(
            (slack_x < 0.0) | (slack_y < 0.0),
            _modulus(_deviation(
                ctx, x, y, _coefficients(ctx, x, members), _coefficients(ctx, y, members)
            )),
            np.sqrt(diam_x * diam_y),
            scale,
            slack_x + slack_y,
        )
        for part, values in zip(_gruss_evaluator(ctx, members)(stack), expected):
            assert part.tobytes() == values.tobytes()

    def test_degenerate_denominator_flagged(self):
        # x, y in the span with degenerate (zero-diameter) boxes: 0/0 -> 0
        members = np.eye(2, dtype=np.complex128)
        evaluate = _gruss_evaluator(SpaceContext(REAL, 2), members)
        x = np.array([1.0, 0.0], dtype=np.complex128)
        y = np.array([0.0, 1.0], dtype=np.complex128)
        mid_x, d_x = x[:2].copy(), np.zeros(2, dtype=np.complex128)
        mid_y, d_y = y[:2].copy(), np.zeros(2, dtype=np.complex128)
        flat = np.concatenate([x, y, mid_x, d_x, mid_y, d_y])
        _, (ratio,), _, (degenerate,) = evaluate(flat[None])
        assert ratio == 0.0
        assert degenerate

    def test_infeasible_state_rejected(self):
        members = np.eye(1, 2, dtype=np.complex128)
        evaluate = _residual_evaluator(SpaceContext(REAL, 2), members)
        x = np.array([10.0, 0.0], dtype=np.complex128)
        mid = np.array([0.0], dtype=np.complex128)
        d = np.array([1.0], dtype=np.complex128)
        (infeasible,), *_ = evaluate(np.concatenate([x, mid, d])[None])
        assert infeasible


class TestHillClimb:
    def test_nan_slack_is_feasible_but_never_accepted(self):
        # every move raises the ratio but has a NaN slack: the climb polls on,
        # halving its step after each missed sweep, and keeps its start
        def evaluate(stack):
            moved = stack[:, 0] != 0.0
            ratio = np.where(moved, 1.0, 0.0)
            slack = np.where(moved, np.nan, 0.0)
            return np.zeros(len(stack), bool), ratio, slack, np.zeros(len(stack), bool)

        start = np.zeros(1, dtype=np.complex128)
        directions = _coordinate_directions(1, False)
        state, best, evaluations = _hill_climb(start, evaluate, directions, 5, 1.0)
        assert state.tobytes() == start.tobytes()
        assert best == (0.0, 0.0, False)
        assert evaluations == 10

    @staticmethod
    def _scripted(ratio_weights, slack_weights):
        """An evaluator of real states: ratio and slack linear in the state,
        infeasible once a coordinate leaves [-1, 1]; it logs each stack's
        length."""
        calls = []

        def evaluate(stack):
            calls.append(len(stack))
            real = stack.real
            infeasible = (np.abs(real) > 1.0).any(axis=1)
            degenerate = np.zeros(len(stack), bool)
            return infeasible, real @ ratio_weights, real @ slack_weights, degenerate

        return evaluate, calls

    @pytest.mark.parametrize(
        "steps, calls",
        [
            (17, [1, 32, 32]),
            (45, [1, 32, 32, 6, 1, 32, 8, 9]),
        ],
    )
    def test_hits_on_the_first_and_last_row_of_a_chunk(self, monkeypatch, steps, calls):
        # 20 coordinates, 40 moves (+e0, -e0, +e1, ...), so at 32 moves per
        # chunk a full sweep is a chunk of 32 and a chunk of 8.  The ratio is
        # state[0] - state[16]:
        # - the start (1 evaluation) has ratio 0;
        # - chunk [0, 32) hits on its first row, +e0 (2 evaluations);
        # - chunk [2, 34) hits on its last row, -e16 (34 evaluations);
        # - with a budget of 34 the climb stops there.  With a budget of 90:
        # - chunk [34, 40) misses (40), the pattern move to 2 e0 - 2 e16 is
        #   infeasible (41), a sweep of 32 + 8 misses at step 1 (81), and the
        #   sweep at step 1/2 is cut to 9 moves by the budget (90)
        monkeypatch.setattr(sharpness, "_CHUNK", 32)
        evaluate, seen = self._scripted(np.eye(20)[0] - np.eye(20)[16], np.zeros(20))
        directions = _coordinate_directions(20, False)
        start = np.zeros(20, dtype=np.complex128)
        state, best, evaluations = _hill_climb(start, evaluate, directions, steps, 1.0)
        expected = np.zeros(20, dtype=np.complex128)
        expected[0], expected[16] = 1.0, -1.0
        assert state.tobytes() == expected.tobytes()
        assert best == (2.0, 0.0, False)
        assert evaluations == 2 * steps
        assert seen == calls

    def test_a_tie_is_won_only_by_a_larger_slack(self):
        # the ratio is 0 everywhere and the slack is state[1]:
        # - +e0 and -e0 tie on both and are refused, +e1 raises the slack
        #   (1 + 3 evaluations; -e1 is in the stack of 4 but not counted);
        # - the pattern move to 2 e1 is infeasible (5);
        # - the sweeps at steps 1 and 1/2 miss (9, 13), and the budget cuts
        #   the sweep at step 1/4 to 3 moves (16)
        evaluate, seen = self._scripted(np.zeros(2), np.array([0.0, 1.0]))
        directions = _coordinate_directions(2, False)
        start = np.zeros(2, dtype=np.complex128)
        state, best, evaluations = _hill_climb(start, evaluate, directions, 8, 1.0)
        assert state.tobytes() == np.array([0.0, 1.0], dtype=np.complex128).tobytes()
        assert best == (0.0, 1.0, False)
        assert evaluations == 16
        assert seen == [1, 4, 1, 4, 4, 3]
