import hashlib
import inspect
import json

import numpy as np
import pytest

from orthobounds import bounds, generate, serialize, sharpness, suite
from orthobounds.bounds import (
    CoefficientBox,
    check_condition,
    companion_abs_bound,
    companion_bound,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
)
from orthobounds.generate import (
    Instance,
    PairInstance,
    certified_box_arrays,
    generate_certified_instance,
    generate_certified_pair,
    generate_midpoint_pair,
    generate_twosided_pair,
    generate_unconstrained_instance,
    rng_from_seed,
)
from orthobounds.quadrature import WeightedL2Context, periodic_trapezoid
from orthobounds.sharpness import extremal_instance
from orthobounds.space import COMPLEX, REAL, OrthonormalFamily, SpaceContext, as_vector
from orthobounds.space import _coefficients, _norm_sq
from orthobounds.suite import TIGHTNESS_HEADER, SuiteConfig, run_suite, tightness_rows
from draws import family, gaussian
from test_bounds import rescaled_offsets
from test_source_draws import DRAWS


def _rounded(value):
    """Floats at 12 significant digits, so pinned digests ignore last-bit noise."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


#: sha256 of the 12-digit instance_to_dict of generator k's instance drawn
#: from rng_from_seed(20230516, k).  A change to generated data fails here.
PINNED_DIGESTS = {
    ((4, 2, REAL), generate_certified_instance):
        "6fdd883a4f6b15365ce59cf05a4bead68fa1a65bc68b2627a0592e4474d1ab8b",
    ((4, 2, REAL), generate_unconstrained_instance):
        "c2907e5d6eea69b9d0438e095e0704a2bdfa4bb26e59d80025438cb19902e1a6",
    ((4, 2, REAL), generate_certified_pair):
        "b350c43b9a6391dd4acea698a55d0a7bba04bb55f23bcef982b1e09850c7c4d6",
    ((4, 2, REAL), generate_midpoint_pair):
        "d05199d28511d31f8e3ca0846712ce79d3c05e573a185dadd236c609c3f248f9",
    ((4, 2, REAL), generate_twosided_pair):
        "27dedc307fab49eb99830b6cc70091770a733e2e4bc28fce79ec632d7818959f",
    ((16, 8, COMPLEX), generate_certified_instance):
        "747369428c994956215e04cf4e7b4b8c63d6c54cbfeb1e6ad25a4d497ca38542",
    ((16, 8, COMPLEX), generate_unconstrained_instance):
        "80bbd62c57f245ab6717ead2e7fec8d18ed3c697faa11df3dc1724f1bfe06545",
    ((16, 8, COMPLEX), generate_certified_pair):
        "29cdf015754ae426052cdea2408f65696b962a492b9b60989e0ef308d4aa9f0e",
    ((16, 8, COMPLEX), generate_midpoint_pair):
        "e8dc5fbb4b65d80c66b304c00e191c79e27976ee7bc1b6b48e945a86888f0c95",
    ((16, 8, COMPLEX), generate_twosided_pair):
        "ae29f2a4ea5e3ba694104294c41582aa93479f008f9ec6518100542c62be87d7",
}
GENERATORS = (
    generate_certified_instance,
    generate_unconstrained_instance,
    generate_certified_pair,
    generate_midpoint_pair,
    generate_twosided_pair,
)


@pytest.mark.parametrize("shape", [(4, 2, REAL), (16, 8, COMPLEX)], ids=str)
@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
def test_generated_data_is_pinned(shape, generator):
    rng = rng_from_seed(20230516, GENERATORS.index(generator))
    payload = _rounded(serialize.instance_to_dict(generator(rng, *shape)))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_DIGESTS[shape, generator]


#: (d, F) cells of the test family helper's pin, from (1, 1) to (64, 64)
FAMILY_CELLS = [
    (d, f) for d in (1, 2, 3, 4, 8, 16, 32, 64) for f in sorted({1, d // 2 or 1, d - 1 or 1, d})
]


def test_test_family_helper_is_pinned():
    # sha256 over each family's member bytes, its Gram defect and the next 3
    # normals of its stream: a change to what draws.family draws, keeps or
    # leaves on the stream fails here
    digest = hashlib.sha256()

    def record(rng, fam):
        digest.update(fam.members.tobytes())
        digest.update(np.float64(fam.gram_defect).tobytes())
        digest.update(rng.standard_normal(3).tobytes())

    for dim, size in FAMILY_CELLS:
        for field in (REAL, COMPLEX):
            for seed in range(20):
                rng = rng_from_seed(20230516, dim, size, (REAL, COMPLEX).index(field), seed)
                record(rng, family(rng, SpaceContext(field, dim), size))
    # a zeroed first draw is rejected and the family drawn again
    ctx = SpaceContext(COMPLEX, 4)
    zeroed, plain = _ZeroedDraw(3, (1,), 1), rng_from_seed(3, 1)
    redrawn = family(zeroed, ctx, 2)
    plain.standard_normal((1, 2, 2, 4))
    assert redrawn.members.tobytes() == family(plain, ctx, 2).members.tobytes()
    record(zeroed, redrawn)
    with pytest.raises(ValueError):
        family(rng_from_seed(3, 2), SpaceContext(REAL, 2), 3)
    assert digest.hexdigest() == "4f623e2e7e54bbbc8a1cd12a310f591c32f2036b55f99a63f9e730f772f00f2a"


class TestRngStreams:
    def test_same_key_reproduces(self):
        a = rng_from_seed(42, 1, 2).standard_normal(5)
        b = rng_from_seed(42, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = rng_from_seed(42, 1, 2).standard_normal(5)
        b = rng_from_seed(42, 1, 3).standard_normal(5)
        assert not np.array_equal(a, b)


class TestGenerateCertifiedInstance:
    def test_every_draw_certifies(self):
        for i in range(200):
            field = COMPLEX if i % 2 else REAL
            rng = rng_from_seed(1000, i)
            inst = generate_certified_instance(rng, 6, 3, field)
            report = check_condition(*inst)
            assert report.holds, f"instance {i} has slack {report.slack_inner:.3e}"

    def test_boundary_slack_factor_gives_zero_norm_slack(self):
        rng = rng_from_seed(7, 0)
        ctx = SpaceContext(REAL, 5)
        fam = family(rng, ctx, 2)
        x = gaussian(rng, 5, False)
        mid, d = certified_box_arrays(rng, ctx, x, fam, (0, 1))
        d = rescaled_offsets(ctx, x, fam, (0, 1), mid, d, 1.0)
        box = CoefficientBox.centered((0, 1), mid, d)
        slack = check_condition(ctx, x, fam, (0, 1), box).slack_norm
        scale = instance_scale(ctx, x, box)
        assert abs(slack) <= 1e-9 * scale

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_box_arrays_redraw_a_zero_direction(self, field):
        # the box draws its noise, its slack uniform, then its direction: the
        # second standard_normal call is all zeros, and the direction alone is
        # drawn again
        ctx = SpaceContext(field, 6)
        fam = OrthonormalFamily.from_members(ctx, np.eye(6)[[0, 2, 3]])
        x = as_vector(ctx, np.linspace(1.0, 2.0, 6) * (1 + 1j if ctx.is_complex else 1))
        idx = (0, 1, 2)
        plain = rng_from_seed(4, 2)
        mid, half = certified_box_arrays(plain, ctx, x, fam, idx)
        zeroed = _ZeroedDraw(4, (2,), 2)
        redrawn_mid, redrawn_half = certified_box_arrays(zeroed, ctx, x, fam, idx)
        assert redrawn_mid.tobytes() == mid.tobytes()
        assert np.all(redrawn_half != 0) and not np.array_equal(redrawn_half, half)
        box = CoefficientBox.centered(idx, redrawn_mid, redrawn_half)
        assert check_condition(ctx, x, fam, idx, box).holds
        plain.standard_normal((2 if ctx.is_complex else 1) * len(idx))
        assert zeroed.bit_generator.state == plain.bit_generator.state

    @pytest.mark.parametrize(
        "generate", [generate_certified_instance, generate_certified_pair, generate_twosided_pair]
    )
    def test_instances_own_read_only_arrays(self, generate):
        # x and y were writable views of the build's vector stack, and a
        # pair's two vectors shared one buffer
        inst = generate(rng_from_seed(6, 0), 4, 2, COMPLEX)
        vectors = (inst.x, inst.y) if isinstance(inst, PairInstance) else (inst.x,)
        boxes = (inst.box_x, inst.box_y) if isinstance(inst, PairInstance) else (inst.box,)
        ends = [a for box in boxes for a in (box.lower_array, box.upper_array)]
        for array in (*vectors, inst.family.members, *ends):
            assert array.base is None and not array.flags.writeable

    def test_box_arrays_apply_the_size_guard(self):
        # without it, ||x||^2 overflows and the half-widths come out inf and NaN
        ctx = SpaceContext(REAL, 3)
        fam = OrthonormalFamily.from_members(ctx, np.eye(3))
        with pytest.raises(ValueError, match="inputs too large"):
            certified_box_arrays(rng_from_seed(1), ctx, [1e300] * 3, fam, (0, 1))

    def test_full_span_family_gives_zero_residual(self):
        for i in range(20):
            rng = rng_from_seed(8, i)
            inst = generate_certified_instance(rng, 4, 4, REAL)
            report = counterpart_bounds(*inst)
            scale = instance_scale(inst.ctx, inst.x, inst.box)
            assert abs(report.residual) <= 1e-10 * scale

    def test_unconstrained_mixes_signs(self):
        holds = 0
        for i in range(200):
            rng = rng_from_seed(9, i)
            inst = generate_unconstrained_instance(rng, 4, 2, REAL)
            if check_condition(*inst).holds:
                holds += 1
        assert 20 < holds < 180


class TestPairGenerators:
    def test_certified_pair_has_both_conditions(self):
        for i in range(50):
            rng = rng_from_seed(10, i)
            pair = generate_certified_pair(rng, 5, 2, COMPLEX if i % 2 else REAL)
            assert check_condition(
                pair.ctx, pair.x, pair.family, pair.indices, pair.box_x
            ).holds
            assert check_condition(
                pair.ctx, pair.y, pair.family, pair.indices, pair.box_y
            ).holds

    def test_midpoint_pair_certifies_companion(self):
        for i in range(50):
            rng = rng_from_seed(11, i)
            pair = generate_midpoint_pair(rng, 5, 2, COMPLEX if i % 2 else REAL)
            report = companion_bound(
                pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x
            )
            assert report.certified

    def test_twosided_pair_certifies_both_midpoints(self):
        for i in range(50):
            rng = rng_from_seed(12, i)
            pair = generate_twosided_pair(rng, 5, 2, COMPLEX if i % 2 else REAL)
            report = companion_abs_bound(
                pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x
            )
            assert report.certified

    @pytest.mark.parametrize("generator", [generate_midpoint_pair, generate_twosided_pair])
    def test_shared_box_is_one_object(self, generator):
        # the one stacked box of a shared-box pair is built once per row
        pair = generator(rng_from_seed(13, 0), 5, 2, REAL)
        assert pair.box_x is pair.box_y


def _per_instance_outcome(cfg, stream=rng_from_seed):
    """The outcome of ``cfg`` assembled one instance at a time, in the order
    run_suite documents, from the public generators and checks."""
    outcome = suite.SuiteOutcome(config=cfg)
    for c, (dim, fsize, fld) in enumerate(cfg.cells()):
        for i in range(cfg.instance_count):
            rng = stream(cfg.seed, c, i)
            inst, loose, pair, mid_pair, two_pair = (
                generator(rng, dim, fsize, fld) for generator in GENERATORS
            )
            condition = check_condition(*inst)
            records = [
                ("generator_soundness", inst, (condition.holds, condition.slack_inner)),
                ("counterpart_chain", inst, suite.check_counterpart_chain(inst)),
                ("identity", inst, suite.check_identity(inst)),
                ("condition_equivalence", inst, suite.check_condition_equivalence(inst)),
                ("l2_embedding", inst, suite.check_l2_embedding(inst)),
                ("condition_equivalence", loose, suite.check_condition_equivalence(loose)),
                ("gruss_chain", pair, suite.check_gruss_chain(pair)),
                ("projection_identity", pair, suite.check_projection_identity(pair)),
                ("schwarz", pair, suite.check_schwarz(pair)),
                ("companion", mid_pair, suite.check_companion(mid_pair)),
                ("companion_abs", two_pair, suite.check_companion_abs(two_pair)),
            ]
            for name, instance, (ok, margin) in records:
                if not ok and len(outcome.failures) < suite.MAX_STORED_FAILURES:
                    outcome._store(name, margin, instance)
                outcome.checks.setdefault(name, suite.CheckTally()).record(ok, margin)
    return outcome


def _outcome_text(outcome):
    payload = outcome.to_dict()
    payload.pop("generated_at")
    return json.dumps(payload, sort_keys=True)


def _recorded(monkeypatch, route, cfg):
    """The outcome ``route(cfg)`` builds and every record it tallies, per
    check in record order: (ok, the margin's bytes), so a margin of -0.0
    differs from 0.0.  The hook sits on the tally path, ``CheckTally.record``,
    and each tally is named by its key in ``outcome.checks``."""
    records = {}
    record = suite.CheckTally.record

    def keep(tally, ok, margin):
        records.setdefault(id(tally), []).append((ok, np.float64(margin).tobytes()))
        record(tally, ok, margin)

    with monkeypatch.context() as patch:
        patch.setattr(suite.CheckTally, "record", keep)
        outcome = route(cfg)
    return outcome, {name: records[id(tally)] for name, tally in outcome.checks.items()}


class _ZeroedDraw(np.random.Generator):
    """A stream whose ``call``-th standard_normal call (1-based) returns zeros
    in place of the numbers it drew, and so does every later call that
    starts at the bit generator state that call started at: a replay from a
    snapshot draws the zeros again, as it would draw the same numbers."""

    def __init__(self, seed, key, call):
        super().__init__(rng_from_seed(seed, *key).bit_generator)
        self.calls_left, self.zeroed = call, None

    def standard_normal(self, *args, **kwargs):
        start = self.bit_generator.state
        values = super().standard_normal(*args, **kwargs)
        self.calls_left -= 1
        if self.calls_left == 0:
            self.zeroed = start
        if start == self.zeroed:
            values[...] = 0.0
        return values


class _Recording(np.random.Generator):
    """A stream that logs each draw call as (method, number of values)."""

    def __init__(self, seed, key, log):
        super().__init__(rng_from_seed(seed, *key).bit_generator)
        self.log = log.setdefault(key, [])


def _logged(name):
    def draw(self, *args, **kwargs):
        values = getattr(np.random.Generator, name)(self, *args, **kwargs)
        self.log.append((name, np.size(values)))
        return values

    return draw


for _name in DRAWS:
    setattr(_Recording, _name, _logged(_name))


class TestStackedSuite:
    @pytest.mark.parametrize(
        "cell, count", [((2, 1, REAL), 6), ((16, 8, COMPLEX), 6), ((128, 64, COMPLEX), 2)], ids=str
    )
    def test_stacked_cell_matches_the_per_instance_route(self, monkeypatch, cell, count):
        dim, fsize, fld = cell
        cfg = SuiteConfig(
            instance_count=count, dims=(dim,), family_sizes=(fsize,), fields=(fld,), seed=11
        )
        stacked, stacked_records = _recorded(monkeypatch, run_suite, cfg)
        alone, alone_records = _recorded(monkeypatch, _per_instance_outcome, cfg)
        assert list(stacked_records) == list(alone_records)
        counts = [sum(map(len, records.values())) for records in (stacked_records, alone_records)]
        assert counts == [11 * count] * 2
        for name, records in alone_records.items():
            assert len(stacked_records[name]) == len(records), name
            for k, (record, other) in enumerate(zip(stacked_records[name], records)):
                assert record == other, (name, k, record, other)
        assert _outcome_text(stacked) == _outcome_text(alone)

    def test_the_cell_pass_matches_separate_kernel_calls(self, monkeypatch):
        # every default-grid cell in both fields, three seeds: the squared
        # norms, coefficients and box conditions each evaluator receives from
        # the one pass, and the deviation a pair evaluator forms from them,
        # equal a _norm_sq, _coefficients, _condition or _deviation call on
        # its own source's stack, byte for byte, the (x-y)/2 cover included
        covers = {
            generate._CERTIFIED: lambda s: [(s.x, s.box)],
            generate._LOOSE: lambda s: [(s.x, s.box)],
            generate._PAIR: lambda s: [(s.x, s.box_x), (s.y, s.box_y)],
            generate._MIDPOINT: lambda s: [(0.5 * (s.x + s.y), s.box_x)],
            generate._TWOSIDED: lambda s: [
                (0.5 * (s.x + s.y), s.box_x), (0.5 * (s.x - s.y), s.box_x)
            ],
        }
        seen, formed = [], []
        for source, evaluate in suite._SOURCES.items():
            def keep(stack, *args, source=source, evaluate=evaluate):
                start = len(formed)
                records = evaluate(stack, *args)
                seen.append((source, stack, args, formed[start:]))
                return records

            monkeypatch.setitem(suite._SOURCES, source, keep)
        deviation = bounds._deviation

        def forming(*args):
            formed.append(deviation(*args))
            return formed[-1]

        monkeypatch.setattr(suite, "_deviation", forming)
        for seed in (1, 2, 3):
            run_suite(SuiteConfig(instance_count=4, seed=seed))
        assert len(seen) == 3 * len(SuiteConfig().cells()) * 5
        bits = lambda value: (np.asarray(value).dtype, np.asarray(value).tobytes())
        for source, stack, args, deviations in seen:
            ctx, rows = stack.ctx, stack.family.members
            vectors = (stack.x, stack.y) if isinstance(stack, PairInstance) else (stack.x,)
            pairs = covers[source](stack)
            norms, args = args[:len(vectors)], args[len(vectors):]
            coefficients, conditions = args[:len(vectors)], args[len(vectors):]
            assert [bits(n) for n in norms] == [bits(_norm_sq(ctx, v)) for v in vectors]
            alone = [_coefficients(ctx, v, rows) for v in vectors]
            assert [bits(c) for c in coefficients] == [bits(c) for c in alone], source
            for (v, box), condition in zip(pairs, conditions, strict=True):
                single = bounds._condition(ctx, v, _norm_sq(ctx, v), rows, box)
                for name in ("slack_inner", "slack_norm", "holds", "tolerance"):
                    assert bits(getattr(condition, name)) == bits(getattr(single, name)), (source, name)
            if isinstance(stack, PairInstance):
                assert [bits(d) for d in deviations] == [bits(bounds._deviation(ctx, stack.x, stack.y, *alone))]
            else:
                assert deviations == []

    def test_a_tally_keeps_the_first_least_margin_and_skips_nan(self):
        # a margin replaces the worst only when it is less, so 0.0 then -0.0
        # keeps 0.0 and NaN is never kept
        nan = float("nan")
        cases = [
            [0.0, -0.0], [-0.0, 0.0], [nan, 1.0], [1.0, nan, 0.5], [nan], [nan, -0.0, 0.0, nan],
        ]
        for margins in cases:
            oks = [m == m and m > 0 for m in margins]
            alone = suite.CheckTally()
            worst = float("inf")
            for ok, margin in zip(oks, margins):
                alone.record(ok, margin)
                if margin < worst:
                    worst = margin
            counts = (sum(oks), len(oks) - sum(oks))
            assert (alone.passed, alone.failed) == counts
            assert np.float64(alone.worst_margin).tobytes() == np.float64(worst).tobytes(), margins
        assert np.signbit(worst) and worst == 0.0
        # and on an outcome's tally
        outcome = suite.SuiteOutcome(config=SuiteConfig())
        tally = outcome.checks.setdefault("check", suite.CheckTally())
        for margin in (0.0, -0.0, nan):
            tally.record(True, margin)
        assert not np.signbit(outcome.checks["check"].worst_margin)
        assert outcome.checks["check"].to_dict() == {"passed": 3, "failed": 0, "worst_margin": 0.0}

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_each_stream_draws_as_the_public_generators_do(self, monkeypatch, field):
        # every family size, each stream's calls in order, with their sizes
        cfg = SuiteConfig(instance_count=2, dims=(8,), family_sizes=(1, 2, 4, 8), fields=(field,))
        suite_log, alone_log = {}, {}
        monkeypatch.setattr(suite, "rng_from_seed", lambda seed, *key: _Recording(seed, key, suite_log))
        run_suite(cfg)
        _per_instance_outcome(cfg, lambda seed, *key: _Recording(seed, key, alone_log))
        assert len(suite_log) == 8
        assert suite_log == alone_log
        # one call per run of normals and one per uniform: 17 per cell
        assert {len(calls) for calls in suite_log.values()} == {17}

    @pytest.mark.parametrize(
        "call, what",
        [(1, "family"), (2, "box direction"), (5, "pair family"), (6, "pair box direction")],
    )
    def test_a_redrawn_stream_matches_the_per_instance_route(self, monkeypatch, call, what):
        # the call-th standard_normal call of instance 1 is all zeros: a run
        # of normals that starts with a family, which CGS2 rejects, or a box
        # direction, in the first source or a later one; that stream alone is
        # replayed and draws it again
        cfg = SuiteConfig(instance_count=3, dims=(4,), family_sizes=(2,), fields=(COMPLEX,), seed=5)

        def stream(seed, *key):
            return _ZeroedDraw(seed, key, call) if key == (0, 1) else rng_from_seed(seed, *key)

        monkeypatch.setattr(suite, "rng_from_seed", stream)
        redrawn = run_suite(cfg)
        assert redrawn.ok
        assert _outcome_text(redrawn) == _outcome_text(_per_instance_outcome(cfg, stream))
        monkeypatch.undo()
        assert _outcome_text(redrawn) != _outcome_text(run_suite(cfg)), what


class TestSuite:
    def test_default_grid_small_count_passes(self):
        outcome = run_suite(SuiteConfig(instance_count=2))
        assert outcome.ok
        assert outcome.total_failed == 0
        for tally in outcome.checks.values():
            assert tally.failed == 0

    def test_default_grid_outcome_is_pinned(self):
        # (passed, failed, worst_margin at 12 significant digits) per check; a
        # change to generated data or to any chain's rounding fails here
        payload = _rounded(run_suite(SuiteConfig(instance_count=2)).to_dict())
        payload.pop("generated_at")
        checks = payload.pop("checks")
        assert {name: tuple(tally.values()) for name, tally in checks.items()} == {
            "companion": (52, 0, 0.148050998166),
            "companion_abs": (52, 0, 0.114561817538),
            "condition_equivalence": (104, 0, 0.0),
            "counterpart_chain": (52, 0, -1.7763568394e-15),
            "generator_soundness": (52, 0, 0.044205004774),
            "gruss_chain": (52, 0, 0.0485230062463),
            "identity": (52, 0, -1.70530256582e-13),
            "l2_embedding": (52, 0, 0.0),
            "projection_identity": (52, 0, -8.881784197e-15),
            "schwarz": (52, 0, -8.881784197e-16),
        }
        assert payload == {
            "config": SuiteConfig(instance_count=2).to_dict(),
            "failures": [],
            "total_failed": 0,
            "ok": True,
        }

    def test_reproducible_modulo_timestamp(self):
        cfg = SuiteConfig(instance_count=2, dims=(2, 4), family_sizes=(1, 2), fields=(REAL,))
        first = run_suite(cfg).to_dict()
        second = run_suite(cfg).to_dict()
        first.pop("generated_at")
        second.pop("generated_at")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_writes_outcome_json(self, tmp_path):
        path = tmp_path / "outcome.json"
        cfg = SuiteConfig(instance_count=1, dims=(2,), family_sizes=(1,), fields=(REAL,))
        outcome = run_suite(cfg)
        serialize.dump_json(outcome.to_dict(), path)
        loaded = json.loads(path.read_text())
        assert loaded["ok"] == outcome.ok
        assert set(loaded["checks"]) == set(outcome.checks)

    def test_failures_are_recorded(self):
        # force failures with an absurd tolerance on the identity check by
        # running the real suite config but verifying the bookkeeping path
        # directly instead
        outcome = run_suite(SuiteConfig(instance_count=1, dims=(2,), family_sizes=(1,), fields=(REAL,)))
        inst = generate_certified_instance(rng_from_seed(1, 1), 2, 1, REAL)
        outcome.checks.setdefault("synthetic", suite.CheckTally()).record(False, -1.0)
        outcome._store("synthetic", -1.0, inst)
        assert not outcome.ok
        assert outcome.failures[-1]["check"] == "synthetic"
        assert outcome.failures[-1]["margin"] == -1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(instance_count=0)
        for bad in ({"dims": (0, 2)}, {"family_sizes": (1, 0)}, {"fields": (REAL, "quaternion")}):
            with pytest.raises(ValueError, match="got"):
                SuiteConfig(**bad)
        # it used to run cell (2, 1, real) four times and tally 8 records per check
        with pytest.raises(ValueError, match="dims must hold distinct values, got a second 2$"):
            SuiteConfig(instance_count=2, dims=(2, 2), family_sizes=(1,), fields=(REAL, REAL))

    def test_stored_failures_replay_from_their_payload(self, monkeypatch):
        # a negative allowance fails most checks; every stored payload,
        # rebuilt from its JSON, must fail its check again with the stored
        # margin, bit for bit
        monkeypatch.setattr(suite, "chain_allowance", lambda inst, scale: -1.0)
        outcome = run_suite(SuiteConfig(instance_count=3, dims=(4, 16), family_sizes=(2, 8)))
        assert (outcome.total_failed, len(outcome.failures)) == (79, 25)
        for payload in outcome.failures:
            inst = serialize.instance_from_dict(json.loads(json.dumps(payload)))
            ok, margin = getattr(suite, "check_" + payload["check"])(inst)
            assert ok is False
            assert np.float64(margin).tobytes() == np.float64(payload["margin"]).tobytes()

    def test_every_recorded_check_has_a_public_replay(self):
        outcome = run_suite(SuiteConfig(instance_count=1, dims=(2,), family_sizes=(1,)))
        assert len(outcome.checks) == 10
        for name in outcome.checks:
            check = getattr(suite, "check_" + name, None)
            assert inspect.isfunction(check) and check.__module__ == suite.__name__, name

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_a_replay_on_a_partial_index_set_matches_the_public_chain(self, field):
        # a replay lays out only the selected rows of the family, here rows
        # (0, 2) of three; each check's margin is the public chain's, bit for bit
        indices = (0, 2)
        ctx = SpaceContext(field, 6)
        bits = lambda value: np.float64(value).tobytes()

        def cut(box):
            return CoefficientBox(indices, box.lower_array[list(indices)], box.upper_array[list(indices)])

        for i in range(4):
            pair = generate_certified_pair(rng_from_seed(29, i), 6, 3, field)
            x, y, fam = pair.x, pair.y, pair.family
            box_x, box_y = cut(pair.box_x), cut(pair.box_y)
            _, margin = suite.check_counterpart_chain(Instance(ctx, x, fam, indices, box_x))
            assert bits(margin) == bits(counterpart_bounds(ctx, x, fam, indices, box_x).margin)
            _, margin = suite.check_gruss_chain(PairInstance(ctx, x, y, fam, indices, box_x, box_y))
            assert bits(margin) == bits(gruss_bounds(ctx, x, y, fam, indices, box_x, box_y).margin)
            for generator, check, chain in (
                (generate_midpoint_pair, suite.check_companion, companion_bound),
                (generate_twosided_pair, suite.check_companion_abs, companion_abs_bound),
            ):
                shared = generator(rng_from_seed(29, i), 6, 3, field)
                x, y, fam, box = shared.x, shared.y, shared.family, cut(shared.box_x)
                _, margin = check(PairInstance(ctx, x, y, fam, indices, box, box))
                assert bits(margin) == bits(chain(ctx, x, y, fam, indices, box).margin), check

    def test_generator_soundness_failures_replay_from_their_payload(self, monkeypatch):
        # a negative rounding allowance in the box condition fails the
        # generated boxes' certification; every stored payload must fail its
        # check again with the stored margin, bit for bit
        monkeypatch.setattr(bounds, "allowance", lambda *args: -1.0)
        outcome = run_suite(SuiteConfig(instance_count=2, dims=(4,), family_sizes=(2,)))
        assert "generator_soundness" in {payload["check"] for payload in outcome.failures}
        for payload in outcome.failures:
            inst = serialize.instance_from_dict(json.loads(json.dumps(payload)))
            ok, margin = getattr(suite, "check_" + payload["check"])(inst)
            assert ok is False
            assert np.float64(margin).tobytes() == np.float64(payload["margin"]).tobytes()

    def test_stored_failures_match_the_per_instance_route(self, monkeypatch):
        # a negative rounding allowance in the box condition fails more
        # records in one cell than the store keeps; the stored payloads are
        # the per-instance route's, in order, byte for byte
        monkeypatch.setattr(bounds, "allowance", lambda *args: -1.0)
        cfg = SuiteConfig(instance_count=10, dims=(4,), family_sizes=(2,), fields=(REAL,))
        stored, alone = (route(cfg) for route in (run_suite, _per_instance_outcome))
        assert stored.checks == alone.checks
        assert stored.total_failed > suite.MAX_STORED_FAILURES
        assert len(stored.failures) == suite.MAX_STORED_FAILURES
        assert [json.dumps(p) for p in stored.failures] == [json.dumps(p) for p in alone.failures]

    def test_a_failure_past_the_store_cap_is_not_rebuilt(self, monkeypatch):
        # a small negative allowance fails hundreds of records on the default
        # grid; only the stored ones rebuild their instance from the stack
        rebuilt = []

        def counting(stack, i):
            rebuilt.append(i)
            return generate._row(stack, i)

        monkeypatch.setattr(suite, "chain_allowance", lambda inst, scale: -1e-12)
        monkeypatch.setattr(suite, "_row", counting)
        outcome = run_suite(SuiteConfig(instance_count=8))
        assert outcome.total_failed > 10 * suite.MAX_STORED_FAILURES
        assert len(outcome.failures) == len(rebuilt) == suite.MAX_STORED_FAILURES

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_a_cell_evaluates_the_box_condition_twice(self, monkeypatch, count):
        # one call over the cell's seven (vector, box) pairs: the certified
        # and the loose instance's x, the pair's x and y, the midpoint pair's
        # (x+y)/2 and the two-sided pair's (x+y)/2 and (x-y)/2; and one for
        # the certified instance's counting-context second route
        condition = bounds._condition
        calls = []

        def counting(*args, **kwargs):
            calls.append((args[0].weights is None, args[1].shape))
            return condition(*args, **kwargs)

        monkeypatch.setattr(bounds, "_condition", counting)
        monkeypatch.setattr(suite, "_condition", counting)
        run_suite(SuiteConfig(instance_count=count, dims=(4,), family_sizes=(2,), fields=(COMPLEX,)))
        assert calls == [(True, (7, count, 4)), (False, (count, 4))]

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_a_cell_computes_the_coefficients_twice(self, monkeypatch, count):
        # one call over the eight vectors of the cell's five sources, each on
        # its own source's family rows, and one for the certified instance's
        # counting-context second route; a deviation takes its coefficients
        # and computes none, and a gruss evaluation computes its x and y
        # coefficients in one call on their (2, n, d) stack
        calls = []

        def counting(module):
            coefficients = module._coefficients

            def call(ctx, x, rows):
                calls.append((module.__name__, ctx.weights is None, x.shape, rows.shape))
                return coefficients(ctx, x, rows)

            return call

        for module in (suite, bounds, sharpness):
            monkeypatch.setattr(module, "_coefficients", counting(module))
        run_suite(SuiteConfig(instance_count=count, dims=(4,), family_sizes=(2,), fields=(COMPLEX,)))
        assert calls == [
            ("orthobounds.suite", True, (8, count, 4), (8, count, 2, 4)),
            ("orthobounds.suite", False, (count, 4), (count, 2, 4)),
        ]
        calls.clear()
        cfg = sharpness.SearchConfig(dimension=4, family_size=2, field=COMPLEX, restarts=count)
        ctx = SpaceContext(COMPLEX, 4)
        families, states = sharpness._start_states(cfg, 2, ctx)
        sharpness._gruss_evaluator(ctx, families.members[0])(states)
        assert calls == [("orthobounds.sharpness", True, (2, count, 4), (2, 4))]


class TestTightnessTable:
    def test_rows_for_worked_examples(self, tmp_path):
        ctx3 = None
        inst = extremal_instance(1.0)
        from orthobounds.space import OrthonormalFamily, SpaceContext, as_vector

        ctx = SpaceContext(REAL, 3)
        fam = OrthonormalFamily.from_members(ctx, np.eye(3))
        x = as_vector(ctx, (0.5, 0.3, 0.2))
        y = as_vector(ctx, (0.2, 0.6, 0.1))
        box = CoefficientBox((0, 1), (0, 0), (1, 1))
        pair = PairInstance(ctx, x, y, fam, (0, 1), box, box)
        degenerate = Instance(
            ctx, fam.members[0], fam, (0,), CoefficientBox((0,), (1.0,), (1.0,))
        )
        rows = tightness_rows(
            [("extremal", inst), ("r3-gruss", pair), ("degenerate", degenerate)]
        )
        by_id = {row[0]: row for row in rows}
        assert by_id["extremal"][6] == pytest.approx(0.25, rel=1e-12)
        assert by_id["r3-gruss"][1] == pytest.approx(0.02, rel=1e-12)
        assert by_id["r3-gruss"][2] == pytest.approx(0.09527787310303887, rel=1e-12)
        assert by_id["r3-gruss"][3] == pytest.approx(0.5, rel=1e-14)
        assert by_id["degenerate"][1] == pytest.approx(0.0, abs=1e-15)
        assert by_id["degenerate"][3] == 0.0
        assert by_id["degenerate"][6] == 0.0

        out = tmp_path / "tightness.csv"
        serialize.write_csv(out, TIGHTNESS_HEADER, rows)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("instance-id,")
        assert len(lines) == 4

    def test_csv_floats_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        out = tmp_path / "roundtrip.csv"
        serialize.write_csv(out, ("v",), [(value,)])
        text = out.read_text().splitlines()[1]
        assert float(text) == value


class TestSerialization:
    def test_scalar_encoding(self):
        assert serialize.encode_vector([1.5], REAL) == [1.5]
        assert serialize.encode_vector([1.5 + 0.5j], COMPLEX) == [[1.5, 0.5]]
        assert serialize.decode_vector([1.5], 1).tolist() == [1.5 + 0j]
        assert serialize.decode_vector([[1.5, 0.5]], 1).tolist() == [1.5 + 0.5j]

    def test_instance_roundtrip_real(self):
        inst = generate_certified_instance(rng_from_seed(5, 0), 4, 2, REAL)
        payload = serialize.instance_to_dict(inst)
        clone = serialize.instance_from_dict(json.loads(json.dumps(payload)))
        np.testing.assert_array_equal(inst.x, clone.x)
        np.testing.assert_array_equal(inst.family.members, clone.family.members)
        np.testing.assert_array_equal(inst.box.lower_array, clone.box.lower_array)
        np.testing.assert_array_equal(inst.box.upper_array, clone.box.upper_array)
        assert counterpart_bounds(*inst).to_dict() == counterpart_bounds(*clone).to_dict()

    def test_pair_roundtrip_complex(self):
        pair = generate_certified_pair(rng_from_seed(5, 1), 4, 2, COMPLEX)
        payload = serialize.instance_to_dict(pair)
        clone = serialize.instance_from_dict(json.loads(json.dumps(payload)))
        assert isinstance(clone, PairInstance)
        np.testing.assert_array_equal(pair.y, clone.y)
        np.testing.assert_array_equal(pair.box_y.upper_array, clone.box_y.upper_array)

    def test_digest_is_stable_and_content_sensitive(self):
        inst = generate_certified_instance(rng_from_seed(5, 2), 3, 1, REAL)
        payload = serialize.instance_to_dict(inst)
        assert serialize.digest(payload) == serialize.digest(json.loads(json.dumps(payload)))
        mutated = dict(payload)
        mutated["indices"] = [0]
        mutated["x"] = [v + 1 for v in payload["x"]]
        assert serialize.digest(mutated) != serialize.digest(payload)

    def test_report_payload_has_fixed_field_names(self):
        inst = generate_certified_instance(rng_from_seed(5, 3), 3, 2, REAL)
        body = serialize.report_payload(counterpart_bounds(*inst), inst)
        assert {"residual", "refined", "coarse", "slack_inner", "slack_norm", "certified", "digest"} <= set(body)

    def test_l2_instance_roundtrip(self):
        ctx = WeightedL2Context.uniform_density(periodic_trapezoid(16))
        f = as_vector(ctx.context, np.sin(ctx.space.nodes))
        payload = serialize.l2_instance_to_dict(ctx, {"f": f})
        ctx2, funcs = serialize.l2_instance_from_dict(json.loads(json.dumps(payload)))
        assert ctx2.space.kind == "periodic-trapezoid"
        np.testing.assert_array_equal(funcs["f"], f)
