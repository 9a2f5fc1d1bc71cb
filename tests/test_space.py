import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobounds.space import (
    COMPLEX,
    REAL,
    DegeneracyError,
    OrthonormalFamily,
    SpaceContext,
    _coefficients,
    _combine,
    _dot,
    _inner,
    _modulus,
    _norm_sq,
    as_vector,
    gram_schmidt,
    index_set,
    inner_product,
    norm,
)
from orthobounds.quadrature import (
    WeightedL2Context,
    build_family,
    gauss_legendre,
    periodic_trapezoid,
)
from orthobounds.bounds import CoefficientBox, instance_scale, pair_scale
from orthobounds.generate import check_seed, generate_certified_instance, rng_from_seed
from orthobounds.serialize import instance_from_dict
from orthobounds.sharpness import SearchConfig
from orthobounds.suite import SuiteConfig
from reference import ref_inner

S = 1.0 / math.sqrt(2.0)


def std_basis(dim, field=REAL):
    ctx = SpaceContext(field, dim)
    return ctx, OrthonormalFamily.from_members(ctx, np.eye(dim))


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def vector_strategy(dim, complex_field):
    if complex_field:
        return st.lists(
            st.tuples(finite, finite).map(lambda t: complex(*t)), min_size=dim, max_size=dim
        )
    return st.lists(finite, min_size=dim, max_size=dim)


class TestInnerProduct:
    def test_orthogonal_axes(self):
        ctx = SpaceContext(REAL, 2)
        assert inner_product(ctx, as_vector(ctx, (1, 0)), as_vector(ctx, (0, 1))) == 0

    def test_extremal_pair_is_orthogonal(self):
        ctx = SpaceContext(REAL, 2)
        x = as_vector(ctx, (S, -S))
        e = as_vector(ctx, (S, S))
        assert abs(inner_product(ctx, x, e)) <= 1e-15

    def test_complex_value(self):
        ctx = SpaceContext(COMPLEX, 2)
        value = inner_product(ctx, as_vector(ctx, (1 + 1j, 0)), as_vector(ctx, (1, 0)))
        assert value == 1 + 1j

    def test_dimension_mismatch(self):
        ctx = SpaceContext(REAL, 2)
        with pytest.raises(ValueError):
            inner_product(ctx, np.ones(3), np.ones(2))

    @settings(deadline=None)
    @given(x=vector_strategy(3, True), y=vector_strategy(3, True))
    def test_conjugate_symmetry(self, x, y):
        ctx = SpaceContext(COMPLEX, 3)
        lhs = inner_product(ctx, as_vector(ctx, x), as_vector(ctx, y))
        rhs = inner_product(ctx, as_vector(ctx, y), as_vector(ctx, x)).conjugate()
        scale = 1.0 + abs(lhs)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @settings(deadline=None)
    @given(
        x=vector_strategy(3, True),
        y=vector_strategy(3, True),
        z=vector_strategy(3, True),
        lam=st.tuples(finite, finite).map(lambda t: complex(*t)),
    )
    def test_linearity_in_first_argument(self, x, y, z, lam):
        ctx = SpaceContext(COMPLEX, 3)
        x, y, z = (as_vector(ctx, v) for v in (x, y, z))
        additive = inner_product(ctx, x + y, z)
        split = inner_product(ctx, x, z) + inner_product(ctx, y, z)
        scale = 1.0 + abs(additive) + abs(split)
        assert abs(additive - split) <= 1e-12 * scale
        homogeneous = inner_product(ctx, lam * x, z)
        scaled = lam * inner_product(ctx, x, z)
        scale = 1.0 + abs(homogeneous) + abs(scaled)
        assert abs(homogeneous - scaled) <= 1e-12 * scale

    def test_weighted_backend_matches_reference(self):
        weights = np.array([0.5, 1.5, 2.0])
        ctx = SpaceContext(COMPLEX, 3, weights)
        x = as_vector(ctx, (1 + 2j, -0.5, 3j))
        y = as_vector(ctx, (2, 1j, 1 - 1j))
        expected = ref_inner(list(x), list(y), list(weights))
        assert abs(inner_product(ctx, x, y) - expected) <= 1e-14 * abs(expected)


class TestNorm:
    def test_zero_vector(self):
        ctx = SpaceContext(REAL, 3)
        assert norm(ctx, as_vector(ctx, (0, 0, 0))) == 0.0

    def test_extremal_unit_norm(self):
        ctx = SpaceContext(REAL, 2)
        assert norm(ctx, as_vector(ctx, (S, -S))) == pytest.approx(1.0, abs=1e-15)

    def test_derived_value(self):
        ctx = SpaceContext(REAL, 3)
        value = norm(ctx, as_vector(ctx, (0.5, 0.3, 0.2)))
        assert value == pytest.approx(0.6164414002968976, rel=1e-15)

    @settings(deadline=None)
    @given(x=st.lists(finite, min_size=4, max_size=4))
    def test_nonnegative_and_zero_iff_zero(self, x):
        # squares of magnitudes below ~1e-154 underflow to zero, so keep the
        # nonzero entries at a representable-square scale
        x = [0.0 if abs(c) < 1e-6 else c for c in x]
        ctx = SpaceContext(REAL, 4)
        v = as_vector(ctx, x)
        n = norm(ctx, v)
        assert n >= 0.0
        if all(c == 0 for c in x):
            assert n == 0.0
        else:
            assert n > 0.0


def fourier_coefficients(ctx, x, fam, indices):
    """<x, e_i> for each selected member, one inner product each."""
    return {i: inner_product(ctx, x, fam.members[i]) for i in indices}


def projection(ctx, x, fam, indices):
    """The orthogonal projection of x onto span{e_i : i in indices}, one inner
    product per member of the validated index set."""
    coefficients = fourier_coefficients(ctx, x, fam, index_set(indices, fam.size))
    return sum(c * fam.members[i] for i, c in coefficients.items())


class TestFourierCoefficients:
    def test_family_member(self):
        ctx, fam = std_basis(3)
        coeffs = fourier_coefficients(ctx, fam.members[0], fam, (0,))
        assert coeffs == {0: 1 + 0j}

    def test_extremal_orthogonality(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(S, S)])
        coeffs = fourier_coefficients(ctx, as_vector(ctx, (S, -S)), fam, (0,))
        assert abs(coeffs[0]) <= 1e-15

    def test_standard_basis_reads_coordinates(self):
        ctx, fam = std_basis(3)
        coeffs = fourier_coefficients(ctx, as_vector(ctx, (0.5, 0.3, 0.2)), fam, (0, 1))
        assert coeffs == {0: 0.5 + 0j, 1: 0.3 + 0j}

    def test_invalid_index(self):
        ctx, fam = std_basis(3)
        with pytest.raises(ValueError):
            projection(ctx, fam.members[0], fam, (0, 3))

    def test_parseval_on_full_basis(self):
        rng = np.random.default_rng(5)
        for field in (REAL, COMPLEX):
            ctx = SpaceContext(field, 6)
            raw = rng.standard_normal((6, 6))
            if field == COMPLEX:
                raw = raw + 1j * rng.standard_normal((6, 6))
            fam = gram_schmidt(ctx, raw)
            x = rng.standard_normal(6)
            if field == COMPLEX:
                x = x + 1j * rng.standard_normal(6)
            x = as_vector(ctx, x)
            coeffs = fourier_coefficients(ctx, x, fam, range(6))
            residual = norm(ctx, x) ** 2 - sum(abs(c) ** 2 for c in coeffs.values())
            assert abs(residual) <= 1e-10 * norm(ctx, x) ** 2


class TestGramSchmidt:
    def test_already_orthonormal(self):
        ctx = SpaceContext(REAL, 3)
        fam = gram_schmidt(ctx, np.eye(3))
        np.testing.assert_allclose(fam.members.real, np.eye(3), atol=0)
        assert fam.gram_defect == 0.0

    def test_two_vector_example(self):
        ctx = SpaceContext(REAL, 2)
        fam = gram_schmidt(ctx, [(1, 1), (1, 0)])
        np.testing.assert_allclose(fam.members[0].real, [S, S], rtol=1e-15)
        # second member is (1, -1)/sqrt(2) up to sign
        np.testing.assert_allclose(np.abs(fam.members[1].real), [S, S], rtol=1e-12)
        assert fam.members[1].real[0] * fam.members[1].real[1] < 0

    def test_near_dependent_pair_raises(self):
        ctx = SpaceContext(REAL, 2)
        with pytest.raises(DegeneracyError, match="vector 1"):
            gram_schmidt(ctx, [(1, 0), (1, 1e-16)])

    def test_output_passes_verification(self):
        rng = np.random.default_rng(11)
        for dim, size in ((4, 2), (8, 8), (16, 5)):
            ctx = SpaceContext(COMPLEX, dim)
            raw = rng.standard_normal((size, dim)) + 1j * rng.standard_normal((size, dim))
            fam = gram_schmidt(ctx, raw)
            assert fam.certified
            assert fam.gram_defect <= fam.tolerance

    def test_weighted_backend(self):
        weights = np.array([0.2, 0.8, 1.7, 0.3])
        ctx = SpaceContext(REAL, 4, weights)
        rng = np.random.default_rng(3)
        fam = gram_schmidt(ctx, rng.standard_normal((3, 4)))
        assert fam.certified

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_dependent_vector_named_by_position(self, field):
        # the third vector lies in the span of the first two up to 1e-15
        ctx = SpaceContext(field, 4, np.array([1.0, 0.0, 2.0, 0.5]))
        a = np.array([1.0, 2.0, 0.0, 1.0])
        b = np.array([0.0, 1.0, 1.0, -1.0]) * (1j if field == COMPLEX else 1.0)
        raw = [a, b, 3.0 * a - 2.0 * b + 1e-15, np.array([0.0, 0.0, 0.0, 1.0])]
        with pytest.raises(DegeneracyError, match="vector 2 "):
            gram_schmidt(ctx, raw)

    def test_large_complex_family_certifies(self):
        rng = np.random.default_rng(128)
        ctx = SpaceContext(COMPLEX, 128)
        raw = rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128))
        fam = gram_schmidt(ctx, raw)
        assert fam.gram_defect <= 1e-10

    @pytest.mark.parametrize(
        "kind, rule, density, count",
        [
            ("trig", periodic_trapezoid(4096), lambda s: 1.0 + 0.9 * np.cos(s), 17),
            ("legendre", gauss_legendre(256), lambda s: np.maximum(s, 0.0), 10),
        ],
        ids=["trig", "legendre"],
    )
    def test_weighted_quadrature_families_certify(self, kind, rule, density, count):
        # nonuniform densities, one vanishing on half the nodes, so the
        # prototypes are far from orthonormal and both passes do real work
        ctx = WeightedL2Context(rule, density(rule.nodes), REAL)
        fam = build_family(ctx, kind, count)
        assert fam.gram_defect <= 1e-10


class TestVerifyOrthonormal:
    """A family's own certificate: ``gram_defect`` measured at construction
    and ``certified``."""

    def test_standard_basis(self):
        ctx, fam = std_basis(4)
        assert fam.certified and fam.gram_defect == 0.0

    def test_non_orthogonal_pair_fails(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0), (S, S)])
        assert not fam.certified
        assert fam.gram_defect == pytest.approx(S, rel=1e-12)

    def test_single_unit_member(self):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(S, S)])
        assert fam.certified
        assert fam.gram_defect <= 1e-15


class TestVectorValidation:
    def test_a_context_keeps_its_own_read_only_weights(self):
        # it stored the caller's array and froze it: the caller could no
        # longer write it, and a write through another view reached the context
        weights, base = np.ones(3), np.ones(3)
        SpaceContext(REAL, 3, weights)
        assert weights.flags.writeable
        ctx = SpaceContext(REAL, 3, base[:])
        base[0] = 5.0
        assert ctx.weights.tolist() == [1.0, 1.0, 1.0]
        assert not ctx.weights.flags.writeable

    def test_rejects_nan(self):
        ctx = SpaceContext(REAL, 2)
        with pytest.raises(ValueError, match="finite"):
            as_vector(ctx, (np.nan, 0.0))

    def test_rejects_infinity(self):
        ctx = SpaceContext(REAL, 2)
        with pytest.raises(ValueError, match="finite"):
            as_vector(ctx, (np.inf, 0.0))

    def test_real_field_rejects_imaginary(self):
        ctx = SpaceContext(REAL, 2)
        with pytest.raises(ValueError, match="imaginary"):
            as_vector(ctx, (1j, 0.0))

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((np.nan, 0.0), "finite"),
            ((np.inf, 0.0), "finite"),
            ((1j, 0.0), "imaginary"),
            ((1.0, 0.0, 0.0), "shape"),
        ],
        ids=["nan", "inf", "imaginary", "shape"],
    )
    @pytest.mark.parametrize(
        "function",
        ["inner_product", "norm", "instance_scale", "pair_scale"],
    )
    def test_public_functions_reject_what_as_vector_rejects(self, function, bad, message):
        ctx = SpaceContext(REAL, 2)
        good = (1.0, 0.0)
        box = CoefficientBox((0,), (0.0,), (1.0,))
        calls = {
            "inner_product": lambda v: inner_product(ctx, good, v),
            "norm": lambda v: norm(ctx, v),
            "instance_scale": lambda v: instance_scale(ctx, v, box),
            "pair_scale": lambda v: pair_scale(ctx, good, v, box, box),
        }
        with pytest.raises(ValueError, match=message):
            calls[function](bad)

    def test_vectors_are_read_only(self):
        ctx = SpaceContext(REAL, 2)
        v = as_vector(ctx, (1.0, 2.0))
        with pytest.raises(ValueError):
            v[0] = 3.0

    def test_family_size_capped_by_dimension(self):
        ctx = SpaceContext(REAL, 2)
        with pytest.raises(ValueError, match="exceeds"):
            OrthonormalFamily.from_members(ctx, [(1, 0), (0, 1), (S, S)])

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-12, 0.5 + 1e-12, 1e300])
    def test_family_tolerance_outside_zero_to_one_over_size_rejected(self, tolerance):
        ctx = SpaceContext(REAL, 2)
        with pytest.raises(ValueError, match="family tolerance"):
            OrthonormalFamily.from_members(ctx, np.eye(2), tolerance)

    @pytest.mark.parametrize("tolerance", ["1e-10", None, 1j, True])
    def test_family_tolerance_must_be_a_real_number(self, tolerance):
        # a string, None or a complex number used to fail the range comparison
        # with a TypeError
        message = f"^family tolerance .*, got {re.escape(repr(tolerance))}$"
        with pytest.raises(ValueError, match=message):
            OrthonormalFamily(np.eye(2), 0.0, tolerance)

    @pytest.mark.parametrize("defect", [-5.0, -1e-300, -math.inf, True, "0", None, 0j, np.array(0.0)])
    def test_family_gram_defect_must_be_a_real_number_of_at_least_zero(self, defect):
        # a negative defect used to certify, and then pushed the chains'
        # allowance below zero
        message = f"^gram_defect must be a real number >= 0, got {re.escape(repr(defect))}$"
        with pytest.raises(ValueError, match=message):
            OrthonormalFamily(np.array([[3.0, 0.0]]), defect)

    @pytest.mark.parametrize(
        "defect, certified",
        [(0.0, True), (-0.0, True), (0, True), (np.float64(1e-12), True), (1.0, False),
         (math.nan, False), (math.inf, False)],
    )
    def test_family_gram_defect_of_at_least_zero_or_nan_is_kept(self, defect, certified):
        # NaN and +inf are what from_members measures for an overflowing family
        fam = OrthonormalFamily(np.eye(2), defect)
        assert fam.gram_defect is defect and fam.certified == certified

    @pytest.mark.parametrize("tolerance", [0.0, 1e-3, 0.5])
    def test_family_tolerance_up_to_one_over_size_accepted(self, tolerance):
        ctx = SpaceContext(REAL, 2)
        fam = OrthonormalFamily.from_members(ctx, [(1, 0), (1e-4, 1)], tolerance)
        assert fam.tolerance == tolerance
        assert fam.certified == (fam.gram_defect <= tolerance)


class TestIndexSet:
    def test_valid(self):
        assert index_set((0, 2, 3), 4) == (0, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            index_set((), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            index_set((0, 4), 4)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            index_set((1, 1), 4)

    @pytest.mark.parametrize("index", [0.9, "1", True], ids=repr)
    @pytest.mark.parametrize("entry", ["index_set", "CoefficientBox"])
    def test_an_index_must_be_an_integer(self, entry, index):
        # int() used to read 0.9 as member 0 and "1" and True as member 1
        message = f"index must be an integer, got {re.escape(repr(index))}$"
        with pytest.raises(ValueError, match=message):
            if entry == "index_set":
                index_set((index,), 2)
            else:
                CoefficientBox((index,), (0.0,), (1.0,))

    def test_integral_indices_are_stored_as_ints(self):
        one = np.int64(1)
        assert index_set((one,), 2) == (1,)
        assert type(CoefficientBox((one,), (0.0,), (1.0,)).indices[0]) is int
        # an index array: np.array([0]) used to read as an empty index set
        assert CoefficientBox(np.array([0]), (0.0,), (1.0,)).indices == (0,)
        assert CoefficientBox(np.arange(2), (0.0, 0.0), (1.0, 1.0)).indices == (0, 1)


class TestStackedPrimitives:
    """The kernel's shape contract: a stack gives exactly the bits that each
    row gives alone, whatever the batch shape."""

    @pytest.mark.parametrize("dim, size", [(2, 1), (4, 2), (16, 8), (128, 64), (4096, 3)])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("batch", [(1,), (7,), (3, 5)], ids=str)
    def test_stack_equals_each_row(self, batch, field, weighted, dim, size):
        rng = np.random.default_rng([dim, size, len(batch), weighted])
        weights = None
        if weighted:
            weights = rng.uniform(0.5, 2.0, dim)
            weights[dim // 2] = 0.0

        def draw(*shape):
            a = rng.standard_normal(shape).astype(np.complex128)
            if field == COMPLEX:
                a.imag = rng.standard_normal(shape)
            return a

        ctx = SpaceContext(field, dim, weights)
        x, y = draw(*batch, dim), draw(*batch, dim)
        rows, c = draw(*batch, size, dim), draw(*batch, size)
        products = {
            "_dot": (_dot, (x, y)),
            "_inner": (lambda x, y: _inner(ctx, x, y), (x, y)),
            "_norm_sq": (lambda x: _norm_sq(ctx, x), (x,)),
            "_coefficients": (lambda x, rows: _coefficients(ctx, x, rows), (x, rows)),
            "_combine": (_combine, (c, rows)),
            "_modulus": (_modulus, (x,)),
        }
        for name, (product, args) in products.items():
            stacked = product(*args)
            for index in np.ndindex(*batch):
                alone = np.asarray(product(*(a[index] for a in args)))
                assert stacked[index].shape == alone.shape, (name, index)
                assert stacked[index].tobytes() == alone.tobytes(), (name, index)
        # and each modulus is the scalar abs of its entry, bit for bit
        scalar_abs = np.array([abs(complex(z)) for z in x.ravel()]).reshape(x.shape)
        assert _modulus(x).tobytes() == scalar_abs.tobytes()


#: Every entry point of a size or count, as a function of the value.
COUNT_ENTRIES = {
    "SpaceContext": lambda v: SpaceContext(REAL, v),
    "SuiteConfig.instance_count": lambda v: SuiteConfig(instance_count=v),
    "SuiteConfig.dims": lambda v: SuiteConfig(dims=(v, 16)),
    "SuiteConfig.family_sizes": lambda v: SuiteConfig(family_sizes=(1, v)),
    "SearchConfig.dimension": lambda v: SearchConfig(dimension=v, family_size=1),
    "SearchConfig.family_size": lambda v: SearchConfig(family_size=v),
    "SearchConfig.restarts": lambda v: SearchConfig(restarts=v),
    "SearchConfig.steps_per_restart": lambda v: SearchConfig(steps_per_restart=v),
    "generate.dim": lambda v: generate_certified_instance(rng_from_seed(1), v, 1, REAL),
    "generate.family_size": lambda v: generate_certified_instance(rng_from_seed(1), 4, v, REAL),
    "build_family": lambda v: build_family(
        WeightedL2Context.uniform_density(periodic_trapezoid(8)), "trig", v
    ),
}

#: Every entry point of a seed.
SEED_ENTRIES = {
    "check_seed": check_seed,
    "rng_from_seed": rng_from_seed,
    "SuiteConfig": lambda v: SuiteConfig(seed=v),
    "SearchConfig": lambda v: SearchConfig(seed=v),
}

#: Every entry point of a field tag.
FIELD_ENTRIES = {
    "SpaceContext": lambda v: SpaceContext(v, 2),
    "SuiteConfig": lambda v: SuiteConfig(fields=(REAL, v)),
    "SearchConfig": lambda v: SearchConfig(field=v),
    "instance file": lambda v: instance_from_dict({
        "field": v, "dimension": 1, "vectors": [[1.0]], "indices": [0], "x": [1.0],
        "box": {"lower": [0.0], "upper": [2.0]},
    }),
}


class TestInputRules:
    """One integer rule for every size, count and seed and one field rule for
    every field tag (``space._integer``, ``space._count``, ``space._field``),
    whichever entry point reads them; each message ends with the bad value."""

    @pytest.mark.parametrize("value", [2.5, np.float64(2.0), True, 0, -1], ids=repr)
    @pytest.mark.parametrize("entry", COUNT_ENTRIES)
    def test_a_count_that_is_no_positive_integer_is_rejected(self, entry, value):
        with pytest.raises(ValueError, match=f"positive integer, got {re.escape(repr(value))}$"):
            COUNT_ENTRIES[entry](value)

    def test_an_integral_count_is_stored_as_an_int(self):
        three = np.int64(3)
        assert type(SpaceContext(REAL, three).dimension) is int
        names = ("dimension", "family_size", "restarts", "steps_per_restart")
        cfg = SearchConfig(**dict.fromkeys(names, three))
        assert {type(getattr(cfg, name)) for name in names} == {int}
        grid = SuiteConfig(instance_count=three, dims=(three,), family_sizes=(three,))
        assert {type(v) for v in (grid.instance_count, *grid.dims, *grid.family_sizes)} == {int}
        assert grid == SuiteConfig(instance_count=3, dims=(3,), family_sizes=(3,))

    @pytest.mark.parametrize("value", ["2", None, 1j], ids=repr)
    @pytest.mark.parametrize("name", ["dims", "family_sizes"])
    def test_a_grid_value_that_is_no_integer_is_rejected(self, name, value):
        # cells() used to compare it first and raise a TypeError
        grid = {"dims": (value, 16), "family_sizes": (1, value)}[name]
        message = f"{name} must be a positive integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SuiteConfig(**{name: grid})

    @pytest.mark.parametrize(
        "name, value", [("dims", 2), ("family_sizes", "12"), ("fields", "real"), ("fields", None)], ids=repr
    )
    def test_a_grid_that_is_no_tuple_is_rejected(self, name, value):
        # fields="real" used to complain about 'r', and dims=2 raised a TypeError
        message = f"{name} must be a tuple or a list, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            SuiteConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.7, "5", True], ids=repr)
    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_a_seed_that_is_no_integer_is_rejected(self, entry, value):
        # int(seed) used to pass them, and the configs stored them as given
        with pytest.raises(ValueError, match=f"seed must be an integer, got {re.escape(repr(value))}$"):
            SEED_ENTRIES[entry](value)

    @pytest.mark.parametrize("value", [2.7, "5", True, -1], ids=repr)
    def test_a_stream_key_that_is_no_nonnegative_integer_is_rejected(self, value):
        # int(key) used to take 2.7 as 2 and True as 1
        with pytest.raises(ValueError, match=f"nonnegative integer, got {re.escape(repr(value))}$"):
            rng_from_seed(1, 0, value)

    def test_an_integral_seed_is_stored_as_an_int(self):
        for cfg in (SuiteConfig(seed=np.uint64(5)), SearchConfig(seed=np.int64(5))):
            assert type(cfg.seed) is int and cfg.seed == 5

    @pytest.mark.parametrize("value", ["quaternion", "Real"])
    @pytest.mark.parametrize("entry", FIELD_ENTRIES)
    def test_an_unknown_field_is_rejected(self, entry, value):
        with pytest.raises(ValueError, match=f"'real' or 'complex', got {value!r}$"):
            FIELD_ENTRIES[entry](value)
