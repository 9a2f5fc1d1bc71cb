"""Computed chain values against their exact values (ROADMAP item 3).

``exact.py`` evaluates the residual, the inner-product slack, the half
diameter and the Gruss deviation exactly from the same float inputs the
library reads, so the difference is the library's rounding error alone.  Each
difference must stay within the rounding term ``allowance(scale, d + |F|)``
at the instance scale (the pair scale for the deviation); the deviation's
modulus is a root, so it is compared squared.  Each test prints the worst
fraction of the allowance it saw (run with ``pytest -s`` to see them).  A
fraction above 1 would contradict the allowance's derivation.

The hypothesis adversaries are derandomized, yet their examples depend on
which files pytest collects: Hypothesis (6.155.2) mines literal constants
from every loaded local module and mixes them into its draws.  At (4, 2,
real), ``pytest tests/test_exact_oracle.py -s`` prints a worst residual
fraction of 0.0219 and ``pytest tests/test_exact_oracle.py
tests/test_bounds.py -s`` prints 0.0437; with
``hypothesis.internal.conjecture.providers._get_local_constants`` stubbed
to return no constants, both print 0.0303.  So quote a fraction together
with its pytest selection.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

import draws
import exact
from orthobounds.bounds import (
    CoefficientBox,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
    pair_scale,
)
from orthobounds.generate import generate_certified_pair, rng_from_seed
from orthobounds.space import (
    COMPLEX,
    DEFAULT_ORTHO_TOL,
    REAL,
    OrthonormalFamily,
    SpaceContext,
    allowance,
)
from test_sharpness import GRID, _basis

SEED = 20240229

#: The cells of ROADMAP item 3's measurement, 20 generated pairs each.
CELLS = [(4, 2, REAL), (8, 4, COMPLEX), (16, 8, COMPLEX), (16, 15, REAL)]


def _fractions(ctx, x, y, fam, indices, box_x, box_y) -> dict[str, Fraction]:
    """|computed - exact| / allowance per value, worst of the x and y sides;
    the deviation's as |computed - exact|^2 / allowance^2."""
    rows = [exact.vector(fam.members[i]) for i in indices]
    w = exact.weights(ctx.weights)
    terms = ctx.dimension + len(indices)
    worst = {}
    for v, box in ((x, box_x), (y, box_y)):
        report = counterpart_bounds(ctx, v, fam, indices, box)
        tol = Fraction(allowance(instance_scale(ctx, v, box), terms))
        v, lower, upper = (exact.vector(a) for a in (v, box.lower_array, box.upper_array))
        slack = report.condition.slack_inner
        for name, computed, value in (
            ("residual", report.residual, exact.residual(v, rows, w)),
            ("slack_inner", slack, exact.slack_inner(v, rows, lower, upper, w)),
            ("half_diameter_sq", box.half_diameter_sq, exact.half_diameter_sq(lower, upper)),
        ):
            fraction = abs(Fraction(computed) - value) / tol
            worst[name] = max(worst.get(name, fraction), fraction)
    computed = gruss_bounds(ctx, x, y, fam, indices, box_x, box_y).deviation
    value = exact.deviation(exact.vector(x), exact.vector(y), rows, w)
    tol = Fraction(allowance(pair_scale(ctx, x, y, box_x, box_y), terms))
    delta = exact.sub(exact.exact(computed), value)
    worst["deviation (squared)"] = exact.modulus_sq(delta) / tol**2
    return worst


def _conclude(what: str, cases) -> None:
    """Print the worst fraction of each value over ``cases`` and require all
    of them to stay within the allowance."""
    worst = {}
    for fractions in cases:
        for name, fraction in fractions.items():
            worst[name] = max(worst.get(name, fraction), fraction)
    detail = ", ".join(f"{name} {float(value):.3g}" for name, value in worst.items())
    print(f"\nEXACT oracle, {what}: worst |computed - exact| / allowance: {detail}")
    assert all(value <= 1 for value in worst.values()), detail


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_generated_pairs(cell):
    dim, size, field = cell
    pairs = (
        generate_certified_pair(rng_from_seed(SEED, dim, size, i), dim, size, field)
        for i in range(20)
    )
    _conclude(f"20 certified pairs in {cell}", (_fractions(*pair) for pair in pairs))


@pytest.mark.parametrize("m", [1.0, 3.7, 1e-3])
def test_zero_slack_lifted_construction(m):
    # TestSharpInEveryCell's construction, with y = x: the box condition holds
    # with no slack, and every chain attains 1/4
    def case(dim, size, field):
        ctx, q = _basis(dim, field)
        s = 1.0 / np.sqrt(2.0)
        fam = OrthonormalFamily.from_members(ctx, [s * (q[0] + q[size]), *q[1:size]])
        x = m * s * (q[0] - q[size])
        indices, zeros = tuple(range(size)), [0.0] * (size - 1)
        box = CoefficientBox(indices, [-m, *zeros], [m, *zeros])
        return _fractions(ctx, x, x, fam, indices, box, box)

    cells = [c for c in GRID if c[1] < c[0]]
    _conclude(f"lifted construction in {len(cells)} cells, m = {m}", (case(*c) for c in cells))


@pytest.mark.parametrize("cell", [(4, 2, REAL), (16, 8, COMPLEX)], ids=str)
def test_vectors_in_the_span(cell):
    # Sylvester-Hadamard rows scaled by 1/sqrt(d) (d = 4, 16), times 1j in
    # alternate rows for the complex field, are orthonormal in floating point
    # exactly, and x = sum_i c_i e_i with c_i in (1/8) Z[i] is exact too: the
    # exact residual is 0
    dim, size, field = cell
    ctx = SpaceContext(field, dim)
    hadamard = np.ones((1, 1))
    while len(hadamard) < dim:
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    rows = hadamard[:size] / np.sqrt(dim)
    if field == COMPLEX:
        rows = rows * np.where(np.arange(size) % 2, 1j, 1.0)[:, None]
    fam = OrthonormalFamily.from_members(ctx, rows)
    indices = tuple(range(size))

    def case(i):
        rng = rng_from_seed(SEED, dim, i)
        c = rng.integers(-64, 65, size) / 8.0
        if field == COMPLEX:
            c = c + 1j * rng.integers(-64, 65, size) / 8.0
        x, y = c @ rows, np.roll(c, 1) @ rows
        assert exact.residual(exact.vector(x), [exact.vector(e) for e in rows]) == 0
        box_x = CoefficientBox(indices, c - 1.0, c + 1.0)
        box_y = CoefficientBox(indices, np.roll(c, 1) - 1.0, np.roll(c, 1) + 1.0)
        return _fractions(ctx, x, y, fam, indices, box_x, box_y)

    _conclude(f"20 vectors in the span of F in {cell}", (case(i) for i in range(20)))


#: The smallest positive subnormal double.
_TINY = 2.0**-1074

#: The smallest positive normal double.
_SMALLEST_NORMAL = 2.0**-1022


def _adversarial_pair(cell, seed, defect, pull, scale, factor, subnormal, weights=None):
    """A pair over a random family whose rows are pushed off orthonormal by up
    to ``defect`` times the certification tolerance.  Each vector lies within
    ``pull`` of span F (relative to its own size), times ``scale``; its box is
    centred near its coefficients, to within the residual, and its half-widths
    are ``factor`` >= 1 times the distance from x to the centre, so the box
    condition holds with small slack.  With ``subnormal`` the centres are
    subnormal numbers and x is the centre's combination plus the residual.
    With ``weights`` every inner product and norm is weighted; unit weights
    give the unweighted pair bit for bit."""
    dim, size, field = cell
    ctx = SpaceContext(field, dim, weights)
    w = np.ones(dim) if weights is None else ctx.weights
    rng = rng_from_seed(SEED, dim, size, seed)
    complex_field = field == COMPLEX

    def gaussian(count):
        return draws.gaussian(rng, count, complex_field)

    rows = draws.family(rng, ctx, size).members
    push = np.stack([gaussian(dim) for _ in range(size)])
    # ||row shift|| <= defect * tol / 2, so the Gram defect stays near defect * tol
    # (in the weighted norm, at most sqrt(max w) times the unweighted one)
    shift = defect * DEFAULT_ORTHO_TOL / (2.0 * np.sqrt(dim * w.max()) * np.abs(push).max())
    rows = rows + shift * push
    fam = OrthonormalFamily.from_members(ctx, rows)
    assume(fam.certified)
    indices = tuple(range(size))
    vectors, boxes = [], []
    for _ in range(2):
        v = gaussian(dim)
        inside = (rows.conj() @ (w * v)) @ rows
        off = scale * pull * (v - inside)
        if subnormal:
            mid = _TINY * np.round(8.0 * gaussian(size))
            x = mid @ rows + off
        else:
            mid = scale * (rows.conj() @ (w * v)) + 0.25 * scale * pull * gaussian(size)
            x = scale * inside + off
        direction = gaussian(size)
        radius = factor * np.sqrt(np.sum(w * np.abs(x - mid @ rows) ** 2))
        half = radius / np.sqrt(np.sum(np.abs(direction) ** 2)) * direction
        vectors.append(x)
        boxes.append(CoefficientBox.centered(indices, mid, half))
    return ctx, *vectors, fam, indices, *boxes


@pytest.mark.parametrize("cell", [(4, 2, REAL), (8, 4, COMPLEX), (16, 15, REAL)], ids=str)
def test_adversarial_pairs(cell):
    # hypothesis.target steers the search toward the largest fraction over
    # vectors almost in span F, scales from 1e-150 to 1e100, subnormal box
    # centres and families at the largest certified Gram defect.  Weighted
    # contexts have their own adversary below.
    seen = []

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**16),
        defect=st.floats(0.0, 1.0),
        pull=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
        scale=st.floats(-150.0, 100.0).map(lambda e: 10.0**e),
        factor=st.floats(1.0, 2.0),
        subnormal=st.booleans(),
    )
    def search(**case):
        fractions = _fractions(*_adversarial_pair(cell, **case))
        seen.append(fractions)
        worst = max(fractions.values())
        target(float(worst), label="worst fraction of the allowance")
        assert worst <= 1, fractions

    search()
    _conclude(f"{len(seen)} adversarial pairs in {cell}", seen)


@pytest.mark.parametrize("cell", [(6, 3, REAL), (8, 4, COMPLEX)], ids=str)
def test_adversarial_weighted_pairs(cell):
    # test_adversarial_pairs' search over a weighted context whose weights,
    # drawn too, vanish at one or more nodes but leave at least |F| positive.
    # Scales below 1e-148 put the allowance's relative rounding term below
    # the smallest normal number, where its underflow term takes over
    dim, size, _ = cell
    seen, subnormal_terms = [], []

    @settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**16),
        defect=st.floats(0.0, 1.0),
        pull=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
        scale=(st.floats(-150.0, 100.0) | st.floats(-165.0, -148.0)).map(lambda e: 10.0**e),
        factor=st.floats(1.0, 2.0),
        subnormal=st.booleans(),
        weights=st.lists(st.just(0.0) | st.floats(0.25, 4.0), min_size=dim, max_size=dim),
    )
    def search(**case):
        assume(1 <= case["weights"].count(0.0) <= dim - size)
        pair = _adversarial_pair(cell, **case)
        ctx, x, y, _, _, box_x, box_y = pair
        scale = min(instance_scale(ctx, x, box_x), instance_scale(ctx, y, box_y))
        relative = allowance(scale, dim + size) - allowance(0.0, dim + size)
        subnormal_terms.append(relative < _SMALLEST_NORMAL)
        fractions = _fractions(*pair)
        seen.append(fractions)
        worst = max(fractions.values())
        target(float(worst), label="worst fraction of the allowance")
        assert worst <= 1, fractions

    search()
    _conclude(
        f"{len(seen)} adversarial weighted pairs in {cell}, "
        f"{sum(subnormal_terms)} with a subnormal relative term",
        seen,
    )
    assert any(subnormal_terms)


def test_allowance_in_the_subnormal_range():
    # the first failure the weighted adversary found before its scale floor:
    # F spans the positive-weight nodes, so ||x||^2 is a rounding residue of
    # scale^2 ~ 1e-280, and the subnormal box centres underflow.  At this
    # instance scale of 6e-311 the relative rounding term is 0 and the
    # computed residual is off by one subnormal unit, which only the
    # allowance's underflow term covers
    case = dict(seed=0, defect=0.0, pull=1.0, scale=1e-140, factor=1.0, subnormal=True)
    with warnings.catch_warnings():  # hypothesis.assume outside a search
        warnings.simplefilter("ignore")
        pair = _adversarial_pair((6, 3, REAL), **case, weights=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    _conclude("the adversary's first subnormal-scale weighted pair", [_fractions(*pair)])
