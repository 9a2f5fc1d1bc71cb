"""Computed chain values against their exact values (ROADMAP item 3).

``exact.py`` evaluates the residual, the inner-product slack, the half
diameter and the Gruss deviation exactly from the same float inputs the
library reads, so the difference is the library's rounding error alone.  Each
difference must stay within the rounding term ``allowance(scale, d + |F|)``
at the instance scale (the pair scale for the deviation); the deviation's
modulus is a root, so it is compared squared.  Each test prints the worst
fraction of the allowance it saw (run with ``pytest -s`` to see them).  A
fraction above 1 would contradict the allowance's derivation.
"""

from fractions import Fraction

import numpy as np
import pytest

import exact
from orthobounds.bounds import (
    CoefficientBox,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
    pair_scale,
)
from orthobounds.generate import generate_certified_pair, rng_from_seed
from orthobounds.space import COMPLEX, REAL, OrthonormalFamily, SpaceContext, allowance
from test_sharpness import GRID, _basis

SEED = 20240229

#: The cells of ROADMAP item 3's measurement, 20 generated pairs each.
CELLS = [(4, 2, REAL), (8, 4, COMPLEX), (16, 8, COMPLEX), (16, 15, REAL)]


def _fractions(ctx, x, y, fam, indices, box_x, box_y) -> dict[str, Fraction]:
    """|computed - exact| / allowance per value, worst of the x and y sides;
    the deviation's as |computed - exact|^2 / allowance^2."""
    rows = [exact.vector(fam.members[i]) for i in indices]
    terms = ctx.dimension + len(indices)
    worst = {}
    for v, box in ((x, box_x), (y, box_y)):
        report = counterpart_bounds(ctx, v, fam, indices, box)
        tol = Fraction(allowance(instance_scale(ctx, v, box), terms))
        v, lower, upper = (exact.vector(a) for a in (v, box.lower_array, box.upper_array))
        slack = report.condition.slack_inner
        for name, computed, value in (
            ("residual", report.residual, exact.residual(v, rows)),
            ("slack_inner", slack, exact.slack_inner(v, rows, lower, upper)),
            ("half_diameter_sq", box.half_diameter_sq, exact.half_diameter_sq(lower, upper)),
        ):
            fraction = abs(Fraction(computed) - value) / tol
            worst[name] = max(worst.get(name, fraction), fraction)
    computed = gruss_bounds(ctx, x, y, fam, indices, box_x, box_y).deviation
    value = exact.deviation(exact.vector(x), exact.vector(y), rows)
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
