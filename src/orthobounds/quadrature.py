"""Weighted-L2 backend: discretized measure spaces and quadrature rules.

A measure is represented purely as a node/weight rule; the density rho folds
into the weights once at context construction, so a weighted context exposes
the same inner-product contract as the coordinate backend and every bound
computation runs on it unchanged.  Almost-everywhere statements are checked
node-wise, which is the computable surrogate for the rules used here.

The rules have fixed intervals: the periodic trapezoid rule covers [0, 2pi),
the Gauss-Legendre rule [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import bounds
from .space import (
    DegeneracyError,
    OrthonormalFamily,
    SpaceContext,
    Vector,
    _combine,
    _count,
    _finite_real,
    _tolerance,
    as_vector,
    gram_schmidt,
    index_set,
    require_certified,
    REAL,
)

COUNTING = "counting"
PERIODIC_TRAPEZOID = "periodic-trapezoid"
GAUSS_LEGENDRE = "gauss-legendre"

_KINDS = (COUNTING, PERIODIC_TRAPEZOID, GAUSS_LEGENDRE)


@dataclass(frozen=True, eq=False)
class DiscretizedMeasureSpace:
    """Sample points s_k with strictly positive quadrature weights w_k."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise ValueError("nodes and weights must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; expected one of {_KINDS}")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return int(self.nodes.size)


def check_count(count: int) -> None:
    """The node rule of every quadrature rule: at least one node."""
    if count < 1:
        raise ValueError(f"a quadrature rule needs at least one node, got {count}")


def counting_measure(count: int) -> DiscretizedMeasureSpace:
    """Unit mass at integer nodes 0..count-1; bridges to the coordinate backend."""
    check_count(count)
    return DiscretizedMeasureSpace(np.arange(count, dtype=float), np.ones(count), COUNTING)


def periodic_trapezoid(count: int) -> DiscretizedMeasureSpace:
    """Uniform rule on [0, 2pi) with weight 2pi/count per node.

    For 2pi-periodic integrands this is the trapezoid rule, which is
    spectrally accurate on trigonometric polynomials.
    """
    check_count(count)
    nodes = 2.0 * np.pi * np.arange(count) / count
    weights = np.full(count, 2.0 * np.pi / count)
    return DiscretizedMeasureSpace(nodes, weights, PERIODIC_TRAPEZOID)


def gauss_legendre(count: int) -> DiscretizedMeasureSpace:
    """Gauss-Legendre rule on [-1, 1]; exact on polynomials of degree
    <= 2*count - 1."""
    check_count(count)
    nodes, weights = np.polynomial.legendre.leggauss(count)
    return DiscretizedMeasureSpace(nodes, weights, GAUSS_LEGENDRE)


@dataclass(frozen=True, eq=False)
class WeightedL2Context:
    """Measure space plus nonnegative density rho, over a scalar field.

    The effective weights w_k * rho(s_k) define the inner product
    <f, g> = sum_k w_k rho_k f(s_k) conj(g(s_k)); they may vanish at
    individual nodes but not everywhere.
    """

    space: DiscretizedMeasureSpace
    rho: np.ndarray
    field: str

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != self.space.nodes.shape:
            raise ValueError("rho must provide one value per node")
        if not np.all(np.isfinite(rho)) or np.any(rho < 0.0):
            raise ValueError("rho must be finite and nonnegative")
        effective = self.space.weights * rho
        if not np.any(effective > 0.0):
            raise ValueError("effective weights w*rho must not vanish everywhere")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(
            self, "_context", SpaceContext(self.field, self.space.size, effective)
        )

    @property
    def context(self) -> SpaceContext:
        """SpaceContext with the density folded into the weights."""
        return self._context

    @classmethod
    def uniform_density(cls, space: DiscretizedMeasureSpace) -> "WeightedL2Context":
        """Real context with rho = 1 at every node."""
        return cls(space, np.ones(space.size), REAL)

    @property
    def size(self) -> int:
        return self.space.size


def sample(ctx: WeightedL2Context, fn) -> Vector:
    """Sample a callable f(s) at the quadrature nodes."""
    return as_vector(ctx.context, [fn(s) for s in ctx.space.nodes])


def build_family(ctx: WeightedL2Context, kind: str, count: int) -> OrthonormalFamily:
    """Orthonormal function family of analytic prototypes, numerically
    re-orthonormalized against the weighted inner product.

    * ``trig``: constant, cos(s), sin(s), cos(2s), sin(2s), ...
    * ``legendre``: Legendre polynomials of increasing degree
    * ``indicator``: node indicators scaled by (w_k rho_k)^(-1/2)
    """
    count = _count("count", count)
    if count > ctx.size:
        raise ValueError("count exceeds the number of nodes")
    s = ctx.space.nodes
    if kind == "trig":
        prototypes = []
        for k in range(count):
            if k == 0:
                prototypes.append(np.ones_like(s))
            elif k % 2 == 1:
                prototypes.append(np.cos(((k + 1) // 2) * s))
            else:
                prototypes.append(np.sin((k // 2) * s))
    elif kind == "legendre":
        prototypes = [
            np.polynomial.legendre.Legendre.basis(k)(s) for k in range(count)
        ]
    elif kind == "indicator":
        effective = ctx.context.weights
        live = np.flatnonzero(effective > 0.0)
        if live.size < count:
            raise DegeneracyError(
                f"only {live.size} nodes carry positive effective weight; "
                f"cannot build {count} indicator members"
            )
        prototypes = []
        for node in live[:count]:
            indicator = np.zeros(ctx.size)
            indicator[node] = 1.0 / np.sqrt(effective[node])
            prototypes.append(indicator)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return gram_schmidt(ctx.context, prototypes)


@dataclass(frozen=True)
class SandwichReport:
    """Node-wise check of sum m_i f_i <= f <= sum M_i f_i.

    ``violating_node`` is the node with the most negative margin when the
    check fails.
    """

    holds: bool
    min_margin_lower: float
    min_margin_upper: float
    violating_node: int | None = None


def sandwich_check(
    ctx: WeightedL2Context,
    f: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    m: Mapping[int, float],
    M: Mapping[int, float],
    tol: float = 0.0,
) -> SandwichReport:
    """Check the pointwise bracketing of f between the two member combinations.

    Real contexts only: the node-wise order is real-valued.  When it holds,
    the box (m, M) satisfies the inner-product condition up to quadrature
    error, so the bracketing is the easy certificate for the L2 chains.
    """
    tol = _tolerance("tol", tol)
    if ctx.field != REAL:
        raise ValueError("sandwich_check requires a real-field context")
    require_certified(fam)
    idx = index_set(indices, fam.size)
    if set(m) != set(idx) or set(M) != set(idx):
        raise ValueError("m and M must be keyed exactly by the index set")
    f = as_vector(ctx.context, f)
    rows = fam.members[list(idx)]
    lower_env = _combine(np.array(_bracket("m", m, idx)), rows).real
    upper_env = _combine(np.array(_bracket("M", M, idx)), rows).real
    margin_lower = f.real - lower_env
    margin_upper = upper_env - f.real
    min_lower = float(np.min(margin_lower))
    min_upper = float(np.min(margin_upper))
    holds = min_lower >= -tol and min_upper >= -tol
    violating = None
    if not holds:
        per_node = np.minimum(margin_lower, margin_upper)
        violating = int(np.argmin(per_node))
    return SandwichReport(
        holds=holds,
        min_margin_lower=min_lower,
        min_margin_upper=min_upper,
        violating_node=violating,
    )


def _bracket(name: str, constants: Mapping[int, float], idx: tuple[int, ...]) -> tuple[float, ...]:
    """The constants in index order, as floats.  The one rule of
    ``sandwich_check`` and ``sandwich_box``: each must be a finite real number
    (``space._finite_real``), else ValueError naming the index."""
    return tuple(_finite_real(f"{name}[{i}]", constants[i]) for i in idx)


def sandwich_box(
    indices: Sequence[int], m: Mapping[int, float], M: Mapping[int, float]
) -> bounds.CoefficientBox:
    """Coefficient box carrying the sandwich constants (m_i, M_i), which must
    be finite real numbers."""
    idx = tuple(indices)
    return bounds.CoefficientBox(idx, _bracket("m", m, idx), _bracket("M", M, idx))


class SandwichConditionError(ValueError):
    """A required pointwise bracketing failed; carries the failing report."""

    def __init__(self, which: str, report: SandwichReport):
        super().__init__(
            f"sandwich condition fails for {which}: margins "
            f"({report.min_margin_lower:.3e}, {report.min_margin_upper:.3e}) "
            f"at node {report.violating_node}"
        )
        self.which = which
        self.report = report


def l2_sandwich_gruss(
    ctx: WeightedL2Context,
    f: Vector,
    g: Vector,
    fam: OrthonormalFamily,
    indices: Sequence[int],
    m: Mapping[int, float],
    M: Mapping[int, float],
    n: Mapping[int, float],
    N: Mapping[int, float],
    sandwich_tol: float = 0.0,
) -> bounds.GrussBoundReport:
    """Deviation chain certified through pointwise bracketings of f and g.

    Raises :class:`SandwichConditionError` when either bracketing fails;
    otherwise the resulting report is certified (up to quadrature error).
    """
    sandwich_tol = _tolerance("sandwich_tol", sandwich_tol)
    report_f = sandwich_check(ctx, f, fam, indices, m, M, sandwich_tol)
    if not report_f.holds:
        raise SandwichConditionError("f", report_f)
    report_g = sandwich_check(ctx, g, fam, indices, n, N, sandwich_tol)
    if not report_g.holds:
        raise SandwichConditionError("g", report_g)
    idx = index_set(indices, fam.size)
    return bounds.gruss_bounds(
        ctx.context, f, g, fam, idx, sandwich_box(idx, m, M), sandwich_box(idx, n, N)
    )
