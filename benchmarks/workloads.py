"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed and hands the library
only those inputs.  Work is cut into units: one unit is one timed call
sequence, run as a closed loop by a single client, and checked after its
timer stops.  A pass is a fixed list of units covering every op kind of the
workload once (in ``verify-grid``, every grid cell), so a run that stops at
a pass boundary always has the same mix.  NOTES.md says why each workload
exists.

A workload class provides ``name``; ``min_passes`` (passes a run makes
however short it is); ``fresh_heap`` (collect garbage, untimed, before each
unit); ``config()`` (the mix, for the config digest); ``setup()`` (inputs
and one unit of every kind); ``pass_units(index)``; ``finish()`` (units to
run after timing, plus extra results); and ``output_digest()``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Relative slack allowed on chain orderings and on agreement between two
#: routes to the same report: the suite's default ``rtol``.
CHAIN_RTOL = 1e-10

#: A certified search ratio may exceed 1/4 by rounding only (the CLI's bound).
RATIO_CEILING = 0.25 + 1e-9

#: Closed-form tolerance for the trigonometric weighted-L2 session.
CLOSED_FORM_ATOL = 1e-8


@dataclass
class Unit:
    """One timed call sequence.

    ``run`` does the work and returns what ``check`` needs; ``check`` returns
    None when every output is right and a message otherwise.
    """

    kind: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], str | None]


def derive_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed for one unit, fixed by the workload seed and ``keys``."""
    state = np.random.SeedSequence((int(seed), *map(int, keys))).generate_state(1, np.uint64)
    return int(state[0]) >> 1


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _box_condition_holds(ctx, x, family, box) -> bool:
    """Inner-product form of the box condition, evaluated here rather than by
    the library so that counting certified instances adds no library spans."""
    members = family.members[list(box.indices)]
    upper = box.upper_array @ members
    lower = box.lower_array @ members
    weights = np.ones(ctx.dimension) if ctx.weights is None else ctx.weights
    slack = float(np.sum(weights * (upper - x) * np.conj(x - lower)).real)
    scale = float(np.sum(weights * np.abs(x) ** 2)) + box.half_diameter_sq
    return slack >= -CHAIN_RTOL * scale


#: For each instance generator: the (vector, box) pairs its output certifies.
CERTIFIED_BY_GENERATOR = {
    "generate.generate_certified_instance": lambda i: [(i.x, i.box)],
    "generate.generate_unconstrained_instance": lambda i: [(i.x, i.box)],
    "generate.generate_certified_pair": lambda p: [(p.x, p.box_x), (p.y, p.box_y)],
    "generate.generate_midpoint_pair": lambda p: [(0.5 * (p.x + p.y), p.box_x)],
    "generate.generate_twosided_pair": lambda p: [
        (0.5 * (p.x + p.y), p.box_x),
        (0.5 * (p.x - p.y), p.box_x),
    ],
}


def instance_certifies(generator: str, instance) -> bool:
    return all(
        _box_condition_holds(instance.ctx, vector, instance.family, box)
        for vector, box in CERTIFIED_BY_GENERATOR[generator](instance)
    )


class VerifyGrid:
    """The default ``orthobounds verify`` grid, one suite run per unit."""

    name = "verify-grid"
    dims = (2, 4, 8, 16)
    family_sizes = (1, 2, 4, 8)
    fields = ("real", "complex")
    #: Instances per unit.  Eight lets a suite that batches within a cell
    #: show its gain; an op is still one (cell, instance) step.
    instances_per_unit = 8
    #: Check records one instance step produces in ``run_suite``.
    checks_per_instance = 11
    min_passes = 1
    fresh_heap = False

    def __init__(self, lib, seed: int, workdir: Path, smoke: bool):
        self.lib = lib
        self.seed = seed
        self.cells = [
            (d, f, fl)
            for d in self.dims
            for f in self.family_sizes
            for fl in self.fields
            if f <= d
        ]
        if smoke:
            self.cells = self.cells[:3]
            self.instances_per_unit = 1
        self.first_pass: list[dict] = []

    def config(self) -> dict:
        return {
            "cells": self.cells,
            "instances_per_unit": self.instances_per_unit,
            "checks_per_instance": self.checks_per_instance,
        }

    def _unit(self, cell, count: int, seed: int, keep: bool) -> Unit:
        suite = self.lib.suite
        d, f, fl = cell
        cfg = suite.SuiteConfig(
            instance_count=count, dims=(d,), family_sizes=(f,), fields=(fl,), seed=seed
        )
        expected = count * self.checks_per_instance

        def check(outcome) -> str | None:
            if keep:
                payload = outcome.to_dict()
                payload.pop("generated_at", None)
                self.first_pass.append(payload)
            if outcome.total_failed != 0:
                return f"cell {cell} seed {seed}: {outcome.total_failed} suite checks failed"
            recorded = sum(t.passed + t.failed for t in outcome.checks.values())
            if recorded != expected:
                return f"cell {cell} seed {seed}: {recorded} check records, expected {expected}"
            return None

        return Unit(f"{d}-{f}-{fl}", count, lambda: suite.run_suite(cfg), check)

    def setup(self) -> list[Unit]:
        return [
            self._unit(cell, 1, derive_seed(self.seed, 0, c), False)
            for c, cell in enumerate(self.cells)
        ]

    def pass_units(self, index: int) -> list[Unit]:
        return [
            self._unit(cell, self.instances_per_unit, derive_seed(self.seed, 1, index, c), index == 0)
            for c, cell in enumerate(self.cells)
        ]

    def finish(self) -> tuple[list[Unit], dict]:
        return [], {}

    def output_digest(self) -> str:
        return digest(self.first_pass)


class SharpnessSearch:
    """Single-restart searches in both modes on two cells.

    The first ``reference_rounds`` passes use fixed search seeds so that the
    gap metrics repeat exactly for every workload seed; later passes draw
    their search seeds from the workload seed.
    """

    name = "sharpness-search"
    cells = ((4, 2, "real"), (16, 8, "complex"))
    modes = ("residual", "gruss")
    #: The CLI's default search seed; reference round r uses seed + r.
    reference_seed = 1905
    reference_rounds = 16
    steps_per_restart = 2000
    fresh_heap = False

    def __init__(self, lib, seed: int, workdir: Path, smoke: bool):
        self.lib = lib
        self.seed = seed
        if smoke:
            self.reference_rounds = 1
            self.steps_per_restart = 20
        self.min_passes = self.reference_rounds
        self.reference: dict[tuple, tuple[float, int]] = {}

    def config(self) -> dict:
        return {
            "cells": self.cells,
            "modes": self.modes,
            "reference_seed": self.reference_seed,
            "reference_rounds": self.reference_rounds,
            "steps_per_restart": self.steps_per_restart,
        }

    def _unit(self, cell, mode: str, search_seed: int, reference_key) -> Unit:
        sharpness = self.lib.sharpness
        d, f, fl = cell
        cfg = sharpness.SearchConfig(
            dimension=d,
            family_size=f,
            field=fl,
            restarts=1,
            steps_per_restart=self.steps_per_restart,
            seed=search_seed,
        )
        search = f"maximize_{mode}_ratio"

        def check(result) -> str | None:
            ratio, evaluations = float(result.best_ratio), int(result.evaluations)
            where = f"{mode} {cell} seed {search_seed}"
            if not 0.0 <= ratio <= RATIO_CEILING:
                return f"{where}: ratio {ratio!r} outside [0, 1/4 + 1e-9]"
            if evaluations < 1:
                return f"{where}: {evaluations} evaluations"
            if reference_key is not None:
                seen = self.reference.setdefault(reference_key, (ratio, evaluations))
                if seen != (ratio, evaluations):
                    return f"{where}: repeat gave {(ratio, evaluations)}, first run {seen}"
            return None

        return Unit(
            f"{mode}-{d}-{f}-{fl}", 1, lambda: getattr(sharpness, search)(cfg), check
        )

    def _round(self, search_seed, reference_round: int | None) -> list[Unit]:
        return [
            self._unit(
                cell,
                mode,
                search_seed(c, m),
                None if reference_round is None else (reference_round, c, m),
            )
            for c, cell in enumerate(self.cells)
            for m, mode in enumerate(self.modes)
        ]

    def setup(self) -> list[Unit]:
        return self._round(lambda c, m: derive_seed(self.seed, 0, c, m), None)

    def pass_units(self, index: int) -> list[Unit]:
        if index < self.reference_rounds:
            return self._round(lambda c, m: self.reference_seed + index, index)
        return self._round(lambda c, m: derive_seed(self.seed, 1, index, c, m), None)

    def finish(self) -> tuple[list[Unit], dict]:
        """Repeat round 0 (each result must repeat exactly) and derive the gaps.

        A gap is 1/4 minus the best ratio of the reference rounds, taken in
        the cell where that best is lowest.
        """
        expected = self.reference_rounds * len(self.cells) * len(self.modes)
        if len(self.reference) != expected:
            raise RuntimeError(f"{len(self.reference)} of {expected} reference restarts ran")
        best: dict[tuple[int, int], float] = {}
        for (_, c, m), (ratio, _) in self.reference.items():
            best[c, m] = max(best.get((c, m), 0.0), ratio)
        extras = {
            f"gap_{mode}": max(0.25 - best[c, m] for c in range(len(self.cells)))
            for m, mode in enumerate(self.modes)
        }
        evaluations = [evals for _, evals in self.reference.values()]
        extras["evals_per_restart"] = sum(evaluations) / len(evaluations)
        return self.pass_units(0), extras

    def output_digest(self) -> str:
        return digest(sorted(self.reference.items()))


class LargeReports:
    """Few large calls: weighted-L2 sessions and large coordinate instance
    files reported through the CLI."""

    name = "large-reports"
    trig_nodes = 4096
    legendre_nodes = 256
    legendre_members = 4
    instance_shape = (128, 64, "complex")
    instance_files = 2
    min_passes = 1
    #: Every op starts on a collected heap, as each `orthobounds` CLI call
    #: starts in a fresh process; otherwise the garbage of earlier ops sets
    #: off collections at random points in later ones.
    fresh_heap = True

    def __init__(self, lib, seed: int, workdir: Path, smoke: bool):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        if smoke:
            self.trig_nodes = 256
            self.legendre_nodes = 32
            self.instance_shape = (16, 8, "complex")
            self.instance_files = 1
        self.expected: list[dict] = []
        self.first_pass: list = []

    def config(self) -> dict:
        return {
            "trig_nodes": self.trig_nodes,
            "legendre_nodes": self.legendre_nodes,
            "legendre_members": self.legendre_members,
            "instance_shape": self.instance_shape,
            "instance_files": self.instance_files,
        }

    # -- inputs -------------------------------------------------------------

    def _write_instance_files(self) -> None:
        generate, serialize, bounds = self.lib.generate, self.lib.serialize, self.lib.bounds
        d, f, fl = self.instance_shape
        self.expected = []
        for k in range(self.instance_files):
            pair = generate.generate_certified_pair(generate.rng_from_seed(self.seed, 77, k), d, f, fl)
            payload = serialize.instance_to_dict(pair)
            path = self._instance_path(k)
            serialize.dump_json(payload, path)
            counterpart = bounds.counterpart_bounds(pair.ctx, pair.x, pair.family, pair.indices, pair.box_x)
            gruss = bounds.gruss_bounds(
                pair.ctx, pair.x, pair.y, pair.family, pair.indices, pair.box_x, pair.box_y
            )
            norm_x = float(np.sum(np.abs(pair.x) ** 2))
            norm_y = float(np.sum(np.abs(pair.y) ** 2))
            self.expected.append({
                "digest": serialize.digest(payload),
                "bounds": (counterpart.to_dict(), norm_x + pair.box_x.half_diameter_sq),
                "gruss": (
                    gruss.to_dict(),
                    norm_x + norm_y + pair.box_x.half_diameter_sq + pair.box_y.half_diameter_sq,
                ),
            })

    def _instance_path(self, k: int) -> Path:
        return self.workdir / f"instance-{k}.json"

    # -- units --------------------------------------------------------------

    def _round_trip(self, ctx, functions: dict, name: str):
        serialize = self.lib.serialize
        path = self.workdir / f"{name}.json"
        serialize.dump_json(serialize.l2_instance_to_dict(ctx, functions), path)
        return serialize.l2_instance_from_dict(serialize.load_json(path))

    def _trig_session(self, phase: float, keep: bool) -> Unit:
        q, bounds = self.lib.quadrature, self.lib.bounds
        root = math.sqrt(2.0 * math.pi)
        low, high = {0: root}, {0: 3.0 * root}

        def run():
            ctx = q.WeightedL2Context.uniform_density(q.periodic_trapezoid(self.trig_nodes))
            fam = q.build_family(ctx, "trig", 3)
            f = q.sample(ctx, lambda s: 2.0 + np.sin(s + phase))
            g = q.sample(ctx, lambda s: 2.0 + np.cos(s + phase))
            box = q.sandwich_box((0,), low, high)
            # the bracketing touches its bounds near the peaks: the library's
            # own demo gives the node-wise margins 1e-12 for sin() rounding
            sandwiches = [q.sandwich_check(ctx, v, fam, (0,), low, high, 1e-12) for v in (f, g)]
            counterpart = bounds.counterpart_bounds(ctx.context, f, fam, (0,), box)
            gruss = bounds.gruss_bounds(ctx.context, f, g, fam, (0,), box, box)
            loaded = self._round_trip(ctx, {"f": f, "g": g}, "trig")
            return ctx, {"f": f, "g": g}, sandwiches, counterpart, gruss, loaded

        def check(result) -> str | None:
            ctx, functions, sandwiches, counterpart, gruss, loaded = result
            if keep:
                self.first_pass.append(("trig", counterpart.to_dict(), gruss.to_dict()))
            if not all(s.holds for s in sandwiches):
                return f"trig phase {phase}: sandwich fails"
            if not (counterpart.certified and gruss.certified):
                return f"trig phase {phase}: report not certified"
            closed_form = [
                (counterpart.residual, math.pi),
                (counterpart.refined, math.pi),
                (counterpart.coarse, 2.0 * math.pi),
                (gruss.deviation_abs, 0.0),
                (gruss.refined, math.pi),
                (gruss.coarse, 2.0 * math.pi),
            ]
            if any(abs(got - want) > CLOSED_FORM_ATOL for got, want in closed_form):
                return f"trig phase {phase}: {closed_form} misses the closed form"
            return _round_trip_error(ctx, functions, loaded)

        return Unit("trig-session", 1, run, check)

    def _legendre_session(self, rate: float, box_seed: int, keep: bool) -> Unit:
        q, bounds, generate = self.lib.quadrature, self.lib.bounds, self.lib.generate
        # e_0 = 1/sqrt(2) on [-1, 1]; exp(+-rate s) lies in [e^-rate, e^rate]
        low = {0: math.exp(-rate) * math.sqrt(2.0)}
        high = {0: math.exp(rate) * math.sqrt(2.0)}
        idx = tuple(range(self.legendre_members))

        def run():
            ctx = q.WeightedL2Context.uniform_density(q.gauss_legendre(self.legendre_nodes))
            fam = q.build_family(ctx, "legendre", self.legendre_members)
            f = q.sample(ctx, lambda s: math.exp(rate * s))
            g = q.sample(ctx, lambda s: math.exp(-rate * s))
            mid, half = generate.certified_box_arrays(
                generate.rng_from_seed(box_seed), ctx.context, f, fam, idx
            )
            box = bounds.CoefficientBox.centered(idx, mid, half)
            sandwich_box = q.sandwich_box((0,), low, high)
            sandwiches = [q.sandwich_check(ctx, v, fam, (0,), low, high) for v in (f, g)]
            counterpart = bounds.counterpart_bounds(ctx.context, f, fam, idx, box)
            gruss = bounds.gruss_bounds(ctx.context, f, g, fam, (0,), sandwich_box, sandwich_box)
            loaded = self._round_trip(ctx, {"f": f, "g": g}, "legendre")
            scale_f = float(np.sum(ctx.context.weights * np.abs(f) ** 2))
            scale_g = float(np.sum(ctx.context.weights * np.abs(g) ** 2))
            scales = (
                scale_f + box.half_diameter_sq,
                scale_f + scale_g + 2.0 * sandwich_box.half_diameter_sq,
            )
            return ctx, {"f": f, "g": g}, sandwiches, counterpart, gruss, loaded, scales

        def check(result) -> str | None:
            ctx, functions, sandwiches, counterpart, gruss, loaded, scales = result
            if keep:
                self.first_pass.append(("legendre", counterpart.to_dict(), gruss.to_dict()))
            where = f"legendre rate {rate}"
            if not all(s.holds for s in sandwiches):
                return f"{where}: sandwich fails"
            if not (counterpart.certified and gruss.certified):
                return f"{where}: report not certified"
            error = _chain_error(
                [-counterpart.residual, counterpart.residual - counterpart.refined,
                 counterpart.refined - counterpart.coarse],
                scales[0],
            ) or _chain_error(
                [gruss.deviation_abs - gruss.refined, gruss.refined - gruss.coarse], scales[1]
            )
            if error:
                return f"{where}: {error}"
            return _round_trip_error(ctx, functions, loaded)

        return Unit("legendre-session", 1, run, check)

    def _file_report(self, command: str, k: int, keep: bool) -> Unit:
        cli = self.lib.cli
        out = self.workdir / f"{command}-{k}.out.json"
        argv = [command, str(self._instance_path(k)), "--out", str(out)]

        def check(code) -> str | None:
            expected = self.expected[k]
            where = f"{command} file {k}"
            if code != 0:
                return f"{where}: exit code {code}"
            report = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
            if keep:
                self.first_pass.append((command, report))
            if report.get("certified") is not True:
                return f"{where}: report not certified"
            if report.get("digest") != expected["digest"]:
                return f"{where}: digest {report.get('digest')} names another instance"
            want, scale = expected[command]
            for key, value in want.items():
                if isinstance(value, float) and abs(report[key] - value) > CHAIN_RTOL * scale:
                    return f"{where}: {key} = {report[key]!r}, library gives {value!r}"
            return None

        return Unit(f"{command}-file", 1, lambda: cli.main(argv), check)

    def _units(self, keys: tuple[int, ...], keep: bool) -> list[Unit]:
        rng = np.random.default_rng(derive_seed(self.seed, *keys))
        units = [
            self._trig_session(float(rng.uniform(0.0, 2.0 * math.pi)), keep),
            self._legendre_session(float(rng.uniform(0.5, 1.5)), derive_seed(self.seed, 2, *keys), keep),
        ]
        for k in range(self.instance_files):
            units += [self._file_report("bounds", k, keep), self._file_report("gruss", k, keep)]
        return units

    def setup(self) -> list[Unit]:
        inputs = Unit("instance-files", 0, self._write_instance_files, lambda _: None)
        return [inputs, *self._units((0,), False)]

    def pass_units(self, index: int) -> list[Unit]:
        return self._units((1, index), index == 0)

    def finish(self) -> tuple[list[Unit], dict]:
        return [], {}

    def output_digest(self) -> str:
        return digest(self.first_pass)


def _chain_error(steps: list[float], scale: float) -> str | None:
    """Each step of a chain must be <= CHAIN_RTOL * scale."""
    worst = max(steps)
    if worst > CHAIN_RTOL * scale:
        return f"chain step {worst!r} exceeds {CHAIN_RTOL} * scale {scale!r}"
    return None


def _round_trip_error(ctx, functions: dict, loaded) -> str | None:
    ctx2, functions2 = loaded
    same = (
        ctx2.field == ctx.field
        and np.array_equal(ctx2.space.nodes, ctx.space.nodes)
        and np.array_equal(ctx2.space.weights, ctx.space.weights)
        and np.array_equal(ctx2.rho, ctx.rho)
        and functions2.keys() == functions.keys()
        and all(np.array_equal(functions2[k], functions[k]) for k in functions)
    )
    return None if same else "weighted-L2 JSON round trip changed the instance"


WORKLOADS = {w.name: w for w in (VerifyGrid, SharpnessSearch, LargeReports)}
