"""Command-line front end: verification suites, bound reports, quadrature
demos and sharpness searches.

Exit codes: 0 when every executed check passes, 1 when any fails, 2 on bad
input or usage.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

import numpy as np

from . import serialize, suite
from .bounds import (
    CoefficientBox,
    counterpart_bounds,
    gruss_bounds,
    instance_scale,
    pair_scale,
)
from .generate import (
    Instance,
    PairInstance,
    certified_box_arrays,
    check_seed,
    generate_certified_instance,
    generate_certified_pair,
    rng_from_seed,
)
from .quadrature import (
    WeightedL2Context,
    build_family,
    check_count,
    counting_measure,
    gauss_legendre,
    l2_sandwich_gruss,
    periodic_trapezoid,
    sample,
    sandwich_box,
)
from .sharpness import NOISE_FLOOR_REL, SearchConfig, maximize_gruss_ratio, maximize_residual_ratio
from .space import COMPLEX, REAL, allowance
from .suite import SuiteConfig, run_suite


#: Node-wise margin of the trig demo's sandwich check: the bracketing touches
#: its bounds at the peak nodes, so the margins need room for sin() rounding.
TRIG_SANDWICH_TOL = 1e-12


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built once per process: building it
    costs more than a small file's report, and parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="orthobounds",
        description=(
            "Compute and certify counterpart-of-Bessel and Gruss-type bound "
            "chains over finite orthonormal families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the randomized invariant suite")
    p.add_argument(
        "--instances", type=int, default=SuiteConfig.instance_count, help="instances per grid cell"
    )
    p.add_argument("--dims", type=_int_list, default=SuiteConfig.dims)
    p.add_argument("--family-sizes", type=_int_list, default=SuiteConfig.family_sizes)
    p.add_argument("--fields", type=_str_list, default=SuiteConfig.fields)
    p.add_argument(
        "--tightness-out", default=None, help="also emit a per-instance tightness CSV"
    )
    p.add_argument("--seed", type=int, default=SuiteConfig.seed, help="64-bit RNG seed")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    p = sub.add_parser("bounds", help="residual chain report for an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    p = sub.add_parser("gruss", help="deviation chain report for an instance file")
    p.add_argument("instance", help="instance JSON path (must carry y and box_y)")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    p = sub.add_parser("l2demo", help="weighted-L2 demo on a built-in example")
    p.add_argument("kind", choices=("trig", "legendre", "counting"))
    p.add_argument("--nodes", type=int, default=1024, help="quadrature node count")
    p.add_argument("--seed", type=int, default=0, help="RNG seed of the legendre box")
    p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("sharpness", help="search for the best-constant ratio 1/4")
    p.add_argument("--mode", choices=("residual", "gruss"), default="residual")
    p.add_argument("--dim", type=int, default=SearchConfig.dimension)
    p.add_argument("--family-size", type=int, default=SearchConfig.family_size)
    p.add_argument("--field", choices=(REAL, COMPLEX), default=SearchConfig.field)
    p.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    p.add_argument("--steps", type=int, default=SearchConfig.steps_per_restart)
    p.add_argument("--seed", type=int, default=SearchConfig.seed, help="64-bit RNG seed")
    p.add_argument("--out", default=None, help="output file path")
    return parser


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(
        instance_count=args.instances, dims=args.dims, family_sizes=args.family_sizes,
        fields=args.fields, seed=args.seed,
    )
    outcome = run_suite(cfg)
    for name, tally in sorted(outcome.checks.items()):
        status = "ok" if tally.failed == 0 else "FAIL"
        print(
            f"{status:4s} {name:24s} passed={tally.passed:<7d} failed={tally.failed:<5d} "
            f"worst_margin={tally.worst_margin:.3e}"
        )
    if args.format == "csv":
        rows = [
            (name, tally.passed, tally.failed, float(tally.worst_margin))
            for name, tally in sorted(outcome.checks.items())
        ]
        serialize.write_csv(args.out, ("check", "passed", "failed", "worst_margin"), rows)
    elif args.out:
        serialize.dump_json(outcome.to_dict(), args.out)
    if args.tightness_out:
        rng_ids = []
        for i in range(min(cfg.instance_count, 100)):
            rng = rng_from_seed(cfg.seed, 9000, i)
            rng_ids.append((f"bessel-{i:04d}", generate_certified_instance(rng, 4, 2, REAL)))
            rng_ids.append((f"gruss-{i:04d}", generate_certified_pair(rng, 4, 2, REAL)))
        serialize.write_csv(args.tightness_out, suite.TIGHTNESS_HEADER, suite.tightness_rows(rng_ids))
    print(f"total_failed={outcome.total_failed}")
    return 0 if outcome.ok else 1


def _report_exit(inst: Instance | PairInstance, report, tol: float, args) -> int:
    """Write ``report`` with the digest of ``inst``, the instance its file
    describes; exit 0 unless the chain is certified and its tightest link
    misses by more than ``tol``."""
    payload = serialize.report_payload(report, inst)
    if args.format == "csv":
        rows = [(key, value if isinstance(value, float) else str(value)) for key, value in payload.items()]
        serialize.write_csv(args.out, ("field", "value"), rows)
    else:
        text = serialize.dump_json(payload, args.out)
        if not args.out:
            print(text)
    return 0 if not report.certified or report.margin >= -tol else 1


def _cmd_bounds(args) -> int:
    inst = serialize.instance_from_dict(serialize.load_json(args.instance))
    one = inst
    if isinstance(inst, PairInstance):
        one = Instance(inst.ctx, inst.x, inst.family, inst.indices, inst.box_x)
    report = counterpart_bounds(*one)
    tol = suite.chain_allowance(one, instance_scale(one.ctx, one.x, one.box))
    return _report_exit(inst, report, tol, args)


def _cmd_gruss(args) -> int:
    inst = serialize.instance_from_dict(serialize.load_json(args.instance))
    if not isinstance(inst, PairInstance):
        raise ValueError("instance file must carry y (and box_y) for a deviation report")
    report = gruss_bounds(*inst)
    tol = suite.chain_allowance(inst, pair_scale(inst.ctx, inst.x, inst.y, inst.box_x, inst.box_y))
    return _report_exit(inst, report, tol, args)


def _cmd_l2demo(args) -> int:
    # every kind takes these rules, though only legendre reads --seed and
    # counting reads neither
    check_count(args.nodes)
    check_seed(args.seed)
    gruss = None
    if args.kind == "trig":
        ctx = WeightedL2Context.uniform_density(periodic_trapezoid(args.nodes))
        fam = build_family(ctx, "trig", 3)
        f, g = sample(ctx, lambda s: 2.0 + np.sin(s)), sample(ctx, lambda s: 2.0 + np.cos(s))
        functions = {"f": f, "g": g}
        root = float(np.sqrt(2.0 * np.pi))
        m, M = {0: root}, {0: 3.0 * root}
        idx, box = (0,), sandwich_box((0,), m, M)
        gruss = l2_sandwich_gruss(ctx, f, g, fam, idx, m, M, m, M, TRIG_SANDWICH_TOL)
    elif args.kind == "legendre":
        ctx = WeightedL2Context.uniform_density(gauss_legendre(args.nodes))
        fam = build_family(ctx, "legendre", 4)
        functions = {"f": sample(ctx, np.exp)}
        idx = (0, 1, 2, 3)
        rng = rng_from_seed(args.seed, 5)
        mid, d = certified_box_arrays(rng, ctx.context, functions["f"], fam, idx)
        box = CoefficientBox.centered(idx, mid, d)
    else:
        ctx = WeightedL2Context.uniform_density(counting_measure(3))
        fam = build_family(ctx, "indicator", 3)
        functions = {"f": np.array([0.5, 0.3, 0.2]), "g": np.array([0.2, 0.6, 0.1])}
        idx = (0, 1)
        box = sandwich_box(idx, {0: 0.0, 1: 0.0}, {0: 1.0, 1: 1.0})
        gruss = gruss_bounds(ctx.context, *functions.values(), fam, idx, box, box)
    reports = {"counterpart": counterpart_bounds(ctx.context, functions["f"], fam, idx, box)}
    if gruss is not None:
        reports["gruss"] = gruss
    payload = serialize.l2_instance_to_dict(ctx, functions)
    payload["reports"] = {name: report.to_dict() for name, report in reports.items()}
    ok = all(report.certified for report in reports.values())
    text = serialize.dump_json(payload, args.out)
    if not args.out:
        print(text)
    return 0 if ok else 1


def _cmd_sharpness(args) -> int:
    cfg = SearchConfig(
        dimension=args.dim, family_size=args.family_size, field=args.field,
        restarts=args.restarts, steps_per_restart=args.steps, seed=args.seed,
    )
    search = maximize_residual_ratio if args.mode == "residual" else maximize_gruss_ratio
    result = search(cfg)
    payload = {
        "mode": args.mode,
        "best_ratio": result.best_ratio,
        "evaluations": result.evaluations,
        "degenerate": result.degenerate,
        "best_instance": result.best_instance,
    }
    text = serialize.dump_json(payload, args.out)
    if not args.out:
        print(text)
    print(f"best_ratio={result.best_ratio:.12f} evaluations={result.evaluations}")
    # a nonzero ratio's value is at least NOISE_FLOOR_REL times its state's
    # scale, so its allowance over the diameter term is at most this one
    ceiling = 0.25 + allowance(0.25 / NOISE_FLOOR_REL, cfg.dimension + cfg.family_size)
    return 0 if 0.0 <= result.best_ratio <= ceiling else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) == "csv" and args.out is None:
        parser.error("--format csv needs --out")
    handlers = {
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
        "gruss": _cmd_gruss,
        "l2demo": _cmd_l2demo,
        "sharpness": _cmd_sharpness,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
