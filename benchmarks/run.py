"""orthobounds benchmark.

    python3 benchmarks/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py and NOTES.md) from the source tree next
to this directory, checks every output, and prints two JSON lines: first the
run's details (provenance, calibration, raw timings), then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a run
traced with spans.py.  The exit code is 0 when every output check passed, 1
when one failed and 2 when the source tree or an argument is missing.

On a shared 2-vCPU x86-64 host, speed drifts by up to 2x in phases lasting
seconds.  A short calibration sample (see ``calibration_sample``) therefore
runs after every unit, and every time is reported at reference speed: a
duration t measured while the machine ran c times slower than the reference
(the median of the samples nearest to it) is reported as t / c.  The raw times and
the calibration timing are printed on the details line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

import numpy as np

import spans
from workloads import CERTIFIED_BY_GENERATOR, WORKLOADS, instance_certifies

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Reference time of each calibration loop: the middle of the range each ran
#: in on a shared 2-vCPU x86-64 host (Python 3.11.7, numpy 2.4.6, OpenBLAS
#: 0.3.31).  They define "reference speed"; their values only scale the
#: reported times.
CALIBRATION_REF_S = {"numpy": 0.5e-3, "memory": 0.65e-3, "objects": 0.6e-3}

#: Calibration samples whose median sets a unit's speed.  Few enough to
#: follow slowdowns shorter than a unit, enough to ignore one stray sample.
CALIBRATION_NEAREST = 5

#: Spans whose results feed the traced counters.
KEPT_SPANS = frozenset([
    "serialize.dump_json",
    "serialize.load_json",
    "sharpness.maximize_residual_ratio",
    "sharpness.maximize_gruss_ratio",
    *CERTIFIED_BY_GENERATOR,
])

#: Tail latency percentile: the highest of p90, p95 and p99 that leaves at
#: least ten samples beyond it in every run of every workload.
TAIL_PERCENTILE = 95.0

#: Set-up is repeated this many times; set-up time is the median.
SETUP_REPEATS = 5

_CAL_RNG = np.random.default_rng(20240601)
_CAL_MATRIX = _CAL_RNG.standard_normal((16, 16)) + 1j * _CAL_RNG.standard_normal((16, 16))
_CAL_VECTOR = _CAL_RNG.standard_normal(16) + 0j
_CAL_STREAM = _CAL_RNG.standard_normal(1_000_000)
_CAL_FLOATS = [float(v) for v in _CAL_RNG.standard_normal(400)]


def _small_numpy() -> float:
    v = _CAL_VECTOR
    for _ in range(10):  # untimed: bring code and data back into cache
        v = _CAL_MATRIX @ v
    v = _CAL_VECTOR
    start = time.perf_counter()
    for _ in range(100):
        v = _CAL_MATRIX @ v
        v = v / float(np.sqrt(np.vdot(v, v).real))
    return time.perf_counter() - start


def _memory() -> float:
    start = time.perf_counter()
    float(_CAL_STREAM.sum())
    return time.perf_counter() - start


def _objects() -> float:
    start = time.perf_counter()
    json.loads(json.dumps(_CAL_FLOATS))
    return time.perf_counter() - start


def calibration_sample() -> float:
    """How much slower than the reference machine this one runs right now.

    The geometric mean of three fixed loops, each timed against its
    reference: small complex numpy calls under the interpreter, a stream
    over 8 MB, and a JSON round trip of Python floats.  Each alone tracks
    the workloads' drift less closely than the three together.
    """
    ratios = (
        _small_numpy() / CALIBRATION_REF_S["numpy"],
        _memory() / CALIBRATION_REF_S["memory"],
        _objects() / CALIBRATION_REF_S["objects"],
    )
    return float(np.exp(np.mean(np.log(ratios))))


class Run:
    """Executes units, checks their outputs and keeps the tallies."""

    def __init__(self):
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # counters fed by traced calls (see _drain_kept)
        self.certified = [0, 0]  # generated instances: certified, total
        self.json_bytes = 0
        self.search_evaluations = 0

    def execute(self, unit, fresh_heap: bool) -> float:
        """Run one unit and return its raw duration in seconds.

        With ``fresh_heap`` a garbage collection runs first, untimed.
        """
        if fresh_heap:
            gc.collect()
        error = None
        result = None
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = unit.run()
            else:
                result = self.tracer.root(unit.run)
        except Exception:  # a failing op is counted, not fatal
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = unit.check(result)
            except Exception:
                error = traceback.format_exc(limit=3)
        self.attempted += unit.ops
        if error is not None:
            self.failed += unit.ops
            if len(self.errors) < 10:
                self.errors.append(f"{unit.kind}: {error}")
        if self.tracer is not None:
            self._drain_kept()
        return elapsed

    def _drain_kept(self) -> None:
        for name, args, result in self.tracer.kept:
            if name.startswith("generate."):
                self.certified[0] += instance_certifies(name, result)
                self.certified[1] += 1
            elif name == "serialize.dump_json":
                self.json_bytes += len(result)
            elif name == "serialize.load_json":
                self.json_bytes += os.path.getsize(args[0])
            elif name.startswith("sharpness."):
                self.search_evaluations += result.evaluations
        self.tracer.kept.clear()


def normalize(durations: list[float], cal: list[float]) -> np.ndarray:
    """Durations at reference speed.  ``cal`` holds one calibration sample
    taken before the first step and one after every step; step i is divided
    by the median of the CALIBRATION_NEAREST samples nearest to it."""
    half = CALIBRATION_NEAREST // 2
    return np.array([
        t / statistics.median(cal[max(0, i + 1 - half) : i + 2 + half])
        for i, t in enumerate(durations)
    ])


def measure(run: Run, workload, seconds: float) -> dict:
    """Whole passes of the workload until ``seconds`` have gone by (and at
    least the workload's ``min_passes``)."""
    durations, ops, kinds, cal = [], [], [], [calibration_sample()]
    begin = time.perf_counter()
    passes = 0
    while passes < workload.min_passes or time.perf_counter() - begin < seconds:
        for unit in workload.pass_units(passes):
            durations.append(run.execute(unit, workload.fresh_heap))
            ops.append(unit.ops)
            kinds.append(unit.kind)
            cal.append(calibration_sample())
        passes += 1
    if len(set(ops)) != 1:
        raise RuntimeError("every unit of a workload must carry the same op count")
    normalized = normalize(durations, cal)
    per_op = normalized / ops[0]
    tail = float(np.percentile(per_op, TAIL_PERCENTILE))
    by_kind = {}
    for kind, t in zip(kinds, per_op):
        by_kind.setdefault(kind, []).append(t)
    return {
        "op_p50_ms_by_kind": {k: 1e3 * float(np.median(v)) for k, v in sorted(by_kind.items())},
        "passes": passes,
        "units": len(durations),
        "ops": int(sum(ops)),
        "wall_s": time.perf_counter() - begin,
        "busy_s_raw": float(sum(durations)),
        "busy_s": float(normalized.sum()),
        "ops_per_s": sum(ops) / float(normalized.sum()),
        "ops_per_s_raw": sum(ops) / float(sum(durations)),
        "op_p50_ms": 1e3 * float(np.median(per_op)),
        "op_p50_ms_raw": 1e3 * float(np.median(np.array(durations) / ops[0])),
        "op_tail_ms": 1e3 * tail,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": int(np.sum(per_op > tail)),
        "calibration": {
            "median": statistics.median(cal),
            "min": min(cal),
            "max": max(cal),
            "samples": len(cal),
        },
        "slowness": statistics.median(cal),
    }


def import_seconds() -> float:
    """Time a fresh interpreter importing the package, as every CLI call does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import orthobounds"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def set_up(run: Run, workload) -> dict:
    """Import the package in a fresh interpreter, make the inputs and run one
    unit of every kind; SETUP_REPEATS times.  Set-up time is the median."""
    durations, rep_of, cal = [], [], [calibration_sample()]
    for rep in range(SETUP_REPEATS):
        durations.append(import_seconds())
        cal.append(calibration_sample())
        rep_of.append(rep)
        for unit in workload.setup():
            durations.append(run.execute(unit, workload.fresh_heap))
            cal.append(calibration_sample())
            rep_of.append(rep)
    normalized = normalize(durations, cal)
    per_rep = [0.0] * SETUP_REPEATS
    raw = [0.0] * SETUP_REPEATS
    for rep, t, t_raw in zip(rep_of, normalized, durations):
        per_rep[rep] += float(t)
        raw[rep] += t_raw
    return {"setup_s": statistics.median(per_rep), "setup_s_raw": raw, "setup_s_reps": per_rep}


def layer_metrics(tracer: spans.Tracer, run: Run, phase: dict, extras: dict, overhead: float) -> dict:
    """Per-layer metrics of a traced phase, times at reference speed."""
    speed = 1.0 / phase["slowness"]
    ops = phase["ops"]
    busy = tracer.total(spans.ROOT_SPAN)
    us = lambda *names: 1e6 * speed * tracer.mean(*names)
    ms = lambda *names: 1e3 * speed * tracer.mean(*names)
    share = lambda layer: tracer.layer_self_time(layer) / busy if busy else 0.0
    checks = (
        "counterpart_chain", "identity", "condition_equivalence", "gruss_chain",
        "projection_identity", "schwarz", "companion", "companion_abs",
    )
    searches = ("sharpness.maximize_residual_ratio", "sharpness.maximize_gruss_ratio")
    evaluations = run.search_evaluations
    cli_calls = tracer.calls("cli.main")
    metrics = {
        "space.gram_schmidt_us": ("us", us("space.gram_schmidt")),
        "space.gram_schmidt_calls": ("count/op", tracer.calls("space.gram_schmidt") / ops),
        "bounds.check_condition_us": ("us", us("bounds.check_condition")),
        "bounds.counterpart_us": ("us", us("bounds.counterpart_bounds")),
        "bounds.gruss_us": ("us", us("bounds.gruss_bounds")),
        "bounds.companion_us": ("us", us("bounds.companion_bound", "bounds.companion_abs_bound")),
        "generate.instance_us": (
            "us", us("generate.generate_certified_instance", "generate.generate_unconstrained_instance"),
        ),
        "generate.pair_us": (
            "us",
            us(
                "generate.generate_certified_pair",
                "generate.generate_midpoint_pair",
                "generate.generate_twosided_pair",
            ),
        ),
        "generate.certified_ratio": (
            "ratio", run.certified[0] / run.certified[1] if run.certified[1] else 0.0,
        ),
        "suite.l2_embedding_us": ("us", us("suite.check_l2_embedding")),
        "sharpness.eval_us": (
            "us", 1e6 * speed * tracer.total(*searches) / evaluations if evaluations else 0.0,
        ),
        "sharpness.evals_per_restart": ("count", extras.get("evals_per_restart", 0.0)),
        "quadrature.rule_ms.counting": ("ms", ms("quadrature.counting_measure")),
        "quadrature.rule_ms.periodic_trapezoid": ("ms", ms("quadrature.periodic_trapezoid")),
        "quadrature.rule_ms.gauss_legendre": ("ms", ms("quadrature.gauss_legendre")),
        "quadrature.build_family_ms": ("ms", ms("quadrature.build_family")),
        "quadrature.sandwich_us": ("us", us("quadrature.sandwich_check")),
        "serialize.from_dict_ms": (
            "ms", ms("serialize.instance_from_dict", "serialize.l2_instance_from_dict"),
        ),
        "serialize.to_dict_ms": (
            "ms", ms("serialize.instance_to_dict", "serialize.l2_instance_to_dict"),
        ),
        "serialize.json_bytes": ("B/op", run.json_bytes / ops),
        "cli.self_ms": (
            "ms", 1e3 * speed * tracer.layer_self_time("cli") / cli_calls if cli_calls else 0.0,
        ),
        "trace.overhead": ("ratio", overhead),
    }
    for check in checks:
        metrics[f"suite.check_us.{check}"] = ("us", us(f"suite.check_{check}"))
    for layer in ("space", "bounds", "generate", "quadrature", "sharpness", "suite", "serialize", "cli"):
        metrics[f"{layer}.self_share"] = ("ratio", share(layer))
    return {name: {"value": value, "unit": unit} for name, (unit, value) in sorted(metrics.items())}


def provenance(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "config_digest": hashlib.sha256(
            json.dumps(workload.config(), sort_keys=True).encode("utf-8")
        ).hexdigest(),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orthobounds").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for checking the result's shape"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orthobounds" / "__init__.py").is_file():
        print(f"error: no orthobounds source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orthobounds
    from orthobounds import bounds, cli, generate, quadrature, serialize, sharpness, space, suite

    lib = types.SimpleNamespace(
        space=space, bounds=bounds, generate=generate, quadrature=quadrature,
        sharpness=sharpness, suite=suite, serialize=serialize, cli=cli,
    )
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](lib, args.seed, Path(workdir), args.smoke)
        run = Run()
        setup = set_up(run, workload)
        if args.trace:
            untraced = measure(run, workload, args.seconds / 2)
            tracer = spans.Tracer(keep=KEPT_SPANS)
            run.tracer = tracer
            tracer.install(orthobounds)
            try:
                phase = measure(run, workload, args.seconds / 2)
            finally:
                tracer.uninstall()
                run.tracer = None
            details = {"untraced": untraced, "traced": phase}
        else:
            phase = measure(run, workload, args.seconds)
            details = {"measured": phase}
        rerun, extras = workload.finish()
        for unit in rerun:
            run.execute(unit, workload.fresh_heap)
        if args.trace:
            overhead = untraced["ops_per_s"] / phase["ops_per_s"]
            metrics = layer_metrics(tracer, run, phase, extras, overhead)
        else:
            metrics = {
                "setup_s": {"value": setup["setup_s"], "unit": "s"},
                "ops_per_s": {"value": phase["ops_per_s"], "unit": "1/s"},
                "op_p50_ms": {"value": phase["op_p50_ms"], "unit": "ms"},
                "op_tail_ms": {"value": phase["op_tail_ms"], "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
                # runs without a search found no certified ratio, so their
                # gap is the whole 1/4
                "gap_residual": {"value": extras.get("gap_residual", 0.25), "unit": "ratio"},
                "gap_gruss": {"value": extras.get("gap_gruss", 0.25), "unit": "ratio"},
            }
        details.update(
            workload=workload.name,
            trace=args.trace,
            smoke=args.smoke,
            provenance=provenance(workload, args.seed),
            output_digest=workload.output_digest(),
            setup=setup,
            failed_ratio=run.failed / run.attempted,
            errors=run.errors,
        )
    print(json.dumps({"details": details}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
