"""The spans the benchmark times must name plain public library functions.

``benchmarks/run.py`` reports per-layer metrics from spans named
``"<module>.<function>"``.  Its tracer wraps only the public functions a
module defines itself (``inspect.isfunction``), and a span that never opens
reads 0, so deleting or renaming a traced function would turn its metric into
a silent 0.  These tests read the script with ``ast`` (they neither import
nor run it) and check every span name it uses against the library.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: Calls whose string arguments are span names: the ``us``/``ms`` helpers of
#: ``layer_metrics`` and the tracer's ``calls``/``total``/``mean``.
SPAN_READERS = {"us", "ms", "calls", "total", "mean"}


def _strings(node) -> list[str]:
    return [
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


def _assignments(path: Path) -> dict[str, ast.expr]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }


def benchmark_spans() -> set[str]:
    """Every span name ``benchmarks/run.py`` times or keeps."""
    run = BENCHMARKS / "run.py"
    spans = set()
    for node in ast.walk(ast.parse(run.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in SPAN_READERS:
                for arg in node.args:
                    spans.update(_strings(arg) if isinstance(arg, ast.Constant) else ())
    assigned = _assignments(run)
    spans.update(_strings(assigned["searches"]))
    spans.update(f"suite.check_{check}" for check in _strings(assigned["checks"]))
    kept = assigned["KEPT_SPANS"]
    spans.update(_strings(kept))
    # KEPT_SPANS also unpacks the generator table of workloads.py
    starred = {n.value.id for n in ast.walk(kept) if isinstance(n, ast.Starred)}
    assert starred == {"CERTIFIED_BY_GENERATOR"}
    table = _assignments(BENCHMARKS / "workloads.py")["CERTIFIED_BY_GENERATOR"]
    spans.update(key.value for key in table.keys)
    return spans


def test_span_names_are_found():
    spans = benchmark_spans()
    for name in (
        "bounds.check_condition",
        "sharpness.maximize_residual_ratio",
        "sharpness.maximize_gruss_ratio",
        "suite.check_gruss_chain",
        "generate.generate_twosided_pair",
        "serialize.dump_json",
        "cli.main",
    ):
        assert name in spans


def test_every_benchmark_span_is_a_public_function_of_its_module():
    wrong = []
    for span in sorted(benchmark_spans()):
        module_name, _, name = span.partition(".")
        module = importlib.import_module(f"orthobounds.{module_name}")
        value = getattr(module, name, None)
        if (
            name.startswith("_")
            or not inspect.isfunction(value)
            or value.__module__ != module.__name__
        ):
            wrong.append(span)
    assert not wrong, f"benchmark spans that name no public function: {wrong}"
