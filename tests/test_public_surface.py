"""The package's public surface and the README library sketch.

A name is exported from ``orthobounds`` only when the README library sketch
or the acceptance suite imports it from there; every other name is imported
from the module that defines it.  Both files are parsed, so the rule needs
no hand-kept list.
"""

import ast
import re
from pathlib import Path

import pytest

import orthobounds

ROOT = Path(__file__).resolve().parents[1]


def _readme_sketch() -> str:
    """The first ``python`` block after the README's "Library sketch" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _imported_from_package(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "orthobounds"
        for alias in node.names
    }


def _exported() -> set[str]:
    source = Path(orthobounds.__file__).read_text(encoding="utf-8")
    return {
        alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_exports_are_what_the_sketch_and_the_acceptance_suite_import():
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    used = _imported_from_package(_readme_sketch()) | _imported_from_package(acceptance)
    exported = _exported()
    assert exported - used == set(), "exported, but neither the sketch nor the acceptance suite imports it"
    assert used - exported == set(), "imported from orthobounds, but not exported"


def test_readme_sketch_runs_and_gives_the_values_its_comment_states():
    sketch = _readme_sketch()
    stated = {
        name: float(value)
        for name, value in re.findall(r"report\.(\w+) = ([0-9.]+)", sketch)
    }
    assert stated == {"residual": 0.04, "refined": 0.08, "coarse": 0.5}
    namespace = {}
    exec(compile(sketch, "README.md", "exec"), namespace)
    report = namespace["report"]
    for name, value in stated.items():
        assert getattr(report, name) == pytest.approx(value, rel=1e-12), name
    assert report.certified
