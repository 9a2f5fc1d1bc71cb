"""Every small float literal in the library is a named module constant.

Chain comparisons take their allowance from ``space.allowance``; the few
fixed tolerances left are module-level constants with their reason beside
them.  A tolerance written inline (``x >= -1e-9 * scale``) would escape that
review, so these tests read ``src/`` with ``ast`` and reject it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Nonzero float literals below this magnitude count as tolerances.
SMALL = 1e-6


def inline_small_floats(source: str) -> list[tuple[int, float]]:
    """(line, value) of each small float literal that is not part of the
    value of a module-level assignment."""
    tree = ast.parse(source)
    named = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None
        for node in ast.walk(stmt.value)
    }
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < SMALL
        and id(node) not in named
    )


def test_small_float_literals_are_module_constants():
    found = [
        f"{path.relative_to(SRC)}:{line}: {value!r}"
        for path in sorted(SRC.rglob("*.py"))
        for line, value in inline_small_floats(path.read_text(encoding="utf-8"))
    ]
    assert not found, f"name these tolerances as module constants: {found}"


def test_guard_flags_inline_tolerances_only():
    source = (
        "TOL = 1e-12\n"
        "WINDOW = 0.25 + 1e-9\n"
        "def check(value, scale, tol=1e-10):\n"
        "    return value >= -1e-9 * scale and value < 1.0 and value != 0.0\n"
        "class Config:\n"
        "    tolerance: float = 1e-10\n"
    )
    assert inline_small_floats(source) == [(3, 1e-10), (4, 1e-9), (6, 1e-10)]
