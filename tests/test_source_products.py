"""Every vector product in the library is spelled once, in ``space.py``.

The kernel's three products (``_dot``, ``_coefficients``, ``_combine``) and
the Gram matrix (``_gram_defect``) are the only places that multiply vectors,
so a stacked result equals the single-instance one wherever it is computed.
A product written inline elsewhere (``a @ b``, ``np.vdot(a, a)``) would be a
second spelling whose bits nothing ties to the kernel's, so these tests read
``src/`` with ``ast`` and reject it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthobounds"

#: Attribute names that spell a product (``np.vdot``, ``np.linalg.vecdot``,
#: ``a.dot``) and the functions of ``space.py`` allowed to use them.
PRODUCTS = {"vdot", "dot", "inner", "matmul", "einsum", "vecdot", "matvec", "vecmat"}
KERNEL = {"_dot", "_coefficients", "_combine", "_gram_defect"}


def inline_products(source: str, allowed: frozenset = frozenset()) -> list[tuple[int, str]]:
    """(line, spelling) of each product outside the module-level functions
    named in ``allowed``."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in allowed
        for node in ast.walk(stmt)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in PRODUCTS]
    return sorted(found)


def test_products_live_in_the_space_kernel():
    found = [
        f"{path.name}:{line}: {spelling}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, spelling in inline_products(
            path.read_text(encoding="utf-8"),
            frozenset(KERNEL) if path.name == "space.py" else frozenset(),
        )
    ]
    assert not found, f"call space._dot, _coefficients or _combine instead: {found}"


def test_guard_flags_every_spelling_outside_the_allowed_functions():
    source = (
        "import numpy as np\n"
        "from numpy import vecdot\n"
        "def _dot(x, y):\n"
        "    return np.vecdot(y, x)\n"
        "def _norm(x):\n"
        "    return np.vdot(x, x) + x @ x + np.linalg.vecdot(x, x)\n"
        "class Box:\n"
        "    def _dot(self, x):\n"
        "        x @= x\n"
        "        return x.dot(x) + np.einsum('i,i', x, x) + np.matvec(x, x)\n"
        "@staticmethod\n"
        "def plain(x):\n"
        "    return x * x\n"
    )
    assert inline_products(source, frozenset({"_dot"})) == [
        (2, "vecdot"), (6, "@"), (6, "vdot"), (6, "vecdot"),
        (9, "@"), (10, "dot"), (10, "einsum"), (10, "matvec"),
    ]
