"""Every random draw in the library is made in ``generate.py``.

The draw plan there is the one place that knows the order in which a
stream's numbers are drawn, so that a suite cell, the public generators and
the search's start states take the same numbers from the same stream.  A
``Generator`` draw method called anywhere else would be a second order that
nothing ties to the plan's, so these tests read ``src/`` with ``ast`` and
reject it.
"""

import ast
from pathlib import Path

import numpy as np

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orthobounds"

#: The draw methods of ``numpy.random.Generator``: every public method but
#: the bit generator and ``spawn``.
DRAWS = frozenset(
    name for name in dir(np.random.Generator) if not name.startswith("_")
) - {"bit_generator", "spawn"}


def draw_calls(source: str) -> list[tuple[int, str]]:
    """(line, method) of each call of a draw method on anything but the
    numpy module (``np.power`` and ``np.random`` are no draws)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if node.func.attr in DRAWS and not (isinstance(owner, ast.Name) and owner.id in ("np", "numpy")):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_only_generate_draws():
    found = [
        f"{path.name}:{line}: {method}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "generate.py"
        for line, method in draw_calls(path.read_text(encoding="utf-8"))
    ]
    assert not found, f"draw through generate's plan instead: {found}"


def test_guard_flags_every_draw_method_call():
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng(1)\n"
        "x = rng.standard_normal(3) + np.power(2, 3)\n"
        "def f(rngs):\n"
        "    return [r.lognormal(0.0, 0.5) for r in rngs], rngs[0].uniform()\n"
        "y = np.random.Generator(np.random.PCG64(1)).permutation(4)\n"
        "z = rng.bit_generator.state\n"
    )
    assert draw_calls(source) == [
        (3, "standard_normal"), (5, "lognormal"), (5, "uniform"), (6, "permutation"),
    ]
