"""The package's public surface and the README library sketch.

A name is exported from ``orthobounds`` only when the README library sketch
or the acceptance suite imports it from there; every other name is imported
from the module that defines it.  Both files are parsed, so the rule needs
no hand-kept list.

No public name or defaulted parameter lives for the tests alone: each must
be reached from outside ``tests/``.  The library, the benchmark scripts, the
acceptance suite and the README are parsed for it.  Nor does a private
function or method: each must be named in its own module outside its
definition, or imported from that module by another module of ``src/``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import orthobounds
from orthobounds.space import REAL
from orthobounds.suite import SuiteConfig, run_suite
from test_benchmark_spans import benchmark_spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orthobounds"


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


def _parsed(paths) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)}


def _public_definitions(modules: dict[str, ast.Module]):
    """(label, node, is_method) for every public function and class a
    module of the package defines, and every public method of those classes.
    Labels are ``module.name`` and ``Class.method``."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                yield f"{module}.{node.name}", node, False
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield f"{node.name}.{item.name}", item, True


def _defaulted(node: ast.FunctionDef, is_method: bool):
    """(name, position) of each parameter with a default; the position counts
    positional arguments of a call (self and cls excluded), None for
    keyword-only parameters."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    offset = 1 if is_method and not static else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _name(node) -> str | None:
    """The identifier a Name, an Attribute or a call's callee spells."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _identifiers(nodes) -> Counter:
    return Counter(_name(n) for n in nodes if isinstance(n, (ast.Name, ast.Attribute)))


def _passes(calls, function: str, parameter: str, position) -> bool:
    """Some call of ``function`` passes ``parameter``, by keyword or (at
    ``position``) by position; a call that unpacks ``*args`` or ``**kwargs``
    may pass any."""
    for call in calls:
        if _name(call.func) != function:
            continue
        keywords = {k.arg for k in call.keywords}
        if None in keywords or parameter in keywords:
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if position is not None and len(call.args) > position:
            return True
    return False


def _readme_code() -> tuple[list[ast.AST], set[str]]:
    """The README's code blocks and code spans: the ones that parse as Python,
    and the identifiers of all of them."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```[a-z]*\n(.*?)```", readme, re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    trees = []
    for code in blocks + spans:
        try:
            trees.append(ast.parse(code))
        except SyntaxError:
            pass
    return trees, set(re.findall(r"[A-Za-z_]\w*", " ".join(blocks + spans)))


def _recorded_checks() -> set[str]:
    """The check names ``run_suite`` records: a stored failure names one, and
    replaying it calls ``suite.check_<name>``."""
    cfg = SuiteConfig(instance_count=1, dims=(2,), family_sizes=(1,), fields=(REAL,))
    return set(run_suite(cfg).checks)


def test_every_public_name_and_default_has_a_caller():
    # A public function, class, method or property must be named outside
    # tests/: in another module of the package or its own (outside its
    # definition), a benchmark script or span, the acceptance suite or the
    # README's code.  A defaulted parameter must be passed by such a call.
    readme_trees, readme_words = _readme_code()
    scripts = [p for p in (ROOT / "benchmarks").glob("*.py") if p.name != "test_smoke.py"]
    external = _parsed(scripts + [ROOT / "tests" / "test_acceptance.py"])
    modules = _parsed(SRC.glob("*.py"))
    trees = [*external.values(), *readme_trees, *modules.values()]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    named = _identifiers(nodes) + Counter(readme_words)
    calls = [n for n in nodes if isinstance(n, ast.Call)]
    spans = benchmark_spans()
    checks = _recorded_checks()
    orphans = []
    for label, node, is_method in _public_definitions(modules):
        inside = list(ast.walk(node))
        replayed = label.startswith("suite.check_") and label[len("suite.check_"):] in checks
        if not (named - _identifiers(inside))[node.name] and label not in spans and not replayed:
            orphans.append(label)
        if isinstance(node, ast.FunctionDef):
            inside = set(map(id, inside))
            outside = [call for call in calls if id(call) not in inside]
            where = label if is_method else label.split(".", 1)[1]
            orphans += [
                f"{where}({parameter})"
                for parameter, position in _defaulted(node, is_method)
                if not _passes(outside, node.name, parameter, position)
            ]
    assert orphans == [], f"no caller outside tests/ reaches these names or defaults: {orphans}"


def private_orphans(modules: dict[str, ast.Module]) -> list[str]:
    """``module.name`` (``module.Class.name`` for a method) of each private
    function and private method that nothing reaches: its own module names it
    nowhere outside its definition, and no other module imports it from that
    module.  A name in another module does not count, so two private names
    that match cannot hide an orphan.  Dunder methods are not private."""
    imported = {
        (node.module.rpartition(".")[2], alias.name)
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    orphans = []
    for module, tree in modules.items():
        named = _identifiers(ast.walk(tree))
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for owner, body in [("", tree.body), *((f"{c.name}.", c.body) for c in classes)]:
            orphans += [
                f"{module}.{owner}{node.name}"
                for node in body
                if isinstance(node, ast.FunctionDef) and node.name[0] == "_"
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and not (named - _identifiers(ast.walk(node)))[node.name]
                and (module, node.name) not in imported
            ]
    return orphans


def test_private_guard_is_module_aware():
    modules = {
        "a": (
            "from .b import _shared\n"
            "def _used(): return _shared()\n"
            "def _imported(): pass\n"
            "def _row(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class Plan:\n"
            "    def __init__(self): pass\n"
            "    def _replay(self): pass\n"
            "    def _build(self): pass\n"
            "    def run(self): return self._replay(), _used()\n"
        ),
        "b": (
            "from .a import _imported\n"
            "def _shared(): pass\n"
            "def _row(): return _build\n"
            "def _replay(): return _row()\n"
        ),
    }
    orphans = private_orphans({name: ast.parse(source) for name, source in modules.items()})
    # a._row and b._replay match names used in the other module; Plan._build
    # matches a name b reads but does not import from a
    assert orphans == ["a._row", "a._recursive", "a.Plan._build", "b._replay"]


def test_every_private_function_has_a_caller_in_the_package():
    # A private function or method is named in its own module outside its
    # definition, or imported from there: a helper that only tests call
    # lives in tests/.
    orphans = private_orphans(_parsed(SRC.glob("*.py")))
    assert orphans == [], f"no caller in src/ reaches these private functions: {orphans}"
