"""Surface guard: no public name in `src/dgh` is reached only from tests,
and no private function is reached by nothing.

Every public function, class and method of the package must be referenced
by name somewhere in `src/dgh` outside its own definition (as a name, an
attribute, an import alias or an identifier string), open an inline code
span of README.md (`name(...)` or `Class.name(...)`), or be a qualified
name in the `LAYERS` table of the benchmark's layer tracer
(`perfbench/spans.py`).  The names that only that table reaches are
pinned by name.  A test helper belongs in `tests/conftest.py`.
Every private module-level function and private method must be referenced
in `src/dgh` outside its own definition, so that a superseded helper does
not linger.

The package imports nothing but itself and the standard library.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dgh"


def _references(tree):
    """Counter of the names a syntax tree mentions."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[(node.asname or node.name).rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
    return names


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function and
    class, and of each public method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_functions(tree):
    """(qualified name, node) of each private module-level function, and of
    each private method of a module-level class; a dunder is not private."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs) and _is_private(node.name):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and _is_private(item.name):
                    yield f"{node.name}.{item.name}", item


def readme_names():
    """The name called at the start of an inline code span of README.md:
    `wedge` for `Interval.wedge(other)`."""
    return set(re.findall(r"`(?:\w+\.)*(\w+)\(", (ROOT / "README.md").read_text()))


def traced_names():
    """The last part of each qualified name in spans.py's LAYERS table."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    return {row.elts[1].value.rsplit(".", 1)[-1] for row in table.elts}


def unreferenced_names(definitions, words=frozenset()):
    """module:qualname of each of `definitions` (per syntax tree) that no
    code of the package references outside its own definition, and that
    is not among `words`."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum(map(_references, trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            outside = everywhere[node.name] - _references(node)[node.name]
            if outside <= 0 and node.name not in words:
                out.append(f"{module}:{qualname}")
    return out


def test_every_public_name_is_used_documented_or_traced():
    assert unreferenced_names(_public_definitions, readme_names() | traced_names()) == []


def test_names_only_the_tracer_keeps_are_pinned():
    # the public names that nothing but the tracer's LAYERS table reaches:
    # dead library code, pinned so that a new one fails here instead of
    # creeping in
    assert sorted(unreferenced_names(_public_definitions, readme_names())) == [
        "linalg.py:matrix_rank",
        "linalg.py:solve_integer",
        "linalg.py:unimodular_inverse",
    ]


def test_every_private_function_is_used():
    assert unreferenced_names(_private_functions) == []


def imported_modules(tree):
    """The top-level module names a syntax tree imports; a relative import
    is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "dgh" if node.level else node.module.partition(".")[0]


def test_library_imports_only_itself_and_the_standard_library():
    # the README promises no runtime dependencies: no numpy, no scipy
    foreign = {
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_modules(ast.parse(path.read_text()))
        if name != "dgh" and name not in sys.stdlib_module_names
    }
    assert foreign == set()
