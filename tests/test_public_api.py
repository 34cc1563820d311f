"""Every public top-level function and class of the package is used by the
package itself: API that only the tests call either becomes the program's
own API or goes away. The one exception is the short list of names the
benchmark under ``tfbench/`` patches or calls by name."""

import ast
import pathlib

import tfctx

PACKAGE = pathlib.Path(tfctx.__file__).parent
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "tfbench"

# ``module:name`` of the public names that only the tests and the benchmark
# use; tfbench/tracer.py patches each of them by name
KEPT_FOR_BENCHMARK = ["tensor.py:finite_diff_check"]


def _mentions(tree):
    """``(name, node)`` of every bare name, attribute and imported name in
    a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def unreferenced_public_names(package_dir) -> list[str]:
    """``module:name`` of each public top-level def or class in
    ``package_dir/*.py`` that no module there names outside the definition
    itself, as a bare name, an attribute or an imported name. A re-export
    in ``__init__.py`` is not a use."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
    used = {}
    for module, tree in trees.items():
        if module != "__init__.py":
            for name, node in _mentions(tree):
                used.setdefault(name, []).append((module, node))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = set(ast.walk(node))
            if all(where == module and ref in inside for where, ref in used.get(node.name, [])):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_public_names(PACKAGE) == KEPT_FOR_BENCHMARK


def test_benchmark_names_every_kept_name():
    named = set()
    for path in BENCHMARK.glob("*.py"):
        tree = ast.parse(path.read_text())
        named.update(name for name, _ in _mentions(tree))
        # the tracer names what it patches in strings
        named.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert [kept for kept in KEPT_FOR_BENCHMARK if kept.split(":")[1] not in named] == []


def test_scan_finds_a_name_only_its_own_body_uses(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\n"
                                   "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                                   "class Lonely:\n    pass\n\n\n"
                                   "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\na.used()\n")
    (tmp_path / "__init__.py").write_text("from .c import Exported\n")
    (tmp_path / "c.py").write_text("class Exported:\n    pass\n")
    assert unreferenced_public_names(tmp_path) == ["a.py:recursive", "a.py:Lonely", "c.py:Exported"]
