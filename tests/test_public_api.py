"""Every public top-level function and class of the package is used by the
package itself: API that only the tests call either becomes the program's
own API or goes away."""

import ast
import pathlib

import tfctx

PACKAGE = pathlib.Path(tfctx.__file__).parent


def unreferenced_public_names(package_dir) -> list[str]:
    """``module:name`` of each public top-level def or class in
    ``package_dir/*.py`` that no module there names outside the definition
    itself, as a bare name, an attribute or an imported name (so a
    re-export in ``__init__.py`` counts)."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
    used = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, []).append((module, node))
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, []).append((module, node))
            elif isinstance(node, ast.alias):
                used.setdefault(node.name, []).append((module, node))
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
    assert unreferenced_public_names(PACKAGE) == []


def test_scan_finds_a_name_only_its_own_body_uses(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\n"
                                   "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                                   "class Lonely:\n    pass\n\n\n"
                                   "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\na.used()\n")
    (tmp_path / "__init__.py").write_text("from .c import Exported\n")
    (tmp_path / "c.py").write_text("class Exported:\n    pass\n")
    assert unreferenced_public_names(tmp_path) == ["a.py:recursive", "a.py:Lonely"]
