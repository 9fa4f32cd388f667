"""Every top-level function and class of the package is referenced somewhere
in the package outside its own definition, or re-exported through
`delcode._EXPORTS`.  A stdlib `ast` pass, beside the unused-import check."""

import ast
import pathlib

import delcode

PACKAGE = pathlib.Path(delcode.__file__).parent
MODULE_HOOKS = {"__getattr__", "__dir__"}  # called by Python on the package, never by name


def _references(node):
    """Each name the code under node reads or imports, attribute names included."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.asname or child.name


def unreferenced(trees: dict, exported: set) -> set:
    """The 'module.name' of each top-level def or class in trees (module ->
    ast.Module) that no code outside its own definition names."""
    everywhere = [name for tree in trees.values() for name in _references(tree)]
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inside = list(_references(node)).count(node.name)
                if node.name not in exported | MODULE_HOOKS and everywhere.count(node.name) == inside:
                    found.add(f"{module}.{node.name}")
    return found


def test_every_top_level_name_is_referenced_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    exported = {name for names in delcode._EXPORTS.values() for name in names}
    assert unreferenced(trees, exported) == set()


def test_the_check_sees_an_unreferenced_name():
    trees = {
        "a": ast.parse("def used():\n    return 1\ndef left(x):\n    return left(x - 1)\nclass Kept: pass\n"),
        "b": ast.parse("from .a import used\nprint(used())\n"),
    }
    assert unreferenced(trees, {"Kept"}) == {"a.left"}
