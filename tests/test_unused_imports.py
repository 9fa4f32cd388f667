"""Every name a module of the package, a test module or a script imports is
used in it: in code, in an annotation (a quoted one too) or in `__all__`.  A
stdlib `ast` pass, since the project installs no linter."""

import ast
import pathlib

import pytest

import delcode

PACKAGE = pathlib.Path(delcode.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("scripts/*.py"))]


def _imported(tree):
    """Each name an import statement binds, anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    """Each name the module reads, with the names inside quoted annotations and
    the strings listed in `__all__`."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            annotations.append(node.value)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _used(ast.parse(node.value, mode="eval"))


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert set(_imported(tree)) - set(_used(tree)) == set()


def test_the_check_sees_an_unused_import():
    tree = ast.parse('from .model import Word, set_bits\ndef f(w: "Word") -> int:\n    return 0\n')
    assert set(_imported(tree)) - set(_used(tree)) == {"set_bits"}
