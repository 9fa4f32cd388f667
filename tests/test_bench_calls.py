"""The benchmark's direct library calls name what the program still has, with
arguments its signatures accept.

`perfbench/workloads.py` builds the channel workload's specs and streams its
decodes through `delcode`'s modules. A renamed function or a changed signature
breaks that workload's set-up, and only the benchmark's own smoke tests, which
this suite does not collect, fail on it. This test reads the file's syntax
tree, so the benchmark is neither imported nor changed."""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _chain(node):
    """["a", "b", "c"] for the expression a.b.c, or None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _library_uses():
    """The names `from delcode... import` binds, each attribute chain rooted at
    one, and each call of such a chain as (text, call node, chain). A call
    through a parameter of one of the file's functions counts when a call site
    passes a chain for that parameter, as `_substitute(rng, y, model.Word)` does."""
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "delcode":
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def rooted(node):
        chain = _chain(node)
        return chain if chain and chain[0] in roots else None

    chains = {".".join(chain) for node in ast.walk(tree) if (chain := rooted(node))}

    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if chain := rooted(node.func):
            calls.append((".".join(chain), node, chain))
        elif isinstance(node.func, ast.Name) and node.func.id in functions:
            function = functions[node.func.id]
            for param, arg in zip((a.arg for a in function.args.args), node.args):
                if chain := rooted(arg):
                    calls += [
                        (f"{function.name}: {param} = {'.'.join(chain)}", inner, chain)
                        for inner in ast.walk(function)
                        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) and inner.func.id == param
                    ]
    return roots, chains, calls


def _resolve(roots, chain):
    """The object a chain names, importing the module its root comes from."""
    module, _, name = roots[chain[0]].rpartition(".")
    value = getattr(importlib.import_module(module), name)
    for attr in chain[1:]:
        value = getattr(value, attr)
    return value


def test_every_library_name_resolves():
    roots, chains, _ = _library_uses()
    assert "multfree.SetCode.from_vt" in chains
    missing = set()
    for text in sorted({*chains, *roots}):
        try:
            _resolve(roots, text.split("."))
        except AttributeError:
            missing.add(text)
    assert missing == set()


def test_every_direct_call_binds_to_its_signature():
    roots, _, calls = _library_uses()
    assert any(text.startswith("_substitute") for text, _, _ in calls)
    unbound = []
    for text, call, chain in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), text
        assert all(keyword.arg is not None for keyword in call.keywords), text
        try:
            inspect.signature(_resolve(roots, chain)).bind(
                *[None] * len(call.args), **{keyword.arg: None for keyword in call.keywords}
            )
        except (AttributeError, TypeError) as exc:
            unbound.append(f"{text} at line {call.lineno}: {exc}")
    assert unbound == []
