"""Every public module-level function, class and constant in ``src/gluevol``,
and every public method and property of its classes, must be named by the
program itself: by other code in ``src/``, by the benchmark harness
(``perfbench/*.py``) or by ``pyproject.toml``. A name that only tests reach
is API the pipeline never runs, so it fails here.

A name counts wherever it occurs as an identifier, an attribute or a word
inside a string literal (the benchmark looks stage functions up by name),
but not in docstrings, comments, imports, ``__all__`` or its own
definition: a re-export passes a name on without using it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "gluevol").rglob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
WORD = re.compile(r"\w+")


def _unread(tree: ast.Module) -> set[int]:
    """ids of the nodes that name nothing: docstrings, and ``__all__``
    lists, which like imports only pass a name on."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            ids.update(id(n) for n in ast.walk(node.value))
    return ids


def _mentions(tree: ast.Module):
    """(name, line) of every identifier, attribute and string word."""
    skip = _unread(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            for word in WORD.findall(node.value):
                yield word, node.lineno


def _defined(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a def, a class, or the plain
    names an assignment binds (constants)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _definitions(tree: ast.Module):
    """(statement, name, is_method) of every module-level definition, and of
    every method (properties and class methods included) of a module-level
    class."""
    for node in tree.body:
        for name in _defined(node):
            yield node, name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member, member.name, True


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + HARNESS}
    mentions = defaultdict(list)  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _mentions(tree):
            mentions[name].append((path, line))
    toml_words = set(WORD.findall((ROOT / "pyproject.toml").read_text()))
    unreached = []
    for path in SRC:
        for node, name, is_method in _definitions(trees[path]):
            if name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            # pyproject.toml's entry points name module-level objects only
            reached = (name in toml_words and not is_method) or any(
                not (where == path and line in own) for where, line in mentions[name]
            )
            if not reached:
                unreached.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unreached, "named only by tests or by nothing:\n" + "\n".join(unreached)
