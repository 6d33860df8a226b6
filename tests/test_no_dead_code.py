"""Every function, class and method of the package has a reference somewhere
in the repository's code, and every attribute the package stores on self is
read somewhere: a helper without callers, or state that nothing reads,
fails these tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quiverkit"
SEARCHED = ("src", "tests", "demos", "perfbench")


def _trees():
    for d in SEARCHED:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _docstring_ids(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _traced_names(tree):
    """The parts of every string literal other than a docstring that is a
    whole dotted name (traced names such as "Module.basis_action" are
    strings; words of prose are not references)."""
    docs = _docstring_ids(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docs and re.fullmatch(r"[\w.]+", node.value)):
            yield from node.value.split(".")


def _references(tree):
    """Names used as a Name, an attribute, an import, or a traced name."""
    yield from _traced_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def _definitions(tree):
    """Functions, classes and methods, except dunders and functions that a
    decorator call registers (they are reached through the registry)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if any(isinstance(d, ast.Call) for d in node.decorator_list):
            continue
        yield node.name, node.lineno


def test_every_definition_is_referenced():
    trees = list(_trees())
    referenced = set()
    for _, tree in trees:
        referenced.update(_references(tree))
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in trees if path.is_relative_to(PACKAGE)
              for name, line in _definitions(tree) if name not in referenced]
    assert unused == []


def _stored_attributes(tree):
    """Attributes assigned on self."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr, node.lineno


def _reads(tree):
    """Attribute names read, and traced names."""
    yield from _traced_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_stored_attribute_is_read():
    trees = list(_trees())
    read = set()
    for _, tree in trees:
        read.update(_reads(tree))
    unread = [f"{path.relative_to(ROOT)}:{line} self.{name}"
              for path, tree in trees if path.is_relative_to(PACKAGE)
              for name, line in _stored_attributes(tree) if name not in read]
    assert unread == []
