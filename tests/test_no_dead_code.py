"""Every function, class and method of the package has a reference somewhere
in the repository's code, every attribute the package stores on self and
every field of its dataclasses is read somewhere, and every parameter with a
default is passed by some call: a helper without callers, state that nothing
reads, or an option that no caller sets fails these tests."""

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


def _is_dataclass(node):
    """A class decorated with dataclass, called or not, bare or dotted."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (getattr(d, "id", None) or getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _stored_attributes(tree):
    """Attributes assigned on self, and the fields of dataclasses: their
    annotated class-level names."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.target.id, stmt.lineno


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


def _functions(tree):
    """(name a call uses, function, leading parameters that a call does not
    list) of every function, method and constructor: a constructor is
    called by its class's name, and a method's self or cls comes from the
    call's receiver."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for d in node.body:
                if isinstance(d, ast.FunctionDef):
                    static = any(getattr(x, "id", None) == "staticmethod"
                                 for x in d.decorator_list)
                    methods[id(d)] = (node.name if d.name == "__init__" else d.name,
                                      0 if static else 1)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, skip = methods.get(id(node), (node.name, 0))
            yield name, node, skip


def _optional_parameters(fn, skip):
    """(position in a call or None, name) of fn's parameters with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    for i in range(len(positional) - len(fn.args.defaults), len(positional)):
        yield i - skip, positional[i].arg
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(tree):
    """(called name, positions passed, keywords passed) of every call, with
    the name resolved as the dead-code test does; a starred argument passes
    every position and a double-starred one every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield (name, float("inf") if starred else len(node.args),
               None if None in keywords else keywords)


def test_every_optional_parameter_is_passed():
    trees = list(_trees())
    calls = {}
    for _, tree in trees:
        for name, npos, keywords in _calls(tree):
            calls.setdefault(name, []).append((npos, keywords))

    def passed(name, pos, param):
        return any((pos is not None and pos < npos)
                   or keywords is None or param in keywords
                   for npos, keywords in calls.get(name, ()))

    unpassed = [f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}({param})"
                for path, tree in trees if path.is_relative_to(PACKAGE)
                for name, fn, skip in _functions(tree)
                for pos, param in _optional_parameters(fn, skip)
                if not passed(name, pos, param)]
    assert unpassed == []
