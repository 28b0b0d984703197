"""Every name an annotation in ``src/superbol`` uses is bound in its module.

Annotations are not evaluated at run time (``from __future__ import
annotations``), so a name that is only imported inside a function, or not at
all, goes unnoticed until a type checker or ``typing.get_type_hints`` reads
it.  A name a module needs only for annotations is imported under
``typing.TYPE_CHECKING``, which loads nothing at run time.
"""

import ast
import builtins
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "superbol").glob("*.py"))


def _module_names(statements) -> set[str]:
    """The names bound by module-level statements, inside ``if`` and ``try``
    blocks (``if TYPE_CHECKING:`` among them) but not inside a function or
    class body."""
    names = set()
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            handlers = [statement for handler in getattr(node, "handlers", ()) for statement in handler.body]
            names |= _module_names([*node.body, *node.orelse, *getattr(node, "finalbody", ()), *handlers])
        else:
            names.update(
                sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            )
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(annotation: ast.expr):
    """The names an annotation reads, inside string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _names(ast.parse(node.value, mode="eval"))


def test_names_are_collected_from_every_kind_of_annotation():
    tree = ast.parse(
        "import typing as t\n"
        "if t.TYPE_CHECKING:\n    from m import Bound\n"
        "def f(a: 'Quoted', /, b: list[Sub], *c: Star, d: Kw, **e: Kwargs) -> Returned:\n"
        "    from m import Local\n    x: Local = 1\n"
    )
    found = {name for annotation in _annotations(tree) for name in _names(annotation)}
    assert found == {"Quoted", "list", "Sub", "Star", "Kw", "Kwargs", "Returned", "Local"}
    assert _module_names(tree.body) == {"t", "Bound", "f"}


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_annotations_name_module_level_bindings(path):
    tree = ast.parse(path.read_text())
    known = _module_names(tree.body) | set(dir(builtins))
    unbound = sorted({name for annotation in _annotations(tree) for name in _names(annotation)} - known)
    assert unbound == [], unbound
