"""Every module-level import under ``src/`` is used by the module that makes it.

An import no code reads is a dependency in name only: it costs start-up
time, hides which modules really depend on which, and goes stale without
a failing test. This test parses each module of the package and fails on
each module-level name an import binds that the module never reads.

What counts, and what is exempt:

- Imports at module level, in the bodies of module-level ``if`` blocks
  (``if TYPE_CHECKING:``) and in module-level ``try`` blocks are checked;
  imports inside functions and classes are not.
- A name is used if any ``Name`` node reads it, if it is the root of an
  attribute chain, if it appears in an annotation (also a string one), or
  if ``__all__`` lists it.
- ``__init__.py`` files are skipped: their imports are re-exports.
- ``from __future__ import ...`` binds no name and is skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_imports(tree: ast.Module):
    """(line, bound name) of each import at module level."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                pending += handler.body
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= {
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            }
    return used


def unused_imports() -> list[str]:
    """``path:line name`` for each module-level import no code reads."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for line, name in _module_imports(tree):
            if name not in used:
                found.append(f"{path.relative_to(PACKAGE.parent)}:{line} {name}")
    return found


def test_every_module_level_import_is_used():
    unused = unused_imports()
    assert not unused, (
        f"{len(unused)} module-level imports that no code reads; delete them:\n  "
        + "\n  ".join(unused)
    )
