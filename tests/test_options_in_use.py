"""Every defaulted parameter of the paper-side library has a caller that sets it.

A parameter with a default that no call ever passes is an option with one
value in use: it should be a constant, and the branches only another value
could reach should not exist. This test scans the simulator, checkers,
witnesses, experiments and the paper-side protocol code (``SCANNED``) for
defaulted parameters and fails on each one that no call in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` passes, by keyword or by
position.

How calls are matched, and what that misses:

- Only module-level functions and the methods of module-level classes are
  scanned; nested functions (a factory's ``build`` closure) are not.
- Names are resolved by name only: a call ``x.f(...)`` or ``f(...)`` counts
  for every scanned function named ``f``, whatever ``x`` is. A call through
  another name (a function stored in a variable or handed to a wrapper such
  as the benchmarks' ``once(f, ...)``, a method looked up with ``getattr``)
  is not seen, so its parameters read as unset.
- A class call ``C(...)``, a ``cls(...)`` inside ``C`` and a
  ``functools.partial(f, ...)`` count as calls of ``C.__init__`` and ``f``.
- A function or method name defined more than once in the scanned code is
  skipped: by-name resolution cannot tell its definitions apart.
- A function that some call passes ``*args`` or ``**kwargs`` is skipped:
  what those set is not known without running the code.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCANNED = [
    *(
        PACKAGE / name
        for name in (
            "sim", "checks", "bounds", "analysis", "protocols", "wan",
            "omega", "core", "verify", "obs",
        )
    ),
    PACKAGE / "smr" / "client.py",
    PACKAGE / "smr" / "leader_log.py",
]
CALLER_TREES = [ROOT / name for name in ("src", "tests", "benchmarks", "examples")]


def _python_files(path: Path) -> list[Path]:
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool):
    """(position or None, name) of each parameter that has a default."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    if is_method and positional and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
    ):
        positional = positional[1:]
    first_default = len(positional) - len(args.defaults)
    found = [
        (index, arg.arg)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    found += [
        (None, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _definitions():
    """{call name: [(qualified name, defaulted params)]} over SCANNED."""
    definitions = defaultdict(list)
    for root in SCANNED:
        for path in _python_files(root):
            module = path.relative_to(PACKAGE.parent).with_suffix("")
            prefix = ".".join(module.parts)
            for node in _parse(path).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    definitions[node.name].append(
                        (f"{prefix}.{node.name}", _defaulted(node, False))
                    )
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            continue
                        name = node.name if item.name == "__init__" else item.name
                        definitions[name].append(
                            (f"{prefix}.{node.name}.{item.name}", _defaulted(item, True))
                        )
    return definitions


def _callee(func: ast.expr, enclosing_class: str | None) -> str | None:
    if isinstance(func, ast.Name):
        if func.id == "cls" and enclosing_class is not None:
            return enclosing_class
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _CallCollector(ast.NodeVisitor):
    """Records, per callee name, what each call passes."""

    def __init__(self, calls):
        self.calls = calls
        self.enclosing_class: str | None = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        outer, self.enclosing_class = self.enclosing_class, node.name
        self.generic_visit(node)
        self.enclosing_class = outer

    def visit_Call(self, node: ast.Call) -> None:
        name = _callee(node.func, self.enclosing_class)
        args = list(node.args)
        if name == "partial" and args:
            name, args = _callee(args[0], self.enclosing_class), args[1:]
        if name is not None:
            starred = any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            self.calls[name].append((len(args), keywords, starred))
        self.generic_visit(node)


def _calls():
    calls = defaultdict(list)
    for tree in CALLER_TREES:
        for path in _python_files(tree):
            _CallCollector(calls).visit(_parse(path))
    return calls


def unset_parameters() -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter no call sets."""
    calls = _calls()
    unset = []
    for name, defined in sorted(_definitions().items()):
        if len(defined) > 1:
            continue
        qualified, params = defined[0]
        seen = calls.get(name, [])
        if any(starred for _, _, starred in seen):
            continue
        for position, param in params:
            if not any(
                param in keywords or (position is not None and position < count)
                for count, keywords, _ in seen
            ):
                unset.append(f"{qualified}({param})")
    return sorted(unset)


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    unset = unset_parameters()
    assert not unset, (
        f"{len(unset)} defaulted parameters that no call passes; make each a "
        "constant (or give it a caller that needs another value):\n  "
        + "\n  ".join(unset)
    )

