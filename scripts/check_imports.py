"""Report imports that nothing in their module reads.

Run with ``python scripts/check_imports.py [PATH ...]`` (default:
``src``); each path is a ``.py`` file or a directory searched
recursively.  Prints one ``file:line: name`` line per unused import and
exits 1 if there is any, 0 otherwise.  Standard library only.

An imported name counts as read when the module loads it anywhere (any
scope), names it in ``__all__`` or mentions it inside a string
annotation (``Optional["MultiGPUSystem"]``).  ``__init__.py`` files are
skipped, since their imports are the package's re-exports, and so is
any import whose lines carry ``# noqa: F401``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import Iterator, List, Set, Tuple

_NOQA = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Identifiers inside the string constants of one annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of ``__all__`` (assigned or extended)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ) and isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                )
    return names


def _read_names(tree: ast.Module) -> Set[str]:
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, (ast.Load, ast.Del))
    }
    for annotation in _annotations(tree):
        names.update(_annotation_names(annotation))
    return names | _exported(tree)


def _imports(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    """Every ``(import statement, bound name)`` pair of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name


def unused_imports(path: pathlib.Path) -> List[Tuple[int, str]]:
    """``(line, name)`` of every import in ``path`` nothing reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = _read_names(tree)
    unused = []
    for node, name in _imports(tree):
        span = lines[node.lineno - 1 : node.end_lineno]
        if name in read or any(_NOQA.search(line) for line in span):
            continue
        unused.append((node.lineno, name))
    return sorted(unused)


def _modules(paths: List[str]) -> Iterator[pathlib.Path]:
    for raw in paths:
        path = pathlib.Path(raw)
        found = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for module in found:
            if module.name != "__init__.py":
                yield module


def main(argv: List[str]) -> int:
    count = 0
    for module in _modules(argv or ["src"]):
        for line, name in unused_imports(module):
            print(f"{module}:{line}: {name} imported but unused")
            count += 1
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
