"""Report definitions that nothing outside the tests names.

Run with ``python scripts/check_unused.py [PATH ...]`` (default:
``src``); each path is a ``.py`` file or a directory searched
recursively.  Prints one ``file:line: name`` line per module-level or
class-level ``def``/``class`` whose name nothing outside ``tests/``
reads, and exits 1 if there is any, 0 otherwise.  Standard library
only; the sibling of ``check_imports.py``.

A name counts as read when a module under the scanned paths,
``benchmarks/``, ``perfbench/``, ``examples/`` or ``scripts/`` loads it
(``name`` or ``obj.name``) or spells it in a dotted string
(``"repro.pipeline.characterize.DrawCharacterizer.characterize_frame"``,
as ``perfbench/layers.py`` does), or when the CI workflow mentions it.
Imports and ``__all__`` entries are not reads: a re-export alone keeps
nothing alive.  Modules under a ``tests`` directory are never read.
Names are matched, not owners: a method passes when anything reads a
name it shares (``str.split`` keeps every ``split``).

Dunder methods, ``@register_framework`` classes (built by name) and
``do_*`` methods (``http.server`` dispatches on the verb) are exempt.
:data:`KEEP` lists the intentional exceptions, each with one of
:data:`REASONS`; an entry that names no definition, or gives another
reason, fails the check too.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

_SELF = pathlib.Path(__file__).resolve()
ROOT = _SELF.parents[1]
#: Read for uses besides the scanned paths themselves.
USE_ROOTS = ("benchmarks", "perfbench", "examples", "scripts")
WORKFLOWS = ".github/workflows"

#: Why a definition only the tests read stays.  A scalar reference no
#: production path calls is not one of them: it lives in the tests'
#: oracle table (``tests/oracles.py``), so ``src/`` keeps one
#: implementation of each production function.
REASONS = (
    # The text a pinned golden file is written in.
    "golden format",
    # Builds the inputs an oracle test feeds both paths.
    "oracle fixture",
    # Reads state production keeps, so a test can check it.
    "state accessor",
    # Part of the paper's programming model (Section 5.1).
    "paper API",
)

#: Definitions only the tests name, kept on purpose.  A kept class keeps
#: its members.
KEEP: Dict[str, str] = {
    # Section 5.1's two ways into the programming model.
    "repro.core.programming_model.OOApplication.from_mono_frame": "paper API",
    "repro.core.programming_model.OOApplication.from_stereo_frame": (
        "paper API"
    ),
    # The text of the nine event goldens.
    "repro.engine.trace.FrameTrace.phase_summary": "golden format",
    # Inputs the tile and slice oracles feed both paths.
    "repro.frameworks.tile_sfr.TileSplitFrameRendering"
    ".stereo_space_viewports": "oracle fixture",
    "repro.memory.placement.PagePlacement.place_interleaved": (
        "oracle fixture"
    ),
    "repro.memory.placement.PagePlacement.place_striped": "oracle fixture",
    "repro.pipeline.workunit.WorkUnit.with_screen_share": "oracle fixture",
    "repro.pipeline.workunit.UnitColumns.from_units": "oracle fixture",
    # Geometry the rasterizer tests draw (the rasterizer is the executed
    # pipeline ``repro.render.validate`` checks the model against).
    "repro.render.mesh3d.make_quad": "oracle fixture",
    "repro.render.mesh3d.TriangleMesh.transformed": "oracle fixture",
    # State production keeps, read back by tests.
    "repro.extensions.migration.MigrationEngine.pending_resources": (
        "state accessor"
    ),
    "repro.extensions.topology.RoutedLinkFabric.wire_bytes": (
        "state accessor"
    ),
    "repro.memory.remote_cache.RemoteCache.hit_rate": "state accessor",
    "repro.memory.link.LinkFabric.bytes_between": "state accessor",
    "repro.memory.placement.PagePlacement.local_fraction": "state accessor",
    "repro.memory.placement.PagePlacement.layout": "state accessor",
    "repro.pipeline.timing.StageBreakdown.serial_cycles": "state accessor",
    "repro.pipeline.workunit.WorkUnit.texture_stream_bytes": (
        "state accessor"
    ),
    "repro.pipeline.workunit.WorkUnit.texture_unique_bytes": (
        "state accessor"
    ),
    "repro.session.cache.CacheStats.hit_rate": "state accessor",
    "repro.stats.metrics.TrafficBreakdown.bytes_of": "state accessor",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
_WORD = re.compile(r"[A-Za-z_]\w*")


class Definition(NamedTuple):
    path: pathlib.Path
    line: int
    #: Dotted module path plus the qualified name inside the module.
    qualified: str
    name: str


def _modules(paths: List[str]) -> Iterator[Tuple[pathlib.Path, str]]:
    """``(file, dotted module name)`` for every module under ``paths``.

    Modules under a ``tests`` directory below a scanned path are left
    out: tests neither define what is checked nor count as reads.  So
    is this script, whose ``KEEP`` keys are not reads.
    """
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            found = [
                (module, module.relative_to(path).with_suffix("").parts)
                for module in sorted(path.rglob("*.py"))
            ]
        else:
            found = [(path, (path.stem,))]
        for module, parts in found:
            if "tests" in parts or module.resolve() == _SELF:
                continue
            if parts[-1] == "__init__":
                parts = parts[:-1]
            yield module, ".".join(parts)


def _parse(module: pathlib.Path) -> ast.Module:
    return ast.parse(module.read_text(encoding="utf-8"), str(module))


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _exempt(node: ast.AST, in_class: bool) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    if in_class and name.startswith("do_"):
        return True
    return isinstance(node, ast.ClassDef) and any(
        _decorator_name(d) == "register_framework" for d in node.decorator_list
    )


def _definitions(
    body: List[ast.stmt], path: pathlib.Path, prefix: str, in_class: bool
) -> Iterator[Definition]:
    for node in body:
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        qualified = f"{prefix}.{node.name}"
        if not _exempt(node, in_class):
            yield Definition(path, node.lineno, qualified, node.name)
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, path, qualified, True)


def _is_all(node: ast.AST) -> bool:
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module loads or spells in a dotted string."""
    skipped = {
        id(inner)
        for node in ast.walk(tree)
        if _is_all(node)
        for inner in ast.walk(node)
    }
    names: Set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Load, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, (ast.Load, ast.Del)
        ):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def outside_reads(root: pathlib.Path = ROOT) -> Set[str]:
    """Names the use roots and the CI workflow under ``root`` read."""
    names: Set[str] = set()
    for module, _ in _modules([str(root / extra) for extra in USE_ROOTS]):
        names |= _read_names(_parse(module))
    for workflow in sorted((root / WORKFLOWS).glob("*.yml")):
        names.update(_WORD.findall(workflow.read_text(encoding="utf-8")))
    return names


def _kept(definition: Definition, keep: Dict[str, str]) -> bool:
    """Whether ``definition`` or a class enclosing it is in ``keep``."""
    parts = definition.qualified.split(".")
    return any(
        ".".join(parts[:end]) in keep for end in range(1, len(parts) + 1)
    )


def check(
    paths: List[str], keep: Dict[str, str]
) -> Tuple[List[Definition], List[str]]:
    """``(unused definitions, KEEP problems)`` for the tree at ``paths``."""
    definitions: List[Definition] = []
    read = outside_reads()
    for module, dotted in _modules(paths):
        tree = _parse(module)
        definitions.extend(_definitions(tree.body, module, dotted, False))
        read |= _read_names(tree)
    defined = {definition.qualified for definition in definitions}
    problems = [
        f"KEEP entry {name!r} names no definition"
        for name in sorted(keep)
        if name not in defined
    ] + [
        f"KEEP entry {name!r} gives no known reason ({reason!r})"
        for name, reason in sorted(keep.items())
        if reason not in REASONS
    ]
    unused = [
        definition
        for definition in definitions
        if definition.name not in read and not _kept(definition, keep)
    ]
    return unused, problems


def main(argv: List[str]) -> int:
    unused, problems = check(argv or ["src"], KEEP)
    for definition in unused:
        print(
            f"{definition.path}:{definition.line}: {definition.qualified} "
            "is named nowhere outside tests"
        )
    for problem in problems:
        print(problem)
    return 1 if unused or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
