"""``scripts/check_imports.py``: the unused-import check CI runs on src/."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "check_imports", ROOT / "scripts" / "check_imports.py"
)
check_imports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_imports)

PLANTED = '''\
from __future__ import annotations

import os
import json  # noqa: F401
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["OrderedDict"]


def total(values: "Optional[Decimal]") -> List[int]:
    return []
'''


def test_src_has_no_unused_imports(capsys):
    assert check_imports.main([str(ROOT / "src")]) == 0
    assert capsys.readouterr().out == ""


def test_the_rest_of_the_repo_has_no_unused_imports(capsys):
    roots = ("scripts", "benchmarks", "examples", "tests")
    assert check_imports.main([str(ROOT / root) for root in roots]) == 0
    assert capsys.readouterr().out == ""


def test_planted_imports_are_reported(tmp_path, capsys):
    module = tmp_path / "planted.py"
    module.write_text(PLANTED)
    # Package re-exports are not checked.
    (tmp_path / "__init__.py").write_text("import sys\n")
    assert check_imports.main([str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{module}:3: os imported but unused",
        f"{module}:6: Dict imported but unused",
    ]
