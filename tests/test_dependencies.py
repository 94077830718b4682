"""The declared dependencies are exactly the third-party modules the package
imports, function-local imports included."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "subguard"


def imported_modules():
    """Top-level names of every absolute import in the package's modules."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared_names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in declared}
    third_party = {name for name in imported_modules()
                   if name not in sys.stdlib_module_names and name != "subguard"}
    assert third_party == declared_names == {"numpy"}
