"""The runtime package as a whole: what it imports."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import cqcount

PACKAGE_DIR = Path(cqcount.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_foreign_imports_sees_absolute_imports_only():
    src = "import os.path, numpy\nfrom . import x\nfrom .a import b\nfrom scipy import c\n"
    assert foreign_imports(src) == ["numpy", "scipy"]


def test_runtime_package_is_pure_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    for path in modules:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name
