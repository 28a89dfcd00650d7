"""The runtime package as a whole: what it imports, and what others import
from it."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import cqcount

PACKAGE_DIR = Path(cqcount.__file__).parent
REPO_DIR = Path(__file__).resolve().parent.parent


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


def cq_attributes(source: str) -> set[str]:
    """Names read as `cq.<name>`."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cq"
    }


def readme_library_imports() -> set[str]:
    """Names the README's "Library" example imports from cqcount."""
    readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    return {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "cqcount"
        for alias in node.names
    }


def test_cq_attributes_sees_reads_on_cq_only():
    assert cq_attributes("cq.a(x.b, cq.c.d)\ny = cqq.e\n") == {"a", "c"}


def test_names_the_benchmark_and_the_readme_use_resolve():
    used = readme_library_imports()
    assert used
    for name in ("workloads.py", "run.py"):
        found = cq_attributes((REPO_DIR / "perfbench" / name).read_text(encoding="utf-8"))
        assert found, name
        used |= found
    assert sorted(n for n in used if not hasattr(cqcount, n)) == []
