"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sincov"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_dependencies_stay_at_zero():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    imported = {
        (path.name, name.partition(".")[0]) for path in sources for name in absolute_imports(path)
    }
    assert imported
    assert [item for item in sorted(imported) if item[1] not in sys.stdlib_module_names] == []
