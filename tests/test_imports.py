"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nega3"


def _unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports, other than __future__
    features, that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(path):
    assert _unused_imports((_PACKAGE / path).read_text()) == []


def test_an_unused_import_is_named():
    source = "from .gf3 import Code, _dual_rows\nimport numpy as np\n\nx: Code = np.zeros(1)\n"
    assert _unused_imports(source) == ["_dual_rows (line 1)"]
