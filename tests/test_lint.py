"""Checks of the source text that stand in for a linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "herisson").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name a module imports and never references; its __all__ counts as use."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = [(str(path.relative_to(ROOT)), *entry) for path in SOURCES for entry in unused_imports(path)]
    assert found == []


def test_unused_imports_are_found(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom a import b, c as d\nfrom e import f\n"
        "__all__ = ['f']\n"
        "np.zeros(d)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "b")]
