"""Every imported name is used.

Each `.py` file under `src/`, `tests/` and `demos/` is parsed with `ast`. A
name that an `import` binds must be loaded somewhere in the same module;
the names in `keycube/__init__.py`'s `__all__` count as loaded, since
exporting them is that module's job. The standard library alone does the
check, so no lint tool is needed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name an import in `path` binds and the module never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif (isinstance(node, ast.Assign) and path.name == "__init__.py"
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            loaded.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def test_the_scan_covers_every_tree():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "demos"}
    assert ROOT / "src" / "keycube" / "__init__.py" in SOURCES


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "example.py"
    module.write_text("from __future__ import annotations\nimport os\nimport os.path as osp\n"
                      "from json import dumps, loads\nloads(osp.sep)\n")
    assert unused_imports(module) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path) == []
