"""Every exception type in `keycube/errors.py` is used elsewhere in `src/`.

An error class that no other module names, as `Foo` or `errors.Foo`, is
raised, caught and re-raised by nothing: it is dead. The base classes
`KeycubeError` and `GovernanceError` are exempt, since they exist to be
subclassed and caught. The standard library's `ast` alone does the check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ERRORS = ROOT / "src" / "keycube" / "errors.py"
BASES = {"KeycubeError", "GovernanceError"}


def names_used(path: Path) -> set[str]:
    """Every name `path` loads, bare or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_error_types(errors: Path, others: list[Path]) -> list[str]:
    """The classes `errors` defines, bases apart, that no module of `others` uses."""
    tree = ast.parse(errors.read_text(encoding="utf-8"), filename=str(errors))
    used = set().union(*map(names_used, others))
    return [node.name for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name not in BASES | used]


def test_an_unused_error_type_is_found(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class KeycubeError(Exception): pass\n"
                      "class Raised(KeycubeError): pass\nclass Caught(KeycubeError): pass\n"
                      "class Dead(KeycubeError): pass\n")
    user = tmp_path / "user.py"
    user.write_text("import errors\nfrom errors import Raised, Dead\n"
                    "try:\n    raise Raised()\nexcept errors.Caught:\n    pass\n")
    assert unused_error_types(errors, [user]) == ["Dead"]


def test_every_error_type_is_used_outside_errors():
    others = [path for path in sorted((ROOT / "src").rglob("*.py")) if path != ERRORS]
    assert ERRORS.exists() and others
    assert unused_error_types(ERRORS, others) == []
