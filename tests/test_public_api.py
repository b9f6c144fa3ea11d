"""The public surface as a user meets it: `keycube.__all__` and README's quickstart.

A name removed from the package but left in `__all__`, or a README example
that calls it, fails here rather than in a user's first session.
"""

import re
from pathlib import Path

import keycube

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from keycube import *", namespace)
    missing = [name for name in keycube.__all__ if name not in namespace]
    assert not missing
    assert all(namespace[name] is getattr(keycube, name) for name in keycube.__all__)


def test_readme_quickstart_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").partition("## Library quickstart")[2]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no Python quickstart block"
    exec(compile(block[1], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("('cid-1',) ")
