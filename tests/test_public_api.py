"""`import dhsim` exports exactly the names of README's "Public API" table.

Each row names one export and the module that defines it.  A name
exported but not documented, documented but not exported, or documented
under the wrong module fails here.
"""
import ast
import importlib
import re
from pathlib import Path

import dhsim

README = Path(__file__).resolve().parents[1] / "README.md"


def api_rows() -> list[tuple[str, str]]:
    """(name, module) per row of the table, in README order."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \| `([\w.]+)` \|", section, flags=re.MULTILINE)


def test_exports_equal_readme_api_table():
    names = [name for name, _ in api_rows()]
    assert len(names) == len(set(names)), "a name has two rows"
    assert sorted(names) == dhsim.__all__


def test_each_documented_name_resolves_in_its_module():
    wrong = [
        f"{module}.{name}"
        for name, module in api_rows()
        if getattr(importlib.import_module(module), name, None) is not getattr(dhsim, name, 0)
    ]
    assert wrong == []


def test_each_export_is_imported_once():
    tree = ast.parse(Path(dhsim.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(name for name in imported if not name.startswith("_")) == dhsim.__all__
