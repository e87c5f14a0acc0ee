"""The package root re-exports exactly what its users import.

Users are the README, the demos, the tools and the benchmark.  Each name
they take from ``adplan`` must be in ``adplan.__all__``, and each name in
``__all__`` must have at least one such user, so the public surface cannot
drift from what is actually used.
"""

from __future__ import annotations

import ast
import pkgutil
import re
from pathlib import Path

import adplan

ROOT = Path(__file__).resolve().parent.parent
USER_DIRS = ("demos", "tools", "perfbench")
SUBMODULES = {m.name for m in pkgutil.iter_modules(adplan.__path__)}


def names_in_code(source: str) -> set[str]:
    """Names taken by ``from adplan import ...`` or read as ``adplan.name``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "adplan" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "adplan"
        ):
            names.add(node.attr)
    return names - SUBMODULES


def names_in_readme(text: str) -> set[str]:
    names = set(re.findall(r"\badplan\.([A-Za-z_]\w*)", text)) - SUBMODULES
    for block in re.findall(r"```python\n(.*?)```", text, flags=re.S):
        names |= names_in_code(block)
    return names


def public_users() -> dict[str, set[str]]:
    """Map each name taken from the package root to the files that take it."""
    users: dict[str, set[str]] = {}
    sources = [(ROOT / "README.md", names_in_readme((ROOT / "README.md").read_text("utf-8")))]
    for folder in USER_DIRS:
        for path in sorted((ROOT / folder).glob("*.py")):
            sources.append((path, names_in_code(path.read_text("utf-8"))))
    for path, names in sources:
        for name in names:
            users.setdefault(name, set()).add(str(path.relative_to(ROOT)))
    return users


def test_parsers_see_both_import_forms():
    code = "import adplan\nfrom adplan import (a,\n    b)\nfrom adplan import ga\nadplan.c()\nadplan.bench.x\n"
    assert names_in_code(code) == {"a", "b", "c"}
    readme = "Use `adplan.d` or `adplan.ga`.\n```python\nfrom adplan import e\n```\n"
    assert names_in_readme(readme) == {"d", "e"}


def test_every_imported_name_is_exported():
    users = public_users()
    missing = {name: sorted(files) for name, files in users.items() if name not in adplan.__all__}
    assert missing == {}


def test_every_exported_name_has_a_user():
    assert sorted(set(adplan.__all__) - set(public_users())) == []


def test_exports_resolve():
    assert len(set(adplan.__all__)) == len(adplan.__all__)
    assert all(hasattr(adplan, name) for name in adplan.__all__)
