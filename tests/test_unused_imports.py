"""No module of the package imports a name it never uses.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library's ``ast``.  ``__init__.py`` is skipped: its
imports are the package's exports.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted(p for p in (REPO_ROOT / "src" / "hvguard").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_name():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["line 1: os", "line 2: c"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
