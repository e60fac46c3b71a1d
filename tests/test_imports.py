"""Import hygiene: a name imported at the top level of a package module and
never used there is a leftover, usually from a deletion."""

import ast
from pathlib import Path

import pytest

import shadowstorm

MODULES = sorted(path for path in Path(shadowstorm.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")  # re-exports are its purpose


def top_level_imports(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in top_level_imports(tree) if name not in used] == []


def test_package_root_exports_exactly_its_imports():
    """`__all__` names what `__init__.py` imports, no more and no less, so
    removing a public name cannot leave a stale re-export or entry."""
    tree = ast.parse(Path(shadowstorm.__file__).read_text(encoding="utf-8"))
    assert sorted(top_level_imports(tree)) == sorted(shadowstorm.__all__)
