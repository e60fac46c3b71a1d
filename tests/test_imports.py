"""Import hygiene: a name imported at the top level of a package module and
never used there is a leftover, usually from a deletion. So is a private
helper or an instance attribute that nothing reads."""

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


def private_definitions(tree: ast.Module):
    """Module-level `_name` functions, classes and constants (not dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_used():
    """A private helper no module of the package reads is dead code, as a
    layout helper left behind by the change that replaced it would be."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(shadowstorm.__file__).parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = [f"{module}:{name}" for module, tree in sorted(trees.items())
              for name in private_definitions(tree) if name not in read]
    assert unused == []


def instance_attributes(tree: ast.Module):
    """Names `n` of every `self.n` that is assigned to."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            yield node.attr


def test_every_instance_attribute_is_read():
    """An attribute that the package sets and that no module of the package,
    its tests or its benchmark reads, as an attribute or by its name in a
    string (`getattr`), is dead state."""
    root = Path(shadowstorm.__file__).parent
    readers = [*root.glob("*.py"), *Path(__file__).parent.glob("*.py"),
               *(Path(__file__).parent.parent / "perfbench").glob("*.py")]
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
    unread = sorted({f"{path.name}:{name}" for path in root.glob("*.py")
                     for name in instance_attributes(
                         ast.parse(path.read_text(encoding="utf-8")))
                     if name not in read})
    assert unread == []
