"""Every name the package exports resolves, so a deleted symbol cannot linger
in an `__all__` list or in the package's own imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ikod

MODULES = sorted(m.name for m in pkgutil.iter_modules(ikod.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"ikod.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve_to_the_module_objects():
    tree = ast.parse(Path(ikod.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"ikod.{node.module}")
        for alias in node.names:
            assert getattr(ikod, alias.asname or alias.name) is getattr(module, alias.name)
