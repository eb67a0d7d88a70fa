import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import murmurations

MODULES = sorted(m.name for m in pkgutil.iter_modules(murmurations.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"murmurations.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_package_imports_are_exported():
    # every name the package re-exports is public in its module
    tree = ast.parse(Path(murmurations.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"murmurations.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(murmurations, alias.asname or alias.name) is getattr(module, alias.name)
