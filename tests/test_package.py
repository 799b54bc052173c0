"""The package's public names: each module's ``__all__`` and the names
``grafold/__init__.py`` imports must all be defined, so a name left behind
after its definition is deleted fails here rather than at a user's
``from grafold.x import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import grafold

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(grafold.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"grafold.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(grafold.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"grafold.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"grafold.{node.module}.{alias.name}"
            assert getattr(grafold, alias.asname or alias.name) is getattr(module, alias.name)
