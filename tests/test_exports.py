"""Every public name the package declares must resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import survrake


def test_module_exports_resolve():
    for info in pkgutil.iter_modules(survrake.__path__):
        module = importlib.import_module(f"survrake.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"survrake.{info.name}.__all__ names missing {missing}"


def test_package_reexports_resolve_and_are_declared():
    tree = ast.parse(Path(survrake.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"survrake.{node.module}")
        declared = getattr(module, "__all__", None)
        for alias in node.names:
            where = f"survrake.{node.module}.{alias.name}"
            assert hasattr(module, alias.name), where
            assert declared is None or alias.name in declared, f"{where} not in __all__"
