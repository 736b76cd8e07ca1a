"""Every public name the package declares, or the benchmark traces, must resolve."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import survrake
from survrake.cohort import CohortData


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


def test_benchmark_tracer_targets_resolve():
    # perfbench/spans.py wraps these functions by module and name; without
    # this check a renamed or deleted one fails only in a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, *_ in spans.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module_name, f"{module_name}.{attr}"
    for attr in spans.COHORT_METHODS:
        assert inspect.isfunction(CohortData.__dict__.get(attr)), f"CohortData.{attr}"
