"""Every public name the package declares, or the benchmark traces, must resolve."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import survrake
from survrake.cohort import CohortData
from survrake.cox import CoxOptions, fit_cox

ROOT = Path(__file__).resolve().parents[1]


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
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, *_ in spans.TARGETS:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module_name, f"{module_name}.{attr}"
    for attr in spans.COHORT_METHODS:
        assert inspect.isfunction(CohortData.__dict__.get(attr)), f"CohortData.{attr}"
    # spans._fit_name tells a dfbeta fit from a plain one by reading
    # compute_dfbetas from fit_cox's second argument, passed either way.
    assert list(inspect.signature(fit_cox).parameters)[1] == "options"
    assert "compute_dfbetas" in {f.name for f in dataclasses.fields(CoxOptions)}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line} {name}"
        for name, line in bound.items()
        if name not in used and name not in exported
    ]


def test_no_unused_module_imports():
    # __init__.py imports exist to re-export, so it is exempt.
    paths = [
        p for p in sorted((ROOT / "src" / "survrake").glob("*.py")) if p.name != "__init__.py"
    ]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, f"module-level imports never used: {unused}"
