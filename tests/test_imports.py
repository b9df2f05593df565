"""Package layout: every module of the package, and every test module, imports
the package's modules at module level; every function the benchmark's spans
wrap exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import drayage


def _package_imports_in_functions(path):
    """(line, function) of each import of a drayage module inside a function body."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                ours = node.level > 0 or (node.module or "").split(".")[0] == "drayage"
            elif isinstance(node, ast.Import):
                ours = any(a.name.split(".")[0] == "drayage" for a in node.names)
            else:
                continue
            if ours:
                found.append((node.lineno, fn.name))
    return found


def test_no_function_local_package_imports():
    # a function-local import hides an import cycle between modules
    modules = sorted(Path(drayage.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = {p.name: hits for p in modules if (hits := _package_imports_in_functions(p))}
    assert found == {}


def test_no_function_local_package_imports_in_tests():
    # a test that imports inside its body hides what the suite depends on
    modules = sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) > 5
    found = {p.name: hits for p in modules if (hits := _package_imports_in_functions(p))}
    assert found == {}


def test_bench_spans_name_package_functions():
    # bench/spans.py wraps these by name; a renamed or deleted function would
    # leave its per-layer span silently empty
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [
        f"{mod}.{fn}"
        for mod, fns in spans.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"drayage.{mod}"), fn, None))
    ]
    assert missing == []
