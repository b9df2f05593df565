"""Package layout: every module of the package, and every test module, imports
the package's modules at module level."""

import ast
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
