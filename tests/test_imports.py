"""Package layout: every module of the package, and every test module, imports
the package's modules at module level; only the CLI formats output files;
every function the benchmark's spans wrap exists."""

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


class _WriteOpens(ast.NodeVisitor):
    """(line, dotted enclosing class and function names) of each open() call
    whose mode writes; a mode that is not a literal counts as writing."""

    def __init__(self):
        self.scope, self.found = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if modes and not (isinstance(modes[0], ast.Constant)
                              and set(str(modes[0].value)).isdisjoint("wax+")):
                self.found.append((node.lineno, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_the_cli_writes_files():
    # the solver modules return tables and records and cli formats the files;
    # model.write_json serves every save_*, and the Monte Carlo sample stream
    # (up to 10^6 rows) is written one chunk at a time as it is drawn
    allowed = {"model.write_json", "capopt.monte_carlo_search"}
    writes = []
    for path in sorted(Path(drayage.__file__).parent.glob("*.py")):
        visitor = _WriteOpens()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        writes += [(f"{path.stem}.{fn}", line) for line, fn in visitor.found]
    assert {name for name, _ in writes} >= allowed  # the visitor sees the writers it allows
    stray = [(name, line) for name, line in writes
             if name not in allowed and not name.startswith("cli.")]
    assert stray == []


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
