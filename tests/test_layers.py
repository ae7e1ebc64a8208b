"""Import layering: every module of the package imports only the modules
below it, only their public names, and only at module level; only
errors.check_k refuses a size; every function the bench harness traces
still exists; every function and class of the package has a user; and
importing the CLI loads none of the modules that the package imports
lazily."""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import prcodes

PACKAGE = Path(prcodes.__file__).parent
BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# lowest layer first; a module may import only the ones before it
ORDER = ["errors", "gf2", "construct", "weights", "bounds", "awgn", "cli"]


def _tree(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(node):
    """(module, name) for each package import in an import node: module is
    a layer name, or "" for the package itself with the imported name."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            head, _, rest = alias.name.partition(".")
            if head == "prcodes":
                yield rest.split(".")[0], alias.name
        return
    if not isinstance(node, ast.ImportFrom):
        return
    if node.level:
        module = node.module or ""
    elif node.module and node.module.split(".")[0] == "prcodes":
        module = node.module.partition(".")[2]
    else:
        return
    module = module.split(".")[0]
    for alias in node.names:
        if module or alias.name not in ORDER:
            yield module, alias.name
        else:
            yield alias.name, alias.name  # from . import gf2


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_imports_only_lower_layers(name):
    below = set(ORDER[:ORDER.index(name)])
    for node in ast.walk(_tree(name)):
        for module, imported in _package_imports(node):
            if module == "" and name == "cli":
                assert imported == "__version__", f"cli imports {imported!r} from the package"
                continue
            assert module in below, f"{name} imports {module or 'the package'} (line {node.lineno})"


@pytest.mark.parametrize("name", ["__init__", *ORDER])
def test_no_function_level_package_import(name):
    for fn in ast.walk(_tree(name)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                assert not list(_package_imports(node)), (
                    f"{name}.{fn.name} imports from the package at line {node.lineno}"
                )


def _range_error_raises(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "UnsupportedRangeError":
                yield node.lineno


@pytest.mark.parametrize("name", ORDER)
def test_only_check_k_raises_range_errors(name):
    """Every size refusal goes through errors.check_k, so the size table in
    errors is the one place a limit is set."""
    tree = _tree(name)
    lines = list(_range_error_raises(tree))
    if name == "errors":
        (check_k,) = [f for f in tree.body
                      if isinstance(f, ast.FunctionDef) and f.name == "check_k"]
        assert lines == list(_range_error_raises(check_k)) and len(lines) == 1
    else:
        assert not lines, f"{name} raises UnsupportedRangeError itself at line(s) {lines}"


def _traced():
    """bench/spans.py's TRACED table, {module: names}, read from the source
    without importing the bench."""
    tree = ast.parse(BENCH_SPANS.read_text(), filename=str(BENCH_SPANS))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    return ast.literal_eval(table)


def test_bench_traced_functions_exist():
    """The bench's tracer wraps each name in bench/spans.py's TRACED table by
    getattr on its module, so a deleted or renamed one breaks every traced
    run."""
    missing = [f"{module}.{name}" for module, names in _traced().items() for name in names
               if not callable(getattr(importlib.import_module(f"prcodes.{module}"), name, None))]
    assert not missing, f"bench/spans.py traces missing functions: {missing}"


def _reads(node):
    """How often each name is read under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_package_function_has_a_user():
    """Each module-level def or class is read somewhere else in the package,
    exported by __init__, or traced by the bench; code that only tests run
    belongs in tests/util.py."""
    trees = {name: _tree(name) for name in ORDER}
    reads = sum(map(_reads, trees.values()), Counter())
    exported = {alias.name for node in _tree("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    traced = {(module, name) for module, names in _traced().items() for name in names}
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in exported and (module, node.name) not in traced
              and reads[node.name] == _reads(node)[node.name]]
    assert not unused, f"package functions with no user: {unused}"


def test_cli_import_loads_no_lazy_module():
    """Import time is most of a command's setup, so the modules that only
    some paths need (awgn.simulate_wer's process pool among them) are
    imported inside those paths, not when the CLI loads."""
    lazy = ["asyncio", "concurrent.futures", "decimal", "fractions", "multiprocessing",
            "subprocess"]
    probe = f"import sys, prcodes.cli; print([m for m in {lazy!r} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, cwd=PACKAGE.parent)
    assert done.stdout.strip() == "[]", done.stdout


def test_modules_import_only_public_names():
    """A module reads only the public names of the layers below it, so a
    private helper has its callers in its own module; and awgn reaches the
    codewords through construct's span alone, importing nothing from gf2's
    sequences or weights' kernels."""
    private, awgn_sources = [], set()
    for name in ["__init__", *ORDER]:
        for node in ast.walk(_tree(name)):
            for module, imported in _package_imports(node):
                leaf = imported.rpartition(".")[2]
                if leaf.startswith("_") and not leaf.endswith("__"):
                    private.append(f"{name} imports {module}.{leaf} (line {node.lineno})")
                if name == "awgn":
                    awgn_sources.add(module)
    assert not private, private
    assert not awgn_sources & {"gf2", "weights"}, sorted(awgn_sources)
