"""Import layering: every module of the package imports only the modules
below it, and only at module level."""

import ast
from pathlib import Path

import pytest

import prcodes

PACKAGE = Path(prcodes.__file__).parent
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
