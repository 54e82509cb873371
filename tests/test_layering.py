"""The package's import layers: search modules and problems depend on core only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grasppr"

LAYERS = {
    "construction": {"core"},
    "local_search": {"core"},
    "path_relinking": {"core"},
    "elite_set": {"core"},
    "lop": {"core", "construction"},
    "maxcut": {"core", "construction"},
}


def _package_imports(module: str) -> set[str]:
    """The grasppr modules that module imports anywhere in its source; an
    absolute import of the package appears under its full name, in no layer."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import ... / from . import x
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("grasppr"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name.startswith("grasppr"))
    return found


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layers(module):
    assert _package_imports(module) <= LAYERS[module]


def test_scan_sees_relative_imports():
    assert _package_imports("drivers") >= {"construction", "core", "local_search", "path_relinking"}
