"""Every name an example imports from ``repro`` still exists.

The examples are scripts, not tests, so a deleted library name would
otherwise surface only when someone runs them.  This parses each
``examples/*.py`` without executing it and resolves its ``repro``
imports.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path):
    """(module, name-or-None) for each ``repro`` import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro" or node.module.startswith("repro."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, None


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from repro.pkg import submodule`` names a module, not an attribute.
        submodule = f"{module_name}.{name}"
        assert importlib.util.find_spec(submodule), f"{path.name}: {module_name} has no {name}"
