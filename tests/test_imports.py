"""Module boundaries of the package."""

import ast
from pathlib import Path

import cutdg

PACKAGE = Path(cutdg.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its own module."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("cutdg"):
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert offenders == []
