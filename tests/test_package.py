"""Packaging: numpy is the package's only runtime dependency."""

import ast
import pathlib
import sys

import pytest

import snakedqn

SOURCES = sorted(pathlib.Path(snakedqn.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {name for name in imported
               if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert not outside, f"{path.name} imports {sorted(outside)}"
