"""The reference routines stay independent of the package they check."""

import ast
import sys
from pathlib import Path

import adjointalg.oracle


def _imports():
    tree = ast.parse(Path(adjointalg.oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


def test_oracle_imports_only_the_standard_library():
    imports = list(_imports())
    assert imports, "expected the oracle to import at least one module"
    assert all(level == 0 for level, _ in imports), "relative import in the oracle"
    tops = {name.split(".")[0] for _, name in imports}
    assert "adjointalg" not in tops
    assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names
