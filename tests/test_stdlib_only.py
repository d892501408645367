"""The runtime depends on the standard library alone, as the README says:
every import in src/ctxlib is relative, of ctxlib itself, or of a standard
library module.  Every module also parses as Python 3.10, the oldest
version that pyproject.toml allows."""

import ast
import sys
from pathlib import Path

import ctxlib

SRC = Path(ctxlib.__file__).parent


def imported_roots(path):
    """The top-level module names that a source file imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_ctxlib_or_stdlib():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    outside = {(path.name, root) for path in modules
               for root in imported_roots(path)
               if root != "ctxlib" and root not in sys.stdlib_module_names}
    assert outside == set()


def test_every_module_parses_as_python_3_10():
    """No module uses syntax newer than 3.10.  Calls that the standard
    library gained after 3.10 are not caught."""
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))
