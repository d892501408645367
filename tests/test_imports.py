"""Each `ctx` verb imports the library modules it runs inside its own
function.  A name whose import was missed fails only when its branch runs,
so every function's global names are checked statically here, and the
modules a few verbs load are pinned in fresh interpreters."""

import builtins
import importlib
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import ctxlib
import ctxlib.cli
from conftest import CHSH_CONTEXTS, PR_BOX_TABLE, standard

SRC = Path(ctxlib.__file__).parent


def scopes(table):
    """Every scope nested in a symbol table: functions, lambdas,
    comprehensions and classes."""
    for child in table.get_children():
        yield child
        yield from scopes(child)


def unresolved_globals(path):
    """(scope, name) for every global name a scope of the module references
    that is neither an attribute of the imported module nor a builtin."""
    module = importlib.import_module(
        "ctxlib" if path.stem == "__init__" else "ctxlib." + path.stem)
    top = symtable.symtable(path.read_text(), str(path), "exec")
    return {(scope.get_name(), sym.get_name())
            for scope in scopes(top) for sym in scope.get_symbols()
            if sym.is_global() and sym.is_referenced()
            and not hasattr(module, sym.get_name())
            and not hasattr(builtins, sym.get_name())}


def unused_imports(path):
    """The names a module imports at its top level that no scope of it
    references as a global."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    used = {sym.get_name() for scope in (top, *scopes(top))
            for sym in scope.get_symbols()
            if sym.is_referenced() and (scope is top or sym.is_global())}
    return {sym.get_name() for sym in top.get_symbols()
            if sym.is_imported() and sym.get_name() not in used}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_global_name_resolves(path):
    assert unresolved_globals(path) == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == set()


def test_missed_import_is_flagged(tmp_path):
    cli = (SRC / "cli.py").read_text()
    line = "    from .events import tensor_event\n"
    assert line in cli
    broken = tmp_path / "cli.py"
    broken.write_text(cli.replace(line, ""))
    assert unresolved_globals(broken) == {("cmd_tensor", "tensor_event")}


def loaded_modules(tmp_path, code):
    """The ctxlib modules loaded after running code in a fresh interpreter
    whose working directory is tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    script = code + ("\nimport json, sys\nprint(json.dumps([m for m in "
                     "sys.modules if m.split('.')[0] == 'ctxlib']))")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


def test_cli_import_loads_only_errors(tmp_path):
    assert loaded_modules(tmp_path, "import ctxlib.cli") == \
        {"ctxlib", "ctxlib.cli", "ctxlib.errors"}


def test_solve_does_not_load_sset(tmp_path):
    assert "ctxlib.sset" not in loaded_modules(tmp_path, "import ctxlib.solve")


def run_cli(argv):
    return "import ctxlib.cli\nassert ctxlib.cli.main(%r) in (0, 2)" % argv


@pytest.mark.parametrize("verb", [["check"],
                                  ["verify-certificate", "verdict.json"]],
                         ids=lambda verb: verb[0])
def test_check_loads_no_simplicial_or_law_modules(tmp_path, verb):
    (tmp_path / "chsh.json").write_text(
        json.dumps(standard(CHSH_CONTEXTS).to_json()))
    (tmp_path / "pr.json").write_text(
        json.dumps({"kind": "model", "distributions": PR_BOX_TABLE}))
    inputs = ["--scenario", str(tmp_path / "chsh.json"),
              "--model", str(tmp_path / "pr.json")]
    assert ctxlib.cli.main(
        ["check", *inputs, "-o", str(tmp_path / "verdict.json")]) == 2
    loaded = loaded_modules(tmp_path, run_cli(
        verb + inputs + ["-o", "out.json"]))
    assert "ctxlib.solve" in loaded
    assert not loaded & {"ctxlib.sset", "ctxlib.laws", "ctxlib.rand",
                         "ctxlib.bundles"}


def test_event_map_loads_neither_solve_nor_sset(tmp_path):
    (tmp_path / "f.json").write_text(json.dumps(standard([["a"]]).to_json()))
    (tmp_path / "g.json").write_text(
        json.dumps(standard([["u", "v"]]).to_json()))
    loaded = loaded_modules(tmp_path, run_cli(
        ["map", "--kind", "event", "f.json", "g.json", "-o", "out.json"]))
    assert "ctxlib.events" in loaded
    assert not loaded & {"ctxlib.solve", "ctxlib.sset"}
