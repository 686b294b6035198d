"""A fresh `icosian` run loads only the modules its command reads.

`import icosian.cli` loads the command line front end alone, and each
command imports its layers inside its own function.  These checks run fresh
interpreters, since the test session has every module loaded already.  No
module of the package imports dataclasses: its import pulls in inspect, and
each decorated class compiles its methods by exec on every import.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "icosian"
MODULES = sorted(PACKAGE.glob("*.py"))

SCRIPT = """\
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "icosian" or m.startswith("icosian."))
from icosian.cli import main
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1])) if sys.argv[1] != "null" else None
print(json.dumps([before, loaded(), code]))
"""


def package_modules(argv):
    """(modules after `import icosian.cli`, modules after main(argv), exit
    code) in a fresh interpreter; argv None runs no command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_import_cli_loads_only_the_cli():
    before, after, _ = package_modules(None)
    assert before == after == ["icosian", "icosian.cli"]


def test_coincidence_loads_only_its_module():
    before, after, code = package_modules(["coincidence", "--json"])
    assert code == 0
    assert set(after) - set(before) == {"icosian.coincidence"}


@pytest.mark.parametrize("argv", [["table", "--json"], ["branch", "--json"],
                                  ["decompose", "2b", "4b"]], ids=" ".join)
def test_character_views_load_no_registry_census_spans_or_coincidence(argv):
    _, after, code = package_modules(argv)
    assert code == 0
    assert "icosian.chars" in after
    unused = {f"icosian.{m}" for m in ("checks", "census", "spans", "coincidence")}
    assert unused.isdisjoint(after)


def dataclass_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "dataclasses" for a in node.names):
            found.append(f"line {node.lineno}: import dataclasses")
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(f"line {node.lineno}: from dataclasses import")
    return found


def test_modules_found():
    assert {"cli.py", "quat.py", "checks.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert dataclass_imports(ast.parse(path.read_text(), str(path))) == []


def test_scanner_flags_each_form():
    src = ("import dataclasses\nfrom dataclasses import dataclass\n"
           "def f():\n    import dataclasses as dc\n")
    assert len(dataclass_imports(ast.parse(src))) == 3
    assert dataclass_imports(ast.parse("import dataclasses_json\n")) == []
