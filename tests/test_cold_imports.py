"""A fresh `icosian` run loads only the modules its command reads.

`import icosian.cli` loads the command line front end alone, and each
command imports its layers inside its own function; so does each check of
the registry.  No command imports ``fractions``, ``decimal`` or ``numbers``.  These
checks run fresh interpreters, since the test session has every module
loaded already.  No module of the package imports dataclasses: its import
pulls in inspect, and each decorated class compiles its methods by exec on
every import.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from icosian import checks

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
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1])) if sys.argv[1] != "null" else None
print(json.dumps({"before": before, "after": loaded(), "code": code,
                  "stdout": out.getvalue(), "modules": sorted(sys.modules)}))
"""


GOLD_OPS_SCRIPT = """\
import json
from icosian.goldnum import Gold
calls = []
def counted(name, method):
    def wrapper(*args):
        calls.append(name)
        return method(*args)
    return wrapper
for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "inverse"):
    setattr(Gold, name, counted(name, getattr(Gold, name)))
import icosian.quat
print(json.dumps(calls))
"""


GOLD_SITES_SCRIPT = """\
import collections, contextlib, importlib, io, json, os, pkgutil, sys
import icosian
for m in pkgutil.iter_modules(icosian.__path__):
    importlib.import_module("icosian." + m.name)
from icosian.cli import main
from icosian.goldnum import Gold
sites = collections.Counter()
init = Gold.__init__
def counted(self, *args):
    # the first function outside the layers that build Golds on request
    f = sys._getframe(1)
    while (os.path.basename(f.f_code.co_filename) in ("goldnum.py", "quat.py")
           or f.f_code.co_name.startswith("<")):
        f = f.f_back
    sites[os.path.basename(f.f_code.co_filename) + ":" + f.f_code.co_name] += 1
    init(self, *args)
Gold.__init__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "sites": sites}))
"""


def fresh_python(script: str, *args: str):
    """What a fresh interpreter running the script prints, read as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, *args],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def fresh_run(argv) -> dict:
    """A fresh interpreter's run of main(argv) (argv None runs no command):
    the package modules loaded after `import icosian.cli` ("before") and
    after the command ("after"), its exit code, what it printed, and every
    module loaded at the end."""
    return fresh_python(SCRIPT, json.dumps(argv))


def package_modules(argv):
    """(modules after `import icosian.cli`, modules after main(argv), exit
    code) in a fresh interpreter; argv None runs no command."""
    run = fresh_run(argv)
    return run["before"], run["after"], run["code"]


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


def test_verify_only_coincidence_loads_no_exact_layer():
    run = fresh_run(["verify", "--only", "coincidence", "--json"])
    exact = {f"icosian.{m}" for m in ("reflgroup", "groupkit", "goldnum", "quat",
                                     "qmat2", "chars", "census", "spans")}
    assert exact.isdisjoint(run["after"])
    assert "icosian.coincidence" in run["after"]
    # the same report as the registry gives with every layer loaded
    report = checks.run_checks("coincidence")
    assert run["code"] == (0 if report.ok else 1)
    assert json.loads(run["stdout"]) == json.loads(json.dumps(report.to_json()))


@pytest.mark.parametrize("argv", [["verify", "--json"], ["table", "--json"],
                                  ["roots", "--full", "--json"]], ids=" ".join)
def test_commands_import_no_fractions_or_decimal(argv):
    run = fresh_run(argv)
    assert run["code"] == (1 if argv[0] == "verify" else 0)
    assert {"fractions", "decimal", "numbers"}.isdisjoint(run["modules"])


def test_importing_quat_makes_no_gold_arithmetic():
    # the scalars are written from literal Golds, so the import only builds them
    assert fresh_python(GOLD_OPS_SCRIPT) == []


@pytest.mark.parametrize("argv", [
    ["verify", "--json"], ["branch", "--max-two-j", "24", "--json"],
    ["decompose", "2b", "4b", "--json"], ["roots", "--full", "--json"],
    ["orbits", "--json"], ["algebra", "--json"], ["table", "--json"],
], ids=" ".join)
def test_views_build_golds_only_to_print_the_table(argv):
    # every exact product multiplies two values of one class and every
    # inner product runs on integers, so after import a cold view builds no
    # Gold, except that table prints each character value as one
    run = fresh_python(GOLD_SITES_SCRIPT, json.dumps(argv))
    assert run["code"] == (1 if argv[0] == "verify" else 0)
    printing = {"cli.py:cmd_table", "chars.py:to_json"} if argv[0] == "table" else set()
    assert set(run["sites"]) == printing


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
