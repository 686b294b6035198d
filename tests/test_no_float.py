"""Floating point lives in the coincidence module only.

Scans the syntax tree of every other module of the package for float
literals, float() calls, true division and uses of the math module (only
its integer functions may be imported by name).  No exact type of the
package divides with /, so true division is flagged in every module: an
int / int slip makes a float that no literal shows.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "icosian"
INTEGER_MATH = {"gcd", "lcm", "isqrt", "comb", "perm", "factorial", "prod"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "coincidence.py")


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{where}: float() call")
        elif isinstance(node, ast.Import) and any(
                a.name == "math" for a in node.names):
            found.append(f"{where}: import math")
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(a.name not in INTEGER_MATH for a in node.names)):
            found.append(f"{where}: non-integer import from math")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            found.append(f"{where}: math.{node.attr}")
    return found


def test_modules_found():
    names = {p.name for p in MODULES}
    assert {"goldnum.py", "quat.py", "chars.py", "checks.py", "cli.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_outside_coincidence(path):
    tree = ast.parse(path.read_text(), str(path))
    assert float_uses(tree) == []


def test_scanner_flags_each_kind():
    src = ("import math\nfrom math import sin\nx = 0.5\ny = float(1)\n"
           "z = math.pi\nfrom math import gcd\nw = x / 2\nw /= 3\nv = x // 2\n")
    kinds = [f.split(": ", 1)[1] for f in float_uses(ast.parse(src))]
    assert sorted(kinds) == sorted([
        "import math", "non-integer import from math", "float literal 0.5",
        "float() call", "math.pi", "true division", "true division",
    ])
    # / is flagged in any module and on any operands, Gold values included
    assert float_uses(ast.parse("from .goldnum import TAU\nw = TAU / 2\n")) == \
        ["line 2: true division"]
