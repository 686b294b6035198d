"""Each exact integer layout is read only by the module that defines it.

A GoldVector holds its values as Z[sqrt5] integers over one denominator
(``ints`` and ``den``).  Where each value sits in ``ints`` is known only to
the module that defines the class: ``goldnum`` (GoldVector), ``quat``
(Quat), ``qmat2`` (QMat2) and ``chars`` (CharVector); other modules read a
layout through its owner's methods (``Quat.re``, ``QMat2.re_trace``,
``CharVector.degree``, ...).  Scans the syntax tree of every module of the
package for a subscripted ``.ints``, an index or a slice: it is flagged
outside those four modules, and in any module when its receiver is not a
plain name, as in ``lift[i].ints[0:2]``, since an owner reads its own
layout on ``self`` or on an operand of its own class.  A whole ``.ints``
passed on, as an ``Echelon`` row, is the documented row format and stays
allowed.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "icosian"
OWNERS = {"goldnum.py", "quat.py", "qmat2.py", "chars.py"}
MODULES = sorted(PACKAGE.glob("*.py"))


def layout_reads(tree: ast.AST, owner: bool) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "ints"
                and not (owner and isinstance(node.value.value, ast.Name))):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_modules_found():
    assert OWNERS | {"checks.py", "spans.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_integer_layouts_are_read_by_their_owners(path):
    tree = ast.parse(path.read_text(), str(path))
    assert layout_reads(tree, path.name in OWNERS) == []


def test_scanner_flags_each_form():
    src = ("d = chi.ints[0] // chi.den\n"
           "w = lift[i].ints[0:2]\n"
           "c = [v for chi in irr for v in chi.ints[2 * c:2 * c + 2]]\n"
           "r = self.ints[0:2]\n"
           "ech.add(m.ints)\n"
           "n = rank([m.ints for m in mats])\n")
    assert sorted(layout_reads(ast.parse(src), owner=False)) == [
        "line 1: chi.ints[0]", "line 2: lift[i].ints[0:2]",
        "line 3: chi.ints[2 * c:2 * c + 2]", "line 4: self.ints[0:2]",
    ]
    # an owner reads its layout on a plain name only
    assert layout_reads(ast.parse(src), owner=True) == ["line 2: lift[i].ints[0:2]"]


def test_scanner_flags_a_read_planted_in_checks():
    src = (PACKAGE / "checks.py").read_text()
    planted = src + "\n\ndef planted_degree(chi):\n    return chi.ints[0]\n"
    line = planted.splitlines().index("    return chi.ints[0]") + 1
    assert layout_reads(ast.parse(planted), owner=False) == [f"line {line}: chi.ints[0]"]
