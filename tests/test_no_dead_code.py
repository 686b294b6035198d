"""Code that nothing uses is deleted, not kept alive by its own unit tests.

Scans the syntax tree of every module of the package: each function or
method defined there must be named somewhere else in the package (as a name
or an attribute), or in the benchmark scripts under perfbench/.  Dunder
methods, @check bodies (the registry calls them) and the test oracle
Quat.norm2 are exempt.  The match is by name only, so a dead method that
shares its name with a live one slips through.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "icosian"
EXEMPT = {"norm2"}  # Quat.norm2: the tests' norm oracle


def named(trees) -> set[str]:
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def is_check_body(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "check" for d in node.decorator_list)


def unused_functions(package: dict[str, ast.AST], outside: set[str]) -> list[str]:
    used = named(package.values()) | outside
    return sorted(
        f"{module}: {node.name}"
        for module, tree in package.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not is_check_body(node)
        and node.name not in EXEMPT | used)


def parse(paths) -> dict[str, ast.AST]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in paths}


def test_every_function_is_used():
    perfbench = named(parse(sorted((ROOT / "perfbench").glob("*.py"))).values())
    assert unused_functions(parse(sorted(PACKAGE.glob("*.py"))), perfbench) == []


def test_scanner_flags_an_unused_method():
    src = ("class G:\n"
           "    def __len__(self): return 0\n"
           "    def is_maximal(self): return self.table\n"
           "    def is_subgroup_set(self): return 0\n"
           "    @property\n"
           "    def table(self): return []\n"
           "def norm2(): pass\n"
           "@check('a.b', '', '', 0)\n"
           "def check_a(): return 0\n")
    assert unused_functions({"m.py": ast.parse(src)}, {"is_maximal"}) == \
        ["m.py: is_subgroup_set"]
