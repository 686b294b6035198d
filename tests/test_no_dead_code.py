"""Code that nothing uses is deleted, not kept alive by its own unit tests.

Scans the syntax tree of every module of the package: each function or
method defined there, and each name bound at a module's top level, must be
named somewhere else in the package (as a name read, an attribute, or an
import whose bound name the importing module reads), or in the benchmark
scripts under perfbench/.  Dunder methods, @check bodies (the registry
calls them) and __version__ are exempt.  The match is by name only, so a
dead method that shares its name with a live one slips through.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "icosian"
EXEMPT = {"__version__"}  # package metadata


def named(trees) -> set[str]:
    out = set()
    for tree in trees:
        read, aliases = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                aliases.append(node)
        # an import is a use only where the importing module reads the name
        # it binds (its alias, if it has one)
        out |= read | {a.name for a in aliases
                       if (a.asname or a.name.split(".")[0]) in read}
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


def unused_constants(package: dict[str, ast.AST], outside: set[str]) -> list[str]:
    used = named(package.values()) | outside
    return sorted(
        f"{module}: {node.id}"
        for module, tree in package.items()
        for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        for node in ast.walk(target)
        if isinstance(node, ast.Name) and node.id not in EXEMPT | used)


def parse(paths) -> dict[str, ast.AST]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in paths}


def perfbench_names() -> set[str]:
    return named(parse(sorted((ROOT / "perfbench").glob("*.py"))).values())


def test_every_function_is_used():
    assert unused_functions(parse(sorted(PACKAGE.glob("*.py"))), perfbench_names()) == []


def test_every_module_constant_is_used():
    assert unused_constants(parse(sorted(PACKAGE.glob("*.py"))), perfbench_names()) == []


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
        ["m.py: is_subgroup_set", "m.py: norm2"]


def test_scanner_flags_an_unused_constant():
    src = ("from .goldnum import ONE as G_ONE\n"
           "__version__ = '0'\n"
           "HALF = 1\n"
           "SQRT5 = 2\n"
           "TAU, SIGMA = 3, 4\n"
           "LABELS: tuple = ('1',)\n"
           "def f(): return SQRT5 + TAU + LABELS\n")
    assert unused_constants({"m.py": ast.parse(src)}, {"f"}) == \
        ["m.py: HALF", "m.py: SIGMA"]


def test_scanner_flags_a_function_that_is_only_imported():
    lib = ("def used(): pass\n"
           "def aliased(): pass\n"
           "def imported_only(): pass\n")
    user = ("from .lib import used, imported_only, aliased as al\n"
            "def run(): return used() + al()\n")
    package = {"lib.py": ast.parse(lib), "user.py": ast.parse(user)}
    assert unused_functions(package, {"run"}) == ["lib.py: imported_only"]
