"""Answer checker for every request the benchmark makes.

Verify reports are compared with the golden report on the stable fields
(id, status, expected, actual) only, so fields added to a report later do not
count as a failure.  The two known defects must stay ``fail``: a run where one
turns ``pass`` is wrong, and exit code 1 is the right answer whenever a selected
check fails.  Views are compared with golden output, decompositions are
recomputed from the golden character table in this file's own Q(sqrt5)
arithmetic, and warm query answers are recomputed by another route (below),
so no answer is checked by the code path that produced it.

``python3 perfbench/check.py`` runs the self-test: the checker must accept the
golden answers and reject corrupted ones.
"""
from __future__ import annotations

import copy
import json
import math
from fractions import Fraction

from common import BENCH_DIR

GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())
KNOWN_DEFECTS = frozenset(GOLDEN["known_defects"])
STABLE_FIELDS = ("id", "status", "expected", "actual")
CHECK_IDS = tuple(r["id"] for r in GOLDEN["verify"])  # registry order

# -- Q(sqrt5) as pairs of Fractions, independent of icosian.goldnum ---------

_TABLE = GOLDEN["views"]["table"]
LABELS = tuple(chi["label"] for chi in _TABLE["irreducibles"])
CLASS_SIZES = tuple(c["size"] for c in _TABLE["classes"])
GROUP_ORDER = sum(CLASS_SIZES)


def _gold(d: dict) -> tuple[Fraction, Fraction]:
    return Fraction(*d["a"]), Fraction(*d["b"])


def _mul(x, y):
    return x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


CHARS = {chi["label"]: tuple(_gold(v) for v in chi["values"])
         for chi in _TABLE["irreducibles"]}
DIMS = {lab: int(CHARS[lab][0][0]) for lab in LABELS}


def _product(labels) -> tuple:
    acc = CHARS[labels[0]]
    for lab in labels[1:]:
        acc = tuple(_mul(a, b) for a, b in zip(acc, CHARS[lab]))
    return acc


def _hyperspin(two_j: int) -> tuple:
    """Spin-(two_j/2) character by the Chebyshev recurrence on 2a."""
    one = tuple((Fraction(1), Fraction(0)) for _ in CLASS_SIZES)
    prev, cur = one, CHARS["2a"]
    if two_j == 0:
        return one
    for _ in range(two_j - 1):
        prev, cur = cur, tuple(_sub(_mul(a, c), p)
                               for a, c, p in zip(CHARS["2a"], cur, prev))
    return cur


def multiplicities(chi: tuple) -> dict[str, int]:
    """Irreducible multiplicities of a class function (the table is real)."""
    out = {}
    for lab in LABELS:
        a = b = Fraction(0)
        for size, x, y in zip(CLASS_SIZES, chi, CHARS[lab]):
            p = _mul(x, y)
            a += size * p[0]
            b += size * p[1]
        m = a / GROUP_ORDER
        if b or m.denominator != 1 or m < 0:
            raise ValueError(f"multiplicity of {lab} is not a natural number")
        if m:
            out[lab] = int(m)
    return out


def format_mults(mults: dict[str, int]) -> str:
    return "+".join(lab for lab in LABELS for _ in range(mults.get(lab, 0)))


def _dim_sum(mults: dict[str, int]) -> int:
    return sum(m * DIMS[lab] for lab, m in mults.items())


def decompose_error(labels, mults: dict[str, int]) -> str | None:
    if _dim_sum(mults) != math.prod(DIMS[lab] for lab in labels):
        return f"{'*'.join(labels)}: multiplicity x dimension sum is wrong"
    want = multiplicities(_product(labels))
    if mults != want:
        return f"{'*'.join(labels)} = {mults}, want {want}"
    return None


def hyperspin_error(two_j: int, mults: dict[str, int]) -> str | None:
    if _dim_sum(mults) != two_j + 1:
        return f"spin {two_j}/2 row has dimension {_dim_sum(mults)}"
    want = multiplicities(_hyperspin(two_j))
    if mults != want:
        return f"spin {two_j}/2 row = {mults}, want {want}"
    if two_j < len(GOLDEN["hyperspin_rows"]) and \
            format_mults(mults) != GOLDEN["hyperspin_rows"][two_j]:
        return f"spin {two_j}/2 row differs from the stated branching table"
    return None


def _parse_mults(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for lab in text.split("+"):
        out[lab] = out.get(lab, 0) + 1
    return out


# -- verify reports --------------------------------------------------------

def verify_error(stdout: str, returncode: int, prefix: str | None = None) -> str | None:
    """None when a verify report (JSON) and exit code are right, else why not."""
    try:
        report = json.loads(stdout)
        results = report["results"]
        got = {}
        for r in results:
            if r["id"] in got:
                return f"duplicate check id {r['id']}"
            got[r["id"]] = r
    except (ValueError, KeyError, TypeError) as e:
        return f"malformed verify report: {e!r}"
    want = {g["id"]: g for g in GOLDEN["verify"]
            if prefix is None or g["id"].startswith(prefix)}
    for rid, g in want.items():
        if rid not in got:
            return f"check {rid} missing"
        for f in STABLE_FIELDS:
            if got[rid].get(f) != g[f]:
                return f"{rid}.{f} = {got[rid].get(f)!r}, want {g[f]!r}"
    for rid, r in got.items():
        if prefix is not None and not rid.startswith(prefix):
            return f"check {rid} does not match --only {prefix}"
        if rid in KNOWN_DEFECTS and r.get("status") != "fail":
            return f"known defect {rid} reports {r.get('status')!r}"
        if rid not in want and r.get("status") != "pass":
            return f"new check {rid} reports {r.get('status')!r}"
    want_rc = 1 if any(r.get("status") != "pass" for r in got.values()) else 0
    if returncode != want_rc:
        return f"exit code {returncode}, want {want_rc}"
    return None


# -- views -----------------------------------------------------------------

def _same(x, y) -> bool:
    if isinstance(x, float) or isinstance(y, float):
        return isinstance(x, (int, float)) and isinstance(y, (int, float)) \
            and math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-15)
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() \
            and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) \
            and all(_same(a, b) for a, b in zip(x, y))
    return type(x) is type(y) and x == y


def view_error(argv: list[str], stdout: str, returncode: int) -> str | None:
    """None when a CLI view (run with --json) answered correctly."""
    if returncode != 0:
        return f"exit code {returncode}, want 0"
    try:
        data = json.loads(stdout)
    except ValueError as e:
        return f"output is not JSON: {e!r}"
    try:
        return _view_error(argv, data)
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        return f"malformed output: {e!r}"


def _view_error(argv: list[str], data) -> str | None:
    name = argv[0]
    if name == "decompose":
        labels = argv[1:argv.index("--json")]
        if data.get("product") != labels:
            return f"decompose echoed {data.get('product')!r}"
        return decompose_error(labels, _parse_mults(data.get("decomposition", "")))
    if name == "branch":
        top = int(argv[argv.index("--max-two-j") + 1])
        rows = data.get("rows", [])
        if [r.get("two_j") for r in rows] != list(range(top + 1)):
            return "branch rows do not cover 0 .. max-two-j"
        for r in rows:
            err = hyperspin_error(r["two_j"], _parse_mults(r["decomposition"]))
            if err:
                return err
        return None
    key = " ".join(a for a in argv if a != "--json")
    if not _same(data, GOLDEN["views"][key]):
        return f"'{key}' output differs from the golden output"
    return None


# -- warm library queries --------------------------------------------------
# Each answer is recomputed here by another route than the package's: the
# subgroup by left multiplication in the table, the orbits by a walk over the
# generators' conjugations, and dimensions by elimination in this file's own
# Q(sqrt5) arithmetic.

def generated(table, gens) -> frozenset[int]:
    """The subgroup the generators generate, by left multiplication."""
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g in gens:
            p = table[g][i]
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return frozenset(seen)


def subgroup_error(table, gens, sub) -> str | None:
    want = generated(table, gens)
    if frozenset(sub) != want:
        return f"subgroup of {list(gens)} has {len(sub)} elements, want {len(want)}"
    return None


def conjugation_orbits(table, inverse, gens, items) -> set[frozenset[int]]:
    """Orbits of the item positions under conjugation by each generator."""
    position = {item: pos for pos, item in enumerate(items)}
    orbits, seen = set(), set()
    for start in range(len(items)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            item = items[frontier.pop()]
            for y in gens:
                p = position[frozenset(table[table[inverse[y]][x]][y] for x in item)]
                if p not in orbit:
                    orbit.add(p)
                    frontier.append(p)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def orbits_error(table, inverse, gens, h_size, items, orbits) -> str | None:
    """|H| is the size of the generated subgroup, and the orbits are exactly
    the orbits of the items under conjugation by the generators."""
    want_h = len(generated(table, gens))
    if h_size != want_h:
        return f"|H| = {h_size}, want {want_h}"
    want = conjugation_orbits(table, inverse, gens, items)
    got = [frozenset(o) for o in orbits]
    if len(got) != len(want) or set(got) != want:
        return f"orbit sizes {sorted(map(len, got))}, want {sorted(map(len, want))}"
    return None


_ZERO = (Fraction(0), Fraction(0))


def _inv(x):
    n = x[0] * x[0] - 5 * x[1] * x[1]
    return x[0] / n, -x[1] / n


def coords(m) -> tuple:
    """The 16 coordinates of a 2x2 quaternion matrix, as pairs of Fractions."""
    return tuple((c.a, c.b) for q in (m.m11, m.m12, m.m21, m.m22)
                 for c in (q.w, q.x, q.y, q.z))


def rank(vectors) -> int:
    """Rank over Q(sqrt5), by elimination against normalized pivot rows."""
    rows: list[tuple[int, list]] = []
    for v in vectors:
        v = list(v)
        for piv, row in rows:
            c = v[piv]
            if c != _ZERO:
                v = [_sub(x, _mul(c, y)) for x, y in zip(v, row)]
        piv = next((k for k, x in enumerate(v) if x != _ZERO), None)
        if piv is not None:
            inv = _inv(v[piv])
            rows.append((piv, [_mul(inv, x) for x in v]))
            if len(rows) == len(v):
                break
    return len(rows)


def span_error(dim: int, vectors) -> str | None:
    want = rank(vectors)
    if dim != want:
        return f"span dimension {dim} of {len(vectors)} elements, want {want}"
    return None


def algebra_error(dim: int, subgroup_rank: int) -> str | None:
    """The algebra generated by group elements is the span of the subgroup
    they generate (inverses are powers), so its dimension is that rank."""
    if not 1 <= dim <= 16:
        return f"algebra dimension {dim} outside 1 .. 16"
    if dim != subgroup_rank:
        return f"algebra dimension {dim}, want the generated subgroup's rank {subgroup_rank}"
    return None


# -- self-test -------------------------------------------------------------

def _golden_verify_report(prefix: str | None = None) -> tuple[str, int]:
    """A report as `icosian verify --json` prints it on the golden code."""
    rows = [dict(r, description="", claim="") for r in GOLDEN["verify"]
            if prefix is None or r["id"].startswith(prefix)]
    rc = 1 if any(r["status"] != "pass" for r in rows) else 0
    return json.dumps({"results": rows}), rc


def self_test() -> list[str]:
    """Problems found; empty when the checker accepts right answers and
    rejects every corruption below."""
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    good, rc = _golden_verify_report()
    expect(verify_error(good, rc) is None, "golden report rejected")
    expect(verify_error(good, 0) is not None, "exit code 0 accepted with failing checks")
    only, only_rc = _golden_verify_report("coincidence")
    expect(verify_error(only, only_rc, "coincidence") is None, "filtered report rejected")

    def corrupt(mutate) -> str:
        rep = json.loads(good)
        mutate(rep["results"])
        return json.dumps(rep)

    def set_field(rid, field, value):
        return lambda rs: next(r for r in rs if r["id"] == rid).__setitem__(field, value)

    expect(verify_error(corrupt(set_field("chars.table", "status", "fail")), rc) is not None,
           "flipped status accepted")
    expect(verify_error(corrupt(set_field("group.order", "actual", "(120, 12, False)")), rc)
           is not None, "altered actual accepted")
    expect(verify_error(corrupt(set_field("roots.tworefl", "status", "pass")), rc) is not None,
           "known defect turning pass accepted")
    expect(verify_error(corrupt(lambda rs: rs.pop()), rc) is not None, "missing check accepted")
    expect(verify_error(corrupt(lambda rs: [r.__setitem__("duration_s", 0.5) for r in rs]), rc)
           is None, "an added report field counted as a failure")
    expect(verify_error(corrupt(lambda rs: rs.append(
        {"id": "new.check", "status": "fail", "expected": "1", "actual": "2"})), rc) is not None,
        "new failing check accepted")

    orbits = copy.deepcopy(GOLDEN["views"]["orbits"])
    expect(view_error(["orbits", "--json"], json.dumps(orbits), 0) is None, "golden view rejected")
    orbits["order4"]["orbit_sizes"] = [3, 6, 6]
    expect(view_error(["orbits", "--json"], json.dumps(orbits), 0) is not None,
           "altered view accepted")
    expect(decompose_error(["2b", "4b"], {"3b": 1, "5": 1}) is None, "2b*4b = 3b+5 rejected")
    expect(decompose_error(["2b", "4b"], {"3a": 1, "5": 1}) is not None,
           "wrong decomposition accepted")
    expect(hyperspin_error(7, {"2b": 1, "6": 1}) is None, "spin 7/2 row rejected")
    expect(hyperspin_error(7, {"2a": 1, "6": 1}) is not None, "wrong spin row accepted")
    problems += _warm_self_test()
    return problems


def _warm_self_test() -> list[str]:
    """The warm checks on the symmetric group S3, and on vectors of known rank."""
    problems = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    inverse = [row.index(0) for row in table]
    swap, turn = 1, 4
    expect(subgroup_error(table, [swap], {0, swap}) is None, "subgroup <(01)> rejected")
    expect(subgroup_error(table, [swap], set(range(6))) is not None,
           "a closed superset of the subgroup accepted")
    expect(subgroup_error(table, [swap, turn], {0, swap}) is not None,
           "a too-small subgroup accepted")
    items = [frozenset({i}) for i in range(6)]
    want = [{0}, {1}, {2, 3}, {4, 5}]
    expect(orbits_error(table, inverse, [swap], 2, items, want) is None,
           "conjugation orbits under <(01)> rejected")
    expect(orbits_error(table, inverse, [swap], 2, items,
                        [{0}, {1, 2, 3}, {4, 5}]) is not None, "coarser orbits accepted")
    expect(orbits_error(table, inverse, [swap], 6, items, want) is not None,
           "wrong |H| accepted")
    one, zero, root5 = (Fraction(1), Fraction(0)), _ZERO, (Fraction(0), Fraction(1))
    vecs = [(one, root5, zero), (root5, (Fraction(5), Fraction(0)), zero), (zero, zero, one)]
    expect(rank(vecs) == 2, "rank of vectors dependent over Q(sqrt5) is not 2")
    expect(span_error(2, vecs) is None, "right span dimension rejected")
    expect(span_error(1, vecs) is not None, "underestimated span dimension accepted")
    expect(algebra_error(4, 4) is None, "right algebra dimension rejected")
    expect(algebra_error(3, 4) is not None, "wrong algebra dimension accepted")
    expect(algebra_error(17, 17) is not None, "algebra dimension above 16 accepted")
    return problems


if __name__ == "__main__":
    import sys
    found = self_test()
    for p in found:
        print(f"self-test: {p}", file=sys.stderr)
    print("checker self-test", "failed" if found else "passed")
    sys.exit(1 if found else 0)
