"""Machine verification of every quantitative claim in the package.

Each check is declared with the @check decorator, which carries its stable
dotted id, a short description, the claim and the expected value
statically; the body computes only the actual value, returned as Claimed
together with its sub-claims where it has any.  Exact checks compare
structurally; the coincidence checks return the list of display-precision
failures from the coincidence module.  Claims that the exact computation
contradicts are flagged known_defect and stay in the registry as failures.
run_checks drives the registry and is the engine behind `verify`.
"""
from __future__ import annotations

from functools import reduce, wraps
from operator import add
from typing import NamedTuple

from . import census, coincidence, spans
from .chars import LABELS, char_table, format_decomposition, gauge_bookkeeping
from .claim import Claim
from .goldnum import Gold, dot
from .qmat2 import IDENTITY, Spinor2
from .quat import THETA, ZERO as Q_ZERO
from .record import Record
from .reflgroup import (
    build_o1,
    diagonal_subgroup,
    gamma_group,
    gamma_reflections,
    generators,
    group_reflections,
    reflection_group,
    reflection_matrices,
    reflection_of,
    roots,
    two_reflection_census,
)


class CheckResult(NamedTuple):
    id: str
    description: str
    claim: str
    expected: str
    actual: str
    status: str  # "pass" or "fail"
    claims: tuple[Claim, ...]

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "claim": self.claim,
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
            "claims": [c.to_json() for c in self.claims],
        }


class VerificationReport(Record):
    __slots__ = ("results",)

    def __init__(self, results: tuple[CheckResult, ...]):
        object.__setattr__(self, "results", results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "failed": self.failed,
            "ok": self.ok,
            "results": [r.to_json() for r in self.results],
        }


class Claimed(NamedTuple):
    """A check body's actual value together with its sub-claims."""
    actual: object
    claims: list[Claim]


_registered = []


def check(id_: str, description: str, claim: str, expected,
          known_defect: bool = False):
    """Register a check whose body returns the actual value.

    The metadata is stored on the returned zero-argument callable, so the
    registry can be listed and filtered without running anything.  A
    ValueError raised by the body becomes a failing row whose actual value
    is the error text.  The row passes when the actual value equals the
    expected one and every sub-claim the body returned holds.
    """
    def register(body):
        @wraps(body)
        def run() -> CheckResult:
            try:
                actual = body()
            except ValueError as e:
                actual = str(e)
            actual, claims = actual if isinstance(actual, Claimed) else (actual, [])
            ok = expected == actual and all(c.ok for c in claims)
            return CheckResult(id_, description, claim, str(expected),
                               str(actual), "pass" if ok else "fail",
                               tuple(claims))
        run.id = id_
        run.description = description
        run.claim = claim
        run.expected = expected
        run.known_defect = known_defect
        _registered.append(run)
        return run
    return register


# -- individual checks --------------------------------------------------

@check("group.order", "orders of the full and diagonal groups",
       "the generators close at order 120; the diagonal subgroup has order"
       " 12 and is maximal",
       (120, 12, True))
def check_group_order():
    g = build_o1()
    d = diagonal_subgroup()
    return len(g), len(d), g.is_maximal(d)


@check("group.relations", "defining relations of f, g, h",
       "f^2 = (gh)^2 = h^2 = -1 and g^3 = (fg)^3 = (fh)^3 = 1",
       "all relations hold")
def check_group_relations():
    generators()  # raises unless all six relations hold
    return "all relations hold"


@check("roots.count", "number of distinct roots",
       "the 10 base spinors times 12 scalars give 120 distinct roots", 120)
def check_roots_count():
    return len({r for cls in roots() for r in cls})


@check("roots.norm", "squared norm of every root",
       "every root has squared norm exactly 3", "0 exceptions")
def check_roots_norm():
    roots()  # raises unless every root has squared norm 3
    return "0 exceptions"


@check("roots.reflections", "the reflection family",
       "20 distinct order-3 reflections in 10 inverse pairs; the reflection"
       " of (theta, 0) is g; the reflections generate the whole group",
       (20, [3], 10, True, True))
def check_roots_reflections():
    g_full = build_o1()
    refl = sorted(g_full.index(m) for m in reflection_matrices())
    orders = {g_full.element_order(i) for i in refl}
    pairs = len({frozenset({i, g_full.inverse[i]}) for i in refl})
    anchor = reflection_of(Spinor2(THETA, Q_ZERO)) == generators()[1]
    generate = len(reflection_group()) == len(g_full)
    fixed = Claim.of("the order-3 elements with a nonzero fixed space are"
                     " exactly the 20 root reflections",
                     refl, group_reflections(g_full))
    return Claimed((len(refl), sorted(orders), pairs, anchor, generate),
                   [fixed])


@check("roots.tworefl", "non-reflections as two-reflection products",
       "all 100 non-reflection elements are products of two reflections"
       " (observed: the 24 order-5 elements and -identity are not; only"
       " their negatives are)",
       100, known_defect=True)
def check_roots_tworefl():
    return two_reflection_census(build_o1())


@check("gamma.group", "the Clifford gamma group",
       "the four gamma matrices generate a group of order 32 whose"
       " non-central involutions are exactly the ten listed products, all"
       " squaring to +identity",
       (32, True, 10, True))
def check_gamma_group():
    found, listed = gamma_reflections()
    squares = all(m * m == IDENTITY for m in listed)
    return len(gamma_group()), set(found) == set(listed), len(found), squares


@check("chars.table", "shape of the character table",
       "nine orthonormal irreducibles of dimensions 1,2,2,3,3,4,4,5,6 over"
       " nine classes of sizes 1,1,12,12,12,12,20,20,30",
       ([1, 2, 2, 3, 3, 4, 4, 5, 6], 120, True,
        [1, 1, 12, 12, 12, 12, 20, 20, 30]))
def check_chars_table():
    ct = char_table()
    dims = sorted(chi.dim.na for chi in ct.irreducibles)
    ortho = all(
        ct.inner(a, b) == (1 if i == j else 0)
        for i, a in enumerate(ct.irreducibles)
        for j, b in enumerate(ct.irreducibles)
    )
    return dims, sum(d * d for d in dims), ortho, sorted(ct.class_sizes)


@check("chars.columns", "column orthogonality",
       "columns of the table are orthogonal with squared length |G| / class"
       " size", True)
def check_chars_columns():
    ct = char_table()
    columns = list(zip(*(chi.values for chi in ct.irreducibles)))
    ones = [1] * len(ct.irreducibles)
    return all(
        dot(x, y, ones) == (Gold(120, 0, ct.class_sizes[c]) if c == d else 0)
        for c, x in enumerate(columns)
        for d, y in enumerate(columns)
    )


@check("chars.fs", "Frobenius-Schur indicators",
       "indicators are +1 (real) on 1, 3a, 3b, 4a, 5 and -1 (quaternionic)"
       " on 2a, 2b, 4b, 6",
       {"1": 1, "2a": -1, "2b": -1, "3a": 1, "3b": 1,
        "4a": 1, "4b": -1, "5": 1, "6": -1})
def check_chars_fs():
    ct = char_table()
    return {chi.label: ct.fs_indicator(chi) for chi in ct.irreducibles}


TENSOR_IDENTITIES = (
    # ((left addends), (right addends), result)
    (("2a",), ("2a",), "1+3a"),
    (("2a",), ("2b",), "4a"),
    (("2b",), ("2b",), "1+3b"),
    (("2b",), ("3a",), "6"),
    (("2b",), ("4b",), "3b+5"),
    (("2b",), ("3b",), "2b+4b"),
    (("4a",), ("4a",), "1+3a+3b+4a+5"),
    (("4b",), ("4b",), "1+3a+3b+4a+5"),
    (("2a",), ("4b",), "3a+5"),
    (("2a", "2b"), ("2a", "2b"), "1+1+3a+3b+4a+4a"),
    (("2a", "2b"), ("4b",), "3a+3b+5+5"),
    (("2a",), ("2a", "2b"), "1+3a+4a"),
)


@check("chars.tensor", "tensor product decompositions",
       "every quoted tensor identity holds with exact integer multiplicities",
       "no failures")
def check_chars_tensor():
    ct = char_table()
    failures = []
    for left, right, want in TENSOR_IDENTITIES:
        lsum = reduce(add, (ct.by_label[lab] for lab in left))
        rsum = reduce(add, (ct.by_label[lab] for lab in right))
        got = format_decomposition(ct.decompose(lsum * rsum))
        if got != want:
            failures.append(f"({'+'.join(left)})*({'+'.join(right)}) = {got}"
                            f" != {want}")
    return "; ".join(failures) or "no failures"


@check("chars.galois", "Galois action on the table",
       "the sqrt5 automorphism swaps 2a with 2b and 3a with 3b and fixes the"
       " other five characters", True)
def check_chars_galois():
    ct = char_table()
    swaps = {"2a": "2b", "2b": "2a", "3a": "3b", "3b": "3a"}
    return all(
        ct.by_label[lab].galois().values
        == ct.by_label[swaps.get(lab, lab)].values
        for lab in LABELS
    )


HYPERSPIN_EXPECTED = ("1", "2a", "3a", "4b", "5", "6", "3b+4a", "2b+6")


@check("hyperspin.table",
       "branching of the ambient spin representations",
       "restricting spins 0 through 7/2 yields the listed rows and covers"
       " all nine irreducibles",
       (HYPERSPIN_EXPECTED, True))
def check_hyperspin_table():
    table = char_table().hyperspin_table(7)
    rows = tuple(format_decomposition(m) for _, m in table)
    covered = set()
    for _, m in table:
        covered |= set(m)
    return rows, covered == set(LABELS)


@check("algebra.dims", "generated algebra dimensions and identities",
       "reflections generate dimension 16; 1, g, g^2 give 3 and adjoining h"
       " gives 6; all displayed identities and corner tables hold",
       ((16, 3, 6, 16), []))
def check_algebra_dims():
    dim_refl, dim_group = spans.reflection_dims()
    dims = (dim_refl, *spans.neutrino_dims(), dim_group)
    claims = (spans.neutrino_algebra_report() + spans.su2_u1_split_report()
              + spans.reflection_algebra_report())
    return Claimed((dims, [c.name for c in claims if not c.ok]), claims)


@check("orbits.order4", "diagonal conjugation orbits on order-4 sign-pairs",
       "the 15 sign-pairs fall into orbits 3+6+6 with the listed member"
       " families (observed: 3+3+3+6; the third family is a union of two"
       " 3-orbits)",
       ("(3, 6, 6)", []), known_defect=True)
def check_orbits_order4():
    claims = census.order4_claims()
    failing = [c.name for c in claims if not c.ok]
    return Claimed((str(census.order4_census().orbit_sizes), failing), claims)


@check("orbits.q8", "quaternion subgroups and the product pairing",
       "five quaternion subgroups of order 8, two normalized by g and filled"
       " by the 6-orbit; the remaining six sign-pairs match into three"
       " couples whose products lie in the diagonal subgroup",
       (5, 2, True, True))
def check_orbits_q8():
    s = census.order4_structure()
    return (s["q8_total"], s["q8_normalized_by_g"],
            s["photon_orbit_fills_q8_pair"], s["product_matching"] is not None)


@check("orbits.order3", "diagonal conjugation orbits on order-3"
       " inverse-pairs",
       "the 10 inverse-pairs fall into orbits 1+3+6 with the listed fixed,"
       " pion-like and kaon-like families",
       "(1, 3, 6)")
def check_orbits_order3():
    return str(census.order3_census().orbit_sizes)


@check("orbits.order5", "cyclic coverage of the order-5 material",
       "the six listed generators give six distinct cyclic groups covering"
       " all 24 sign-classes of order-5/10 elements",
       (6, 24, True))
def check_orbits_order5():
    c = census.order5_census()
    return c["cyclic_groups"], c["sign_classes_total"], c["covered"]


@check("census.roots", "root class bookkeeping",
       "10 classes of 12 roots split 12 + 36 + 72; the scalar group has"
       " order 12 with a nonabelian order-6 rotation image",
       (10, 12, {"neutrino-like": 12, "electron-like": 36, "quark-like": 72},
        12, 6, True))
def check_census_roots():
    b = census.root_bookkeeping()
    return (b["classes"], b["class_size"], b["states_by_label"],
            b["scalar_group_order"], b["so3_image_order"],
            b["so3_image_nonabelian"])


@check("gauge.bookkeeping", "gauge dimension bookkeeping",
       "37 symplectic dimensions reduce to 15, losing 2 + 7 + 13 = 22,"
       " identically in both variants",
       (37, 15, 22, (2, 7, 13), 37, 15))
def check_gauge_bookkeeping():
    a, b = gauge_bookkeeping()
    return a.total, a.kept, a.lost, a.lost_split, b.total, b.kept


@check("coincidence.np", "neutron/proton calendar coincidence",
       "1 + 1/(2 * 365.24) prints as 1.001369 and sits within 1e-5 of the"
       " mass ratio 1.001378", [])
def check_coincidence_np():
    return coincidence.np_failures()


@check("coincidence.ep", "electron/proton tilt coincidence",
       "sin(23.44 deg)/(2 * 365.24) prints as 0.000544558, within 1e-7 of"
       " the mass ratio 0.000544617", [])
def check_coincidence_ep():
    return coincidence.ep_failures()


@check("coincidence.tilt", "tilt angle making the coincidence exact",
       "sin(theta) = 2 * 365.24 * 0.000544617 = 0.3978318 gives theta ="
       " 23.442704 degrees = 23d 26m 33.7s", [])
def check_coincidence_tilt():
    return coincidence.tilt_failures()


REGISTRY = tuple(_registered)

# claims stated by the source material that the exact computation
# contradicts; kept in the registry so the defect stays visible
KNOWN_DEFECTS = frozenset(fn.id for fn in REGISTRY if fn.known_defect)


def run_checks(only: str | None = None) -> VerificationReport:
    """Run the registered checks whose id starts with `only` (all if None).

    Filtering uses the static ids, so unselected checks never run.
    """
    return VerificationReport(tuple(
        fn() for fn in REGISTRY if only is None or fn.id.startswith(only)
    ))
