import json

import pytest

from icosian import census, chars, checks, quat, reflgroup, spans
from icosian.chars import CharVector, char_table
from icosian.checks import REGISTRY, Claimed, VerificationReport, check, run_checks
from icosian.claim import Claim
from icosian.goldnum import Gold, flatten
from icosian.qmat2 import IDENTITY, QMat2
from icosian.quat import Quat
from icosian.reflgroup import build_o1, gamma_group


def test_claim_to_json_is_the_report_dict():
    d = Claim("e1 idempotent", "x", "y", False).to_json()
    assert d == {"name": "e1 idempotent", "expected": "x", "actual": "y",
                 "pass": False}
    assert list(d) == ["name", "expected", "actual", "pass"]


def test_claim_of_compares_values_and_keeps_their_text():
    assert Claim.of("dim", 16, 16) == Claim("dim", "16", "16", True)
    assert Claim.of("sizes", (3, 6, 6), (3, 3, 3, 6)).ok is False


def test_records_keep_equality_hashing_and_immutability():
    c = census.order3_census()
    twin = census.OrbitCensus(c.item_kind, c.items, c.orbits, c.listed)
    assert c == twin != census.OrbitCensus("other", c.items, c.orbits, c.listed)
    assert hash(c) == hash(twin)
    with pytest.raises(AttributeError):
        c.items = ()
    chi = CharVector((Gold(1), Gold(-1)))
    same = CharVector((Gold(2, 0, 2), Gold(-3, 0, 3)))
    assert chi == same != CharVector((Gold(1), Gold(1)))
    assert hash(chi) == hash(same) == hash(chi * CharVector((Gold(1), Gold(1))))
    with pytest.raises(AttributeError):
        chi.den = 2
    claim = Claim.of("dim", 16, 16)
    assert claim == Claim("dim", "16", "16", True) != Claim("dim", "16", "16", False)
    assert hash(claim) == hash(Claim("dim", "16", "16", True))
    with pytest.raises(AttributeError):
        claim.ok = False


def test_records_serialised_through_default_are_not_tuples():
    # json writes any tuple as an array without calling default=
    report = VerificationReport((REGISTRY[0](),))
    records = [Claim.of("x", 1, 1), report, char_table(), census.order3_census()]
    for record in records:
        assert not isinstance(record, tuple)
        text = json.dumps(record, default=lambda obj: obj.to_json())
        assert json.loads(text) == json.loads(json.dumps(record.to_json()))


def test_check_passes_only_if_every_claim_holds(monkeypatch):
    # a scratch registration list, so the real one is left untouched
    monkeypatch.setattr(checks, "_registered", [])
    holds, fails = Claim.of("holds", 1, 1), Claim.of("fails", 1, 2)
    good = check("scratch.good", "d", "c", 7)(lambda: Claimed(7, [holds]))
    bad = check("scratch.bad", "d", "c", 7)(lambda: Claimed(7, [holds, fails]))
    assert good().status == "pass"
    r = bad()
    assert (r.expected, r.actual, r.status) == ("7", "7", "fail")
    assert r.claims == (holds, fails)
    assert r.to_json()["claims"] == [holds.to_json(), fails.to_json()]
    assert not {good, bad} & set(REGISTRY)


def test_fixed_space_claim_compares_the_elements(monkeypatch):
    # the 20 elements of order 6 are as many as the reflections but others
    G = build_o1()
    order6 = [i for i in range(len(G)) if G.element_order(i) == 6]
    assert len(order6) == 20
    monkeypatch.setattr(reflgroup, "group_reflections", lambda group: order6)
    run = next(fn for fn in REGISTRY if fn.id == "roots.reflections")
    r = run()
    assert r.actual == r.expected
    assert r.status == "fail"
    # the stub answers for omega*I's group too, so the control fails as well
    assert [c.ok for c in r.claims] == [False, False]


def test_roots_norm_fails_on_a_bad_root(monkeypatch):
    # roots.norm reads the checked layer: roots() raises on a wrong norm,
    # here 1 + 1 for every root
    monkeypatch.setattr(Quat, "norm", lambda q: (1, 0, 1))
    reflgroup.roots.cache_clear()
    try:
        run = next(fn for fn in REGISTRY if fn.id == "roots.norm")
        r = run()
    finally:
        reflgroup.roots.cache_clear()
    assert r.status == "fail"
    assert "squared norm" in r.actual


def registered(id_):
    return next(fn for fn in REGISTRY if fn.id == id_)


@pytest.mark.parametrize("label, indicator", [("4b", 1), ("4a", -1)])
def test_gauge_bookkeeping_fails_on_a_wrong_indicator(monkeypatch, label, indicator):
    # one quaternionic character too few or too many: the symplectic
    # dimensions no longer pair one to one with the kept ones
    ct = char_table()
    real, chi = ct.fs_indicator, ct.by_label[label]
    monkeypatch.setattr(ct, "fs_indicator",
                        lambda psi: indicator if psi is chi else real(psi))
    r = registered("gauge.bookkeeping")()
    assert r.status == "fail"
    assert "zip()" in r.actual


def test_chars_columns_fails_on_a_wrong_dimension(monkeypatch):
    # the 6 of the last character becomes a 5: its column sums break
    ct = char_table()
    *rest, six = ct.irreducibles
    wrong = CharVector([Gold(5)] + flatten(six)[1:])
    monkeypatch.setattr(ct, "irreducibles", (*rest, wrong))
    assert registered("chars.columns")().status == "fail"


def test_chars_tensor_names_the_factors_of_a_failure(monkeypatch):
    wrong = checks.TENSOR_IDENTITIES + ((("2b",), ("4b",), "3a+5"),)
    monkeypatch.setattr(checks, "TENSOR_IDENTITIES", wrong)
    r = registered("chars.tensor")()
    assert r.status == "fail"
    assert r.actual == "(2b)*(4b) = 3b+5 != 3a+5"


def test_relation_and_clifford_checks_make_no_matrix_products(monkeypatch):
    # once G and the gamma group are closed, their relations, orders and
    # involutions are read off the Cayley graphs
    build_o1(), gamma_group()
    calls = 0
    mul = QMat2.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(QMat2, "__mul__", counting_mul)
    assert run_checks("group").ok and run_checks("gamma").ok
    assert calls == 0


def test_a_failing_relation_turns_every_check_on_g_red(monkeypatch):
    # a G presented by a mistyped relation table raises, so no check reads it
    mistyped = tuple(("fgfgf", 1, "") if rel == ("fgfgfg", 1, "") else rel
                     for rel in reflgroup.G_RELATIONS)
    monkeypatch.setattr(reflgroup, "G_RELATIONS", mistyped)
    reflgroup.build_o1.cache_clear()
    try:
        report = run_checks("group")
    finally:
        monkeypatch.undo()
        reflgroup.build_o1.cache_clear()
    assert [(r.status, r.actual) for r in report.results] == [
        ("fail", "relations fail: fgfgf = 1")] * 2


def clear_caches():
    """Empty every cached layer, so the next call builds it again."""
    for module in (quat, reflgroup, chars, census, spans):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_a_wrong_generator_fails_its_rows_instead_of_raising(monkeypatch):
    # 1/2 in place of 1/3 gives f infinite order: f no longer satisfies the
    # relations it appears in, and each check that reads G fails on that text
    monkeypatch.setattr(reflgroup, "THIRD", Quat.of(Gold(1, 0, 2)))
    clear_caches()
    try:
        report = run_checks()
    finally:
        monkeypatch.undo()
        clear_caches()
    rows = {r.id: r for r in report.results}
    assert list(rows) == [fn.id for fn in REGISTRY]
    assert (rows["group.order"].status, rows["group.order"].actual) == (
        "fail", "relations fail: ff = -1; fgfgfg = 1; fhfhfh = 1")


def test_a_value_outside_g_fails_its_rows_instead_of_raising(monkeypatch):
    # reflections moved off G by adding the identity: G's index lookup
    # raises ClosureError, a ValueError, and each check that looks one up
    # fails on that text
    reflection_of = reflgroup.reflection_of
    monkeypatch.setattr(reflgroup, "reflection_of",
                        lambda r: reflection_of(r) + IDENTITY)
    clear_caches()
    try:
        report = run_checks()
    finally:
        monkeypatch.undo()
        clear_caches()
    rows = {r.id: r for r in report.results}
    assert list(rows) == [fn.id for fn in REGISTRY]
    refl = rows["roots.reflections"]
    assert refl.status == "fail"
    assert refl.actual.startswith("QMat2[[") and refl.actual.endswith(
        " is not an element of the group")
