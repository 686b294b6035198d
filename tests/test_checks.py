import json

import pytest

from icosian import census, checks, reflgroup
from icosian.chars import CharVector, GaugeBookkeeping, char_table
from icosian.checks import REGISTRY, Claimed, VerificationReport, check
from icosian.claim import Claim
from icosian.goldnum import Gold
from icosian.quat import Quat
from icosian.reflgroup import build_o1


def test_claim_to_json_is_the_report_dict():
    d = Claim("e1 idempotent", "x", "y", False).to_json()
    assert d == {"name": "e1 idempotent", "expected": "x", "actual": "y",
                 "pass": False}
    assert list(d) == ["name", "expected", "actual", "pass"]


def test_claim_of_compares_values_and_keeps_their_text():
    assert Claim.of("dim", 16, 16) == Claim("dim", "16", "16", True)
    assert Claim.of("sizes", (3, 6, 6), (3, 3, 3, 6)).ok is False


def test_records_keep_defaults_equality_and_hashing():
    a = GaugeBookkeeping("v")
    b = GaugeBookkeeping("v", (3, 3, 10, 21), (3, 1, 3, 8),
                         ((2,), (1, 3, 3), (1, 6, 6)))
    assert a == b and hash(a) == hash(b) and a != GaugeBookkeeping("w")
    chi = CharVector((Gold(1), Gold(-1)))
    assert chi == CharVector((Gold(1), Gold(-1)), None) != chi.relabel("x")
    assert hash(chi) == hash(CharVector(chi.values))
    claim = Claim.of("dim", 16, 16)
    assert hash(claim) == hash(Claim("dim", "16", "16", True))
    with pytest.raises(AttributeError):
        claim.ok = False


def test_records_serialised_through_default_are_not_tuples():
    # json writes any tuple as an array without calling default=
    report = VerificationReport((REGISTRY[0](),))
    records = [Claim.of("x", 1, 1), report, CharVector((Gold(1),), "1"),
               GaugeBookkeeping("v"), census.order3_census()]
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
    monkeypatch.setattr(checks, "group_reflections", lambda group: order6)
    run = next(fn for fn in REGISTRY if fn.id == "roots.reflections")
    r = run()
    assert r.actual == r.expected
    assert r.status == "fail"
    assert [c.ok for c in r.claims] == [False]


def test_roots_norm_fails_on_a_bad_root(monkeypatch):
    # roots.norm reads the checked layer: roots() raises on a wrong norm
    monkeypatch.setattr(reflgroup, "spinor_norm2", lambda r: Quat.of(2))
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


def test_chars_columns_fails_on_a_wrong_dimension(monkeypatch):
    # the 6 of the last character becomes a 5: its column sums break
    ct = char_table()
    *rest, six = ct.irreducibles
    wrong = CharVector((Gold(5),) + six.values[1:], six.label)
    monkeypatch.setattr(ct, "irreducibles", (*rest, wrong))
    assert registered("chars.columns")().status == "fail"


def test_chars_tensor_names_the_factors_of_a_failure(monkeypatch):
    wrong = checks.TENSOR_IDENTITIES + ((("2b",), ("4b",), "3a+5"),)
    monkeypatch.setattr(checks, "TENSOR_IDENTITIES", wrong)
    r = registered("chars.tensor")()
    assert r.status == "fail"
    assert r.actual == "(2b)*(4b) = 3b+5 != 3a+5"
