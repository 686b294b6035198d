"""Golds are built only to print: class-function arithmetic, the Galois map,
decomposition, branching and quaternion printing run on the integers."""
from functools import reduce
from itertools import combinations_with_replacement
from operator import mul

from icosian.chars import LABELS, char_table
from icosian.goldnum import Gold
from icosian.quat import I, OMEGA, PHI, THETA, ZERO
from icosian.reflgroup import build_o1


def test_character_layer_and_quaternion_printing_build_no_gold(monkeypatch):
    ct, elements = char_table(), build_o1().elements

    def no_gold(self, *args):
        raise AssertionError(f"built Gold{args}")
    monkeypatch.setattr(Gold, "__init__", no_gold)
    for chi in ct.irreducibles:
        chi.galois()
    for k in (2, 3, 4):
        for labels in combinations_with_replacement(LABELS, k):
            chi = reduce(mul, (ct.by_label[lab] for lab in labels))
            chi.galois()
            ct.decompose(chi)
    # spin 12, as `icosian branch --max-two-j 24` prints it
    assert ct.decompose(ct.hyperspin(24)) == {"1": 1, "3a": 1, "3b": 1, "4a": 2, "5": 2}
    for q in (ZERO, I, -I, OMEGA, PHI, THETA):
        str(q)
    for m in elements:
        m.key()
