import copy
from functools import reduce
from itertools import combinations_with_replacement
from operator import add, mul, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icosian import chars
from icosian.chars import (
    CharTable, CharVector, LABELS, build_quat_lift, char_table, format_decomposition,
    gauge_bookkeeping,
)
from icosian.goldnum import Gold, dot_pairs, flatten
from icosian.quat import PHI, Quat
from icosian.reflgroup import build_o1
from conftest import golds
from reference import Q5, class_inner, dot, norm, quat, values


def ct():
    return char_table()


def test_labels_and_dimensions():
    table = ct()
    assert tuple(table.by_label) == LABELS
    assert tuple(table.by_label.values()) == table.irreducibles
    dims = [1, 2, 2, 3, 3, 4, 4, 5, 6]
    # the identity class is first
    assert [flatten(chi)[0] for chi in table.irreducibles] == [Gold(d) for d in dims]
    assert [chi.degree() for chi in table.irreducibles] == dims
    assert sum(d * d for d in dims) == 120


def test_class_shapes():
    table = ct()
    assert sorted(table.class_sizes) == [1, 1, 12, 12, 12, 12, 20, 20, 30]
    assert table.class_orders == (1, 2, 3, 4, 5, 5, 6, 10, 10)


def test_lift_is_multiplicative():
    # build_quat_lift raises if the lift disagrees on any of the 120 * 3
    # generator edges, which by induction covers all 120^2 products
    lift = build_quat_lift(build_o1())
    assert len(lift) == 120
    assert all(norm(quat(q)) == Q5(1) for q in lift)


def test_lift_check_catches_a_corrupted_edge():
    g = copy.copy(build_o1())
    edges = [list(row) for row in g.edges]
    edges[7][2] = edges[7][1]
    g.edges = [tuple(row) for row in edges]
    with pytest.raises(ValueError, match="not multiplicative"):
        build_quat_lift(g)


@pytest.mark.parametrize("image", [
    -PHI,  # generates the same group, but fails (fh)^3 = 1
    PHI * Quat.of(2),  # of infinite order: fails (gh)^2 = h^2 = -1 and (fh)^3 = 1
])
def test_a_bad_lift_raises_value_error(monkeypatch, image):
    monkeypatch.setattr(chars, "PHI", image)
    with pytest.raises(ValueError, match=r"^relations fail: (ghgh = -1; hh = -1; )?fhfhfh = 1$"):
        build_quat_lift(build_o1())


def assert_decomposes(table, chi, mults):
    """decompose's reference: each multiplicity is the inner product with
    its irreducible, none is 0, and the irreducibles so counted sum to chi."""
    x, total = values(flatten(chi)), [Q5(0)] * len(table.classes)
    assert set(mults) <= set(LABELS) and all(m > 0 for m in mults.values())
    for label, irr in table.by_label.items():
        m, y = Q5(mults.get(label, 0)), values(flatten(irr))
        assert class_inner(table.class_sizes, x, y) == m
        total = [t + m * v for t, v in zip(total, y)]
    assert total == x


def test_row_orthonormality():
    # each irreducible decomposes as itself once, which the construction
    # requires; the 81 pairings also hold in the reference arithmetic
    table = ct()
    for label, chi in table.by_label.items():
        assert table.decompose(chi) == {label: 1}
        assert_decomposes(table, chi, {label: 1})


class_functions = st.lists(golds, min_size=9, max_size=9).map(
    lambda values: CharVector(tuple(values)))


@given(class_functions, class_functions,
       st.lists(st.integers(min_value=-30, max_value=30), min_size=9, max_size=9),
       st.integers(min_value=1, max_value=130))
def test_dot_pairs_matches_gold_sum_on_class_functions(chi, psi, weights, den):
    rat, root = dot_pairs(chi.ints, psi.ints, weights)
    assert Q5(rat, root, chi.den * psi.den * den) == \
        dot(weights, values(flatten(chi)), values(flatten(psi))) * Q5(1, 0, den)


@given(class_functions, class_functions)
def test_class_function_arithmetic_matches_gold_values(chi, psi):
    x, y = values(flatten(chi)), values(flatten(psi))
    assert values(flatten(chi * psi)) == [a * b for a, b in zip(x, y)]
    assert values(flatten(chi + psi)) == [a + b for a, b in zip(x, y)]
    assert values(flatten(chi - psi)) == [a - b for a, b in zip(x, y)]
    coeffs = flatten(chi)
    assert flatten(chi.galois()) == [Gold(a.na, -a.nb, a.den) for a in coeffs]
    assert CharVector(coeffs) == chi and hash(CharVector(coeffs)) == hash(chi)


def test_column_orthogonality():
    table = ct()
    assert table.columns_orthogonal()
    columns = list(zip(*(values(flatten(chi)) for chi in table.irreducibles)))
    for c, x in enumerate(columns):
        for d, y in enumerate(columns):
            want = Q5(120, 0, table.class_sizes[c]) if c == d else Q5(0)
            assert dot([1] * len(x), x, y) == want


def test_column_check_fails_on_a_repeated_character(monkeypatch):
    table = ct()
    irr = table.irreducibles
    # 4b in place of 4a: the rows are still characters, the columns not orthogonal
    monkeypatch.setattr(table, "irreducibles", irr[:5] + (irr[6],) + irr[6:])
    assert not table.columns_orthogonal()


def test_fs_indicators():
    table = ct()
    expected = {"1": 1, "2a": -1, "2b": -1, "3a": 1, "3b": 1,
                "4a": 1, "4b": -1, "5": 1, "6": -1}
    assert {label: table.fs_indicator(chi)
            for label, chi in zip(LABELS, table.irreducibles)} == expected


def test_fs_indicator_matches_gold_sum():
    # (1/|G|) sum of chi(x^2) over the elements x, in the reference arithmetic
    table = ct()
    t, class_of, n = table.group.table, table.partition.class_of, len(table.group)
    for chi in table.irreducibles:
        x = values(flatten(chi))
        squares = [x[class_of[t[i][i]]] for i in range(n)]
        assert Q5(table.fs_indicator(chi)) == class_inner([1] * n, squares, [Q5(1)] * n)


def test_galois_label_action():
    table = ct()
    swaps = {"2a": "2b", "2b": "2a", "3a": "3b", "3b": "3a"}
    for lab in LABELS:
        target = swaps.get(lab, lab)
        assert table.by_label[lab].galois() == table.by_label[target]
        assert flatten(table.by_label[target]) == [
            Gold(v.na, -v.nb, v.den) for v in flatten(table.by_label[lab])]


TENSOR_CASES = [
    ("2a", "2a", "1+3a"),
    ("2a", "2b", "4a"),
    ("2b", "2b", "1+3b"),
    ("2b", "3a", "6"),
    ("2b", "4b", "3b+5"),
    ("2b", "3b", "2b+4b"),
    ("4a", "4a", "1+3a+3b+4a+5"),
    ("4b", "4b", "1+3a+3b+4a+5"),
    ("2a", "4b", "3a+5"),
]


@pytest.mark.parametrize("a,b,want", TENSOR_CASES)
def test_tensor_identities(a, b, want):
    table = ct()
    got = table.decompose(table.by_label[a] * table.by_label[b])
    assert format_decomposition(got) == want


def test_sum_tensor_identities():
    table = ct()
    s = table.by_label["2a"] + table.by_label["2b"]
    assert format_decomposition(table.decompose(s * s)) == "1+1+3a+3b+4a+4a"
    assert format_decomposition(
        table.decompose(s * table.by_label["4b"])) == "3a+3b+5+5"
    assert format_decomposition(
        table.decompose(table.by_label["2a"] * s)) == "1+3a+4a"


def test_a_class_function_of_the_wrong_length_is_rejected():
    # the trivial character cut to 8 classes or grown to 10: decompose and
    # fs_indicator raise instead of reading the missing class as absent or
    # ignoring the extra one
    table = ct()
    values = flatten(table.by_label["1"])
    for wrong in (values[:8], values + [Gold(1)]):
        chi = CharVector(wrong)
        for read in (table.decompose, table.fs_indicator):
            with pytest.raises(ValueError, match=f"{len(wrong)} values, not 9"):
                read(chi)


def test_fs_indicator_rejects_a_sqrt5_part():
    # sqrt5 on the identity class only: chi(x^2) is sqrt5 on x = 1 and x = -1,
    # so the sum is 2*sqrt5/120, with a rational part 0 that is in range
    table = ct()
    chi = CharVector([Gold(0, 1)] + [Gold(0)] * 8)
    with pytest.raises(ValueError, match="indicator 1/60√5 outside"):
        table.fs_indicator(chi)


def test_class_functions_of_different_lengths_do_not_combine():
    # 2a cut to 8 classes against the full 2a: each operation raises
    # instead of dropping the ninth class
    chi = ct().by_label["2a"]
    short = CharVector(flatten(chi)[:8])
    for combine in (mul, add, sub):
        with pytest.raises(ValueError):
            combine(short, chi)


def test_decompose_rejects_non_character():
    table = ct()
    bogus = CharVector(tuple(Gold(1, 1, 2) for _ in table.classes))
    with pytest.raises(ValueError):
        table.decompose(bogus)


def build_with(monkeypatch, label, chi):
    """Build a fresh table whose irreducible `label` is chi, swapped in
    before the construction certifies the irreducibles by ``decompose``."""
    build = CharTable._build
    monkeypatch.setattr(CharTable, "_build", lambda self: tuple(
        chi if lab == label else irr for lab, irr in zip(LABELS, build(self))))
    return CharTable(build_o1())


def test_decompose_rejects_a_failed_reconstruction(monkeypatch):
    # with 5 listed twice and 6 missing, 5 decomposes as 5 + 6 with
    # multiplicities that are non-negative integers, and its reconstruction
    # fails when the table is built, before the multiplicities are compared
    with pytest.raises(ValueError, match="reconstruct"):
        build_with(monkeypatch, "6", ct().by_label["5"])


def test_a_table_with_a_zero_row_is_rejected(monkeypatch):
    # zero decomposes, and reconstructs, as no irreducible at all, so only
    # the test for multiplicity 1 catches it
    zero = ct().by_label["2a"] - ct().by_label["2a"]
    with pytest.raises(ValueError, match="character 2a is not irreducible"):
        build_with(monkeypatch, "2a", zero)


def test_hyperspin_rows():
    table = ct()
    rows = [format_decomposition(m) for _, m in table.hyperspin_table(7)]
    assert rows == ["1", "2a", "3a", "4b", "5", "6", "3b+4a", "2b+6"]


def test_hyperspin_covers_all_irreducibles():
    table = ct()
    covered = set()
    for _, m in table.hyperspin_table(7):
        covered |= set(m)
    assert covered == set(LABELS)


def test_hyperspin_dimensions():
    table = ct()
    for tj in range(8):
        assert flatten(table.hyperspin(tj))[0] == Gold(tj + 1)


def assert_spin_characters(table, spins):
    """hyperspin's reference: spins[k], the character of spin k/2, is 1 at
    k = 0, 2a at k = 1, and 2a * spins[k-1] - spins[k-2] after that."""
    two_a = values(flatten(table.by_label["2a"]))
    assert spins[0] == [Q5(1)] * len(two_a) and spins[1] == two_a
    for prev, cur, nxt in zip(spins, spins[1:], spins[2:]):
        assert nxt == [a * c - p for a, c, p in zip(two_a, cur, prev)]


def test_hyperspin_and_its_decomposition_match_gold_references():
    table = ct()
    spins = [table.hyperspin(tj) for tj in range(41)]
    assert_spin_characters(table, [values(flatten(chi)) for chi in spins])
    for chi in spins:
        assert_decomposes(table, chi, table.decompose(chi))


def test_decompose_matches_gold_reference_on_products():
    table = ct()
    for k in (2, 3):
        for labels in combinations_with_replacement(LABELS, k):
            chi = reduce(mul, (table.by_label[lab] for lab in labels))
            assert_decomposes(table, chi, table.decompose(chi))


def test_spin_sequence_is_kept_and_extended_in_any_order():
    down = CharTable(build_o1())
    spins = {tj: values(flatten(down.hyperspin(tj))) for tj in [24, *range(23, -1, -1)]}
    assert_spin_characters(down, [spins[tj] for tj in range(25)])
    assert len(down._spins) == 25
    up, spins = CharTable(build_o1()), []
    for tj in range(25):
        spins.append(values(flatten(up.hyperspin(tj))))
        assert len(up._spins) == tj + 1
    assert_spin_characters(up, spins)
    rows = CharTable(build_o1())
    rows.hyperspin_table(7)
    assert len(rows._spins) == 8


def test_hyperspin_rejects_negative():
    with pytest.raises(ValueError):
        ct().hyperspin(-1)


def test_gauge_bookkeeping():
    a, b = gauge_bookkeeping()
    for variant in (a, b):
        # (d/2)(d+1) for the characters 2a, 2b, 4b, 6 of indicator -1
        assert variant["symplectic_dims"] == [3, 3, 10, 21]
        lost = [s - k for s, k in zip(variant["symplectic_dims"], variant["kept_dims"])]
        assert lost == [0, 2, 7, 13]
        assert (variant["total"], variant["kept"], variant["lost"]) == (37, 15, 22)
        assert variant["lost_split"] == [2, 7, 13]
    assert a["variant"] != b["variant"]
    assert list(a) == ["variant", "symplectic_dims", "kept_dims", "total", "kept",
                       "lost", "lost_split", "lost_split_detail"]
