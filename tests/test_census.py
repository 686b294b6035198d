from icosian import census
from icosian.qmat2 import QMat2
from icosian.quat import ZERO as Q_ZERO
from icosian.reflgroup import (
    build_o1,
    diagonal_subgroup,
    reflection_group,
    word_index,
)


def test_root_census_shape():
    classes = census.root_census()
    assert len(classes) == 10
    assert all(len(c.members) == 12 for c in classes)
    labels = [c.label for c in classes]
    assert labels.count("neutrino-like") == 1
    assert labels.count("electron-like") == 3
    assert labels.count("quark-like") == 6


def test_neutrino_class_has_zero_second_component():
    classes = census.root_census()
    nu = classes[0]
    assert nu.label == "neutrino-like"
    assert all(r.spinor.c2 == Q_ZERO for r in nu.members)


def test_root_bookkeeping():
    b = census.root_bookkeeping()
    assert b["states_by_label"] == {
        "neutrino-like": 12, "electron-like": 36, "quark-like": 72,
    }
    assert b["total"] == 120
    assert b["scalar_group_order"] == 12
    assert b["so3_image_order"] == 6
    assert b["so3_image_nonabelian"] is True


def test_order_totals():
    assert census.order_totals() == {
        1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24,
    }


def test_order4_census_pairs():
    c = census.order4_census()
    assert len(c.items) == 15
    assert all(len(p) == 2 for p in c.items)


def test_order4_actual_orbit_sizes():
    # the stated 3+6+6 does not hold; the observed structure is 3+3+3+6,
    # with the listed six-element third family a union of two 3-orbits
    assert census.order4_census().orbit_sizes == (3, 3, 3, 6)


def test_order4_claims_record_the_defect():
    claims = {c["name"]: c["pass"] for c in census.order4_claims()}
    assert claims["15 sign-pairs of order-4 elements"]
    assert claims["family inside-subgroup is one orbit of 3"]
    assert claims["family photon-like is one orbit of 6"]
    assert not claims["orbit sizes 3+6+6"]
    assert not claims["family paired-products is one orbit of 6"]


def test_q8_subgroups():
    all_q8, normalized = census.q8_subgroups()
    assert len(all_q8) == 5
    assert len(normalized) == 2


def test_order4_structure():
    s = census.order4_structure()
    assert s["q8_total"] == 5
    assert s["q8_normalized_by_g"] == 2
    assert s["photon_orbit_fills_q8_pair"] is True
    matching = s["product_matching"]
    assert matching is not None
    assert len(matching) == 3
    assert len({i for pair in matching for i in pair}) == 6


def test_order3_census():
    c = census.order3_census()
    assert len(c.items) == 10
    assert c.orbit_sizes == (1, 3, 6)


def test_order5_census():
    c = census.order5_census()
    assert c["cyclic_groups"] == 6
    assert c["sign_classes_each"] == 4
    assert c["sign_classes_total"] == 24
    assert c["covered"] is True


def test_index_work_makes_no_matrix_products(monkeypatch):
    # once G is closed, its subgroups, words and censuses are index work on
    # its Cayley graph
    build_o1()
    calls = 0
    mul = QMat2.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(QMat2, "__mul__", counting_mul)
    diagonal_subgroup.cache_clear()
    reflection_group.cache_clear()
    diagonal_subgroup(), reflection_group(), word_index("fghfgh")
    census.order4_claims(), census.order4_structure()
    census.order3_census(), census.order5_census()
    assert calls == 0
