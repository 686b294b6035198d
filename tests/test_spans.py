import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icosian.goldnum import Gold
from icosian.groupkit import FiniteGroup
from icosian.linalg import Echelon, rank
from icosian.qmat2 import IDENTITY, QMat2
from icosian.quat import I, OMEGA, PHI, Quat
from icosian.reflgroup import build_o1, generators, reflection_matrices
from icosian.spans import (
    algebra_closure,
    algebra_closure_dim,
    flatten,
    g_trace_pairs,
    gram_rank,
    is_galois_stable,
    neutrino_algebra_report,
    reflection_algebra_report,
    span_dim,
    su2_u1_split_report,
    subgroup_span_dim,
    trace_pairs,
)
from conftest import golds, mats
from reference import Q5, dot, madd, mat, values

coord_vectors = st.lists(golds, min_size=16, max_size=16)
small_golds = st.builds(Gold, st.integers(-2, 2), st.integers(-1, 1), st.sampled_from([1, 2]))
small_quats = st.builds(Quat, small_golds, small_golds, small_golds, small_golds)
small_mats = st.builds(QMat2, small_quats, small_quats, small_quats, small_quats)
ONE, ZERO = Quat.of(1), Quat.of(0)
E12, E21 = QMat2(ZERO, ONE, ZERO, ZERO), QMat2(ZERO, ZERO, ONE, ZERO)


def reference_closure_dim(mats):
    """All-pairs semi-naive closure: each basis element times itself and, on
    both sides, every earlier one."""
    ech = Echelon(16)
    basis = [m for m in mats if ech.add(m.ints)]
    k = 0
    while k < len(basis) and ech.dim < ech.width:
        new = basis[k]
        products = [new * new]
        for old in basis[:k]:
            products += [new * old, old * new]
        for p in products:
            if ech.add(p.ints):
                basis.append(p)
        k += 1
    return ech.dim


@given(coord_vectors)
def test_flatten_unflatten_roundtrip(coords):
    m = QMat2(*(Quat(*coords[i:i + 4]) for i in range(0, 16, 4)))
    assert flatten(m) == coords


@given(mats, mats)
def test_flatten_additive(a, b):
    assert mat(a + b) == madd(mat(a), mat(b))


@given(mats)
def test_span_of_single_matrix(m):
    expected = 1 if any(flatten(m)) else 0
    assert span_dim([m]) == expected


def test_span_examples():
    _, g, _ = generators()
    assert span_dim([IDENTITY]) == 1
    assert span_dim([IDENTITY, g, g * g]) == 3


def test_gamma_span_is_5():
    from icosian.reflgroup import gamma_matrices
    assert span_dim([IDENTITY, *gamma_matrices()]) == 5


def test_reflection_algebra_dim_16():
    assert algebra_closure_dim(list(reflection_matrices())) == 16


def test_group_span_dim_16():
    assert span_dim(list(build_o1().elements)) == 16


def test_neutrino_algebra_dims():
    _, g, h = generators()
    assert algebra_closure_dim([IDENTITY, g, g * g]) == 3
    assert algebra_closure_dim([IDENTITY, g, g * g, h]) == 6


def test_closure_monotone_and_idempotent():
    _, g, h = generators()
    small = [IDENTITY, g]
    bigger = [IDENTITY, g, h]
    assert algebra_closure_dim(small) <= algebra_closure_dim(bigger)
    _, basis = algebra_closure(bigger)
    assert algebra_closure_dim(basis) == len(basis)


def test_closure_forms_products_in_both_orders():
    # e12 * e21 = e11 and e21 * e12 = e22: only both orders give all four
    assert algebra_closure([E12, E21])[0] == algebra_closure([E21, E12])[0] == 4


def verify_sets():
    _, g, h = generators()
    return [list(reflection_matrices()), [IDENTITY, g, g * g], [IDENTITY, g, g * g, h]]


def test_closure_matches_all_pairs_reference_on_group_sets():
    # both spans routes and the all-pairs reference, on verify's three sets,
    # every singleton of G and 40 seeded sets of two or three elements
    g = build_o1()
    rng = random.Random(11)
    cases = verify_sets() + [[m] for m in g.elements]
    for _ in range(40):
        cases.append([g.elements[rng.randrange(len(g))]
                      for _ in range(rng.randint(2, 3))])
    dims = []
    for case in cases:
        dims.append(algebra_closure_dim(case))
        assert dims[-1] == algebra_closure(case)[0] == reference_closure_dim(case)
    assert dims[:3] == [16, 3, 6]


def test_closure_dim_makes_no_product(monkeypatch):
    # the subgroup-span route is index work on the Cayley table
    g = build_o1()
    calls = 0
    mul = QMat2.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    cases = verify_sets() + [[g.elements[5], g.elements[17], g.elements[40]]]
    monkeypatch.setattr(QMat2, "__mul__", counting_mul)
    dims = [algebra_closure_dim(case) for case in cases]
    assert calls == 0
    assert dims[:3] == [16, 3, 6]


def test_closure_dim_of_no_matrices_is_zero():
    assert algebra_closure_dim([]) == 0


def test_closure_dim_rejects_a_matrix_outside_g():
    with pytest.raises(ValueError):
        algebra_closure_dim([E12])
    with pytest.raises(ValueError):
        algebra_closure_dim([IDENTITY, E12 + E21])


def all_subgroups(g):
    """Every subgroup of G as an index set: each is generated by at most two
    elements, and two elements generate what two generators of their cyclic
    subgroups do, so pairs of cyclic generators reach them all."""
    cyclic = {g.subgroup_indices([i]): i for i in range(len(g))}
    gens = list(cyclic.values())
    subs = set(cyclic)
    for k, a in enumerate(gens):
        for b in gens[k + 1:]:
            subs.add(g.subgroup_indices([a, b]))
    return sorted(subs, key=lambda sub: (len(sub), sorted(sub)))


def test_closure_dim_on_every_subgroup_of_g():
    # the memo's whole domain: each subgroup's rank against the exact closure,
    # then asked again with the generators reversed and one repeated, so a
    # memo keyed on anything but the subgroup returns another subgroup's rank
    g = build_o1()
    subgroup_span_dim.cache_clear()
    subs = all_subgroups(g)
    inputs = [[g.elements[i] for i in g.generating_set(sub) or [0]] for sub in subs]
    dims = []
    for mats in inputs:
        dims.append(algebra_closure_dim(mats))
        assert dims[-1] == algebra_closure(mats)[0]
    for mats, dim in zip(inputs, dims):
        assert algebra_closure_dim(mats[::-1] + mats[-1:]) == dim
    assert len(subs) == 76
    assert subgroup_span_dim.cache_info().currsize == 76
    assert Counter(zip(map(len, subs), dims)) == {
        (1, 1): 1, (2, 1): 1, (3, 3): 10, (4, 2): 15, (5, 4): 6, (6, 3): 10,
        (8, 4): 5, (10, 4): 6, (12, 6): 10, (20, 8): 6, (24, 8): 5, (120, 16): 1}


# span_dim ranks up to 16 elements of G by their Gram matrix under the trace
# form; the rank of their 32 integers each is the reference

def row_rank(mats):
    return rank([m.ints for m in mats])


def test_gram_route_matches_row_route_on_seeded_subsets():
    g = build_o1()
    minus = g.index(-IDENTITY)
    rng = random.Random(24)
    dims = Counter()
    for _ in range(200):
        idx = [rng.randrange(len(g)) for _ in range(rng.randint(1, 16))]
        if rng.random() < 0.5:  # a sign pair and a repeat
            idx += [g.table[idx[0]][minus], idx[-1]]
            idx = idx[:16]
        rng.shuffle(idx)
        mats = [g.elements[i] for i in idx]
        dims[span_dim(mats)] += 1
        assert span_dim(mats) == gram_rank(idx) == row_rank(mats)
    assert set(dims) >= {1, 2, 4, 8, 12, 16}


def test_gram_route_matches_row_route_on_every_subgroup():
    g = build_o1()
    subs = all_subgroups(g)
    assert len(subs) == 76
    subgroup_span_dim.cache_clear()
    for sub in subs:
        mats = [g.elements[i] for i in sorted(sub)]
        assert gram_rank(sorted(sub)) == subgroup_span_dim(sub) == row_rank(mats)


def assert_trace_form_is_the_coordinate_dot_product(group, pairs):
    """tau(x^-1 y) over the common denominator of ``trace_pairs`` (read off
    tau(1) = 2) is the dot product of the 16 coordinates of x and y."""
    tau = trace_pairs(group.elements, group.inverse)
    den = tau[0][0] // 2
    assert tau[0] == (2 * den, 0)
    t, inv = group.table, group.inverse
    for i, j in pairs:
        x, y = (values(flatten(group.elements[k])) for k in (i, j))
        assert Q5(*tau[t[inv[i]][j]], den) == dot([1] * 16, x, y)


def test_trace_form_is_the_coordinate_dot_product():
    g = build_o1()
    rng = random.Random(7)
    assert_trace_form_is_the_coordinate_dot_product(
        g, [(rng.randrange(len(g)), rng.randrange(len(g))) for _ in range(200)])
    assert g_trace_pairs() == trace_pairs(g.elements, g.inverse)
    # on G every diagonal real part is rational; diag(q, q^2), q of order 10
    # in the unit quaternions, has real parts with sqrt5 parts that neither
    # add nor cancel to zero in every element of its cyclic group
    quats = FiniteGroup.closure([I, OMEGA, PHI], lambda p, q: p * q, ONE)
    q = next(x for k, x in enumerate(quats.elements) if quats.element_order(k) == 10)
    cyclic = FiniteGroup.closure([QMat2.diag(q, q * q)], lambda a, b: a * b, IDENTITY)
    assert len(cyclic) == 10
    assert any(m.ints[1] + m.ints[25] for m in cyclic.elements)
    assert any(m.ints[1] - m.ints[25] for m in cyclic.elements)
    assert_trace_form_is_the_coordinate_dot_product(
        cyclic, [(i, j) for i in range(10) for j in range(10)])


def test_a_corrupted_element_fails_the_unitarity_check():
    g = build_o1()
    m = g.elements[7]
    corrupted = list(g.elements)
    corrupted[7] = QMat2(m.m11, m.m12 + I, m.m21, m.m22)
    with pytest.raises(ValueError, match="not unitary"):
        trace_pairs(corrupted, g.inverse)
    scaled = list(g.elements)
    scaled[7] = QMat2.diag(Quat.of(2), Quat.of(2)) * m
    with pytest.raises(ValueError, match="not unitary"):
        trace_pairs(scaled, g.inverse)
    swapped = list(g.inverse)
    swapped[7], swapped[8] = swapped[8], swapped[7]
    with pytest.raises(ValueError, match="not unitary"):
        trace_pairs(g.elements, swapped)


def test_closure_dim_ranks_each_subgroup_once(monkeypatch):
    # a repeated query, and other inputs that generate the same subgroup, are
    # answered from the memo without an elimination step
    _, gen_g, gen_h = generators()
    group = [list(reflection_matrices()), list(reflection_matrices())[::-1]]
    corners = [[IDENTITY, gen_g, gen_g * gen_g, gen_h], [gen_h, gen_g]]
    algebra_closure_dim(group[0])
    algebra_closure_dim(corners[0])
    calls = 0
    add = Echelon.add

    def counting_add(self, row):
        nonlocal calls
        calls += 1
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counting_add)
    assert [algebra_closure_dim(m) for m in group + corners] == [16, 16, 6, 6]
    assert calls == 0
    subgroup_span_dim.cache_clear()
    assert algebra_closure_dim(corners[1]) == 6
    assert calls > 0


def test_closure_matches_reference_on_singular_inputs():
    # non-invertible inputs; e12 squares to zero, so its algebra is its line
    for case in ([E12], [E12, E21], [E12, E12 + E12]):
        assert algebra_closure(case)[0] == reference_closure_dim(case)
    assert algebra_closure([E12])[0] == 1


@settings(max_examples=25, deadline=None)
@given(small_mats, small_mats)
def test_closure_matches_reference_on_small_pairs(a, b):
    assert algebra_closure([a, b])[0] == reference_closure_dim([a, b])


def test_closure_multiplies_on_generator_edges_only(monkeypatch):
    # each processed basis element is multiplied once by each independent input
    g = build_o1()
    calls = 0
    mul = QMat2.__mul__

    def counting_mul(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(QMat2, "__mul__", counting_mul)
    cases = [list(reflection_matrices()), [E12, E21, E12 + E21],
             [g.elements[5], g.elements[17], g.elements[5]]]
    total = 0
    for case in cases:
        independent = span_dim(case)
        calls = 0
        _, basis = algebra_closure(case)
        assert calls <= independent * len(basis)
        total += calls
    assert total > 0


def test_closure_builds_no_gold(monkeypatch):
    # the products and the elimination both run on QMat2.ints
    g = build_o1()
    _, gen_g, gen_h = generators()
    cases = [list(reflection_matrices()), [IDENTITY, gen_g, gen_g * gen_g, gen_h],
             [g.elements[5], g.elements[17], g.elements[40]]]
    calls = 0
    init = Gold.__init__

    def counting_init(self, *args):
        nonlocal calls
        calls += 1
        init(self, *args)

    monkeypatch.setattr(Gold, "__init__", counting_init)
    dims = [algebra_closure(case)[0] for case in cases]
    assert calls == 0
    assert dims[:2] == [16, 6]


def test_closure_equals_span_of_generated_subgroup():
    # inside a finite group the generated algebra is the span of the
    # generated subgroup: algebra_closure_dim takes that route, and the
    # exact closure must agree with it
    g = build_o1()
    rng = random.Random(5)
    dims = []
    for _ in range(12):
        mats = [g.elements[rng.randrange(len(g))] for _ in range(rng.randint(2, 3))]
        dims.append(algebra_closure_dim(mats))
        assert dims[-1] == algebra_closure(mats)[0]
    assert 16 in dims


def test_galois_stability():
    _, g, _ = generators()
    assert is_galois_stable([IDENTITY, g, g * g])
    assert is_galois_stable(list(reflection_matrices()))
    # the rank-6 algebra is NOT stable: its second corner spans only
    # {1, phi} and the automorphism moves phi out of that plane
    _, h = generators()[1], generators()[2]
    _, basis = algebra_closure([IDENTITY, g, g * g, h])
    assert not is_galois_stable(basis)


def test_neutrino_report_all_pass():
    assert all(c.ok for c in neutrino_algebra_report())


def test_su2_u1_report_all_pass():
    assert all(c.ok for c in su2_u1_split_report())


def test_reflection_report_all_pass():
    assert all(c.ok for c in reflection_algebra_report())
