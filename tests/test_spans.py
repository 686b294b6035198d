import random

from hypothesis import given
from hypothesis import strategies as st

from icosian.qmat2 import IDENTITY, QMat2
from icosian.quat import Quat
from icosian.reflgroup import build_o1, generators, reflection_matrices
from icosian.spans import (
    algebra_closure,
    algebra_closure_dim,
    flatten,
    is_galois_stable,
    neutrino_algebra_report,
    reflection_algebra_report,
    span_dim,
    su2_u1_split_report,
)
from conftest import golds, quats

mats = st.builds(QMat2, quats, quats, quats, quats)
coord_vectors = st.lists(golds, min_size=16, max_size=16)


@given(coord_vectors)
def test_flatten_unflatten_roundtrip(coords):
    m = QMat2(*(Quat(*coords[i:i + 4]) for i in range(0, 16, 4)))
    assert flatten(m) == coords


@given(mats, mats)
def test_flatten_additive(a, b):
    fa, fb = flatten(a), flatten(b)
    assert flatten(a + b) == [x + y for x, y in zip(fa, fb)]


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
    one, zero = Quat.of(1), Quat.of(0)
    e12, e21 = QMat2(zero, one, zero, zero), QMat2(zero, zero, one, zero)
    assert algebra_closure_dim([e12, e21]) == algebra_closure_dim([e21, e12]) == 4


def test_closure_equals_span_of_generated_subgroup():
    # inside a finite group the generated algebra is the span of the
    # generated subgroup, a second route to the same dimension
    g = build_o1()
    rng = random.Random(5)
    dims = []
    for _ in range(12):
        idx = [rng.randrange(len(g)) for _ in range(rng.randint(2, 3))]
        sub = g.subgroup_indices(idx)
        dims.append(algebra_closure_dim([g.elements[i] for i in idx]))
        assert dims[-1] == span_dim([g.elements[i] for i in sub])
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
    assert all(c["pass"] for c in neutrino_algebra_report())


def test_su2_u1_report_all_pass():
    assert all(c["pass"] for c in su2_u1_split_report())


def test_reflection_report_all_pass():
    assert all(c["pass"] for c in reflection_algebra_report())
