"""reference.py on literals that do not depend on icosian, its independence
from icosian, and the conftest guard against Gold arithmetic."""
import ast
from pathlib import Path

import pytest

import reference
from icosian.goldnum import Gold
from reference import Q5, contains, qmul, rank

Q0, Q1, HALF = Q5(0), Q5(1), Q5(1, 0, 2)
ONE, MINUS_ONE = (Q1, Q0, Q0, Q0), (-Q1, Q0, Q0, Q0)
I, J, K = (Q0, Q1, Q0, Q0), (Q0, Q0, Q1, Q0), (Q0, Q0, Q0, Q1)


def test_quaternion_literals():
    assert qmul(I, J) == K and qmul(J, I) == (Q0, Q0, Q0, -Q1)
    omega = (-HALF, HALF, HALF, HALF)
    assert qmul(qmul(omega, omega), omega) == ONE
    # phi = (i - sigma j - tau k)/2 with sigma, tau = (1 -+ sqrt5)/2
    phi = (Q0, HALF, Q5(-1, 1, 4), Q5(-1, -1, 4))
    assert qmul(phi, phi) == MINUS_ONE
    theta = (Q0, Q1, Q1, Q1)
    assert qmul(theta, theta) == (Q5(-3), Q0, Q0, Q0)


def test_rank_of_vectors_dependent_over_q_sqrt5():
    # the second vector is sqrt5 times the first
    root5 = Q5(0, 1)
    vectors = [[Q1, root5, Q0], [root5, Q5(5), Q0], [Q0, Q0, Q1]]
    assert rank(vectors) == 2
    assert contains(vectors[:1], vectors[1]) and not contains(vectors[:2], vectors[2])


def test_reference_imports_nothing_from_icosian():
    tree = ast.parse(Path(reference.__file__).read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules and not {m for m in modules if m.split(".")[0] == "icosian"}


def test_gold_arithmetic_fails_the_test_and_names_the_method():
    one, two = Gold(1), Gold(2)
    calls = {"__add__": lambda: one + two, "__radd__": lambda: 1 + two,
             "__sub__": lambda: one - two, "__rsub__": lambda: 1 - two,
             "__neg__": lambda: -one, "__mul__": lambda: one * two,
             "__rmul__": lambda: 2 * one, "inverse": lambda: two.inverse()}
    for name, call in calls.items():
        with pytest.raises(pytest.fail.Exception, match=f"^Gold.{name} called outside"):
            call()
    # building, comparing, hashing, truth and printing stay allowed
    assert Gold(2, 0, 2) == one and hash(one) == hash(1) and bool(two)
    assert str(Gold(1, 1, 2)) == "1/2+1/2√5"
