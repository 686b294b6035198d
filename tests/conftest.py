"""Shared hypothesis strategies, and the guard that keeps Gold arithmetic out
of every test but test_goldnum: the tests compute their oracles in
reference.py."""
import pytest
from hypothesis import strategies as st

from icosian.goldnum import Gold
from icosian.qmat2 import QMat2
from icosian.quat import Quat

golds = st.builds(
    Gold,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-60, max_value=60),
    # the nonzero denominators in [-12, 12], sampled rather than filtered
    st.sampled_from([d for k in range(1, 13) for d in (k, -k)]),
)

nonzero_golds = golds.filter(bool)

quats = st.builds(Quat, golds, golds, golds, golds)

mats = st.builds(QMat2, quats, quats, quats, quats)

GOLD_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "inverse")


@pytest.fixture(autouse=True)
def no_gold_arithmetic(request, monkeypatch):
    """Outside test_goldnum, a call to a Gold arithmetic method fails the
    test and names the method; building, comparing, hashing, truth and
    printing stay allowed."""
    if request.path.name == "test_goldnum.py":
        return
    for name in GOLD_ARITHMETIC:
        def refuse(*args, name=name):
            pytest.fail(f"Gold.{name} called outside test_goldnum")
        monkeypatch.setattr(Gold, name, refuse)
