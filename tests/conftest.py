"""Shared hypothesis strategies for the exact-arithmetic layers."""
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
