"""Exact rational scalars: the conversion from Q to integers."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mosipcert.rationals import Q, scaled_ints

NUMERATORS = st.integers(-(10**12), 10**12)
# ints and Q, zeros and negatives, denominators up to the prime 10**9 + 7
ENTRIES = st.one_of(
    NUMERATORS,
    st.just(0),
    st.builds(Q, NUMERATORS, st.integers(1, 10**9 + 7)),
    st.builds(Q, NUMERATORS, st.sampled_from([2, 3, 7, 10**9 + 7])),
)


@given(st.lists(ENTRIES, max_size=8))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scaled_ints_are_python_ints_over_the_lcm(values) -> None:
    ints, k = scaled_ints(values)
    assert k == math.lcm(*[Q(v).denominator for v in values])
    assert len(ints) == len(values)
    assert all(Q(i, k) == v for i, v in zip(ints, values))
    # the tableau and the kernels compute on Python ints on either backend
    assert type(k) is int
    assert all(type(i) is int for i in ints)
