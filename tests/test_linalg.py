from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from reference import FractionEchelonBasis, pivot_trace
from spanrep.linalg import EchelonBasis, stable_trace

NCOLS = 8

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
vectors = st.dictionaries(st.integers(0, NCOLS - 1), coefficients, max_size=5)
systems = st.lists(vectors, max_size=12)


def assert_primitive_and_reduced(basis):
    pivots = basis.pivots()
    for p, row in basis.primitive_rows():
        assert all(type(c) is int and c for c in row.values())
        assert row[p] > 0 and p == min(row)
        assert gcd(*row.values()) == 1
        assert not any(q in row for q in pivots if q != p)


@settings(max_examples=200, deadline=None)
@given(systems, vectors)
def test_integer_core_matches_fraction_reference(system, probe):
    fast, ref = EchelonBasis(), FractionEchelonBasis()
    for vec in system:
        assert fast.insert(vec) == ref.insert(vec)
    assert fast.rank == ref.rank
    assert fast.pivots() == ref.pivots()
    assert fast.rows() == ref.rows()
    assert fast.reduce(probe) == ref.reduce(probe)
    assert fast.contains(probe) == ref.contains(probe)
    assert_primitive_and_reduced(fast)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(vectors, st.booleans()), max_size=16), vectors)
def test_insert_after_releasing_the_index_matches_fraction_reference(steps, probe):
    # a released index is rebuilt from the rows, so later inserts stay exact
    fast, ref = EchelonBasis(), FractionEchelonBasis()
    for vec, release in steps:
        if release:
            fast.release_index()
        assert fast.insert(vec) == ref.insert(vec)
    assert fast.rows() == ref.rows()
    assert fast.reduce(probe) == ref.reduce(probe)
    assert_primitive_and_reduced(fast)


def _orbit(vec, sigma):
    """vec and its images under the powers of the column permutation sigma."""
    out, img = [], dict(vec)
    while True:
        out.append(img)
        img = {sigma[c]: v for c, v in img.items()}
        if img == vec:
            return out


@settings(max_examples=100, deadline=None)
@given(systems, st.permutations(range(NCOLS)))
def test_trace_readout_matches_fraction_reference(system, sigma):
    # the span of whole sigma-orbits is sigma-stable, so the trace exists
    fast, ref = EchelonBasis(), FractionEchelonBasis()
    for vec in system:
        for img in _orbit(vec, sigma):
            fast.insert(img)
            ref.insert(img)
    sigma_inv = {s: c for c, s in enumerate(sigma)}
    want = pivot_trace(ref, sigma_inv.__getitem__)
    assert want.denominator == 1
    assert stable_trace(fast, lambda p, row: row.get(sigma_inv[p], 0)) == want


def test_trace_readout_rejects_an_unstable_span():
    basis = EchelonBasis()
    basis.insert({0: 2, 1: 1})  # stored with pivot coefficient 2
    swap = {0: 1, 1: 0}
    with pytest.raises(RuntimeError, match="non-integer trace"):
        stable_trace(basis, lambda p, row: row.get(swap[p], 0))


def test_reduce_is_exact_against_non_unit_pivots():
    basis = EchelonBasis()
    basis.insert({0: 3, 2: 1})
    basis.insert({1: Fraction(5, 2), 2: Fraction(1, 3)})
    assert basis.primitive_rows() == [(0, {0: 3, 2: 1}), (1, {1: 15, 2: 2})]
    assert basis.reduce({0: 1, 1: 1, 2: 1}) == {2: Fraction(1) - Fraction(1, 3) - Fraction(2, 15)}
