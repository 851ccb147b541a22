from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from reference import FractionEchelonBasis
from spanrep.linalg import EchelonBasis, _standard_side, quotient_trace, stable_trace

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


def _orbit(vec, sigma, signs):
    """vec and its images under the powers of the signed column permutation
    sending column c to signs[c] * sigma[c]."""
    out, img = [], dict(vec)
    while True:
        out.append(img)
        img = {sigma[c]: signs[c] * v for c, v in img.items()}
        if img == vec:
            return out


def _stable_spans(system, sigma, signs):
    """The span of the orbits of system's vectors, which is stable under
    the signed permutation, in the integer core and in the reference."""
    fast, ref = EchelonBasis(), FractionEchelonBasis()
    for vec in system:
        for img in _orbit(vec, sigma, signs):
            fast.insert(img)
            ref.insert(img)
    return fast, ref


def _column_image(sigma, signs=(1,) * NCOLS):
    """The image(columns) of the readouts for the signed permutation."""
    return lambda columns: ((sigma[c], signs[c]) for c in columns)


def _reference_traces(ref, sigma, signs):
    """Traces of g . c = signs[c] * sigma[c] on the whole space, the signs
    of the fixed columns summed, and on the span of the reference's
    pivot-1 rows, (g . row)[p] = signs[c] * row[c] for c = sigma^{-1}(p)
    summed over the pivots p."""
    sigma_inv = {s: c for c, s in enumerate(sigma)}
    whole = sum(signs[c] for c, s in enumerate(sigma) if c == s)
    span = sum(
        (signs[sigma_inv[p]] * row.get(sigma_inv[p], 0) for p, row in ref.rows()), Fraction(0)
    )
    assert span.denominator == 1
    return whole, span


column_signs = st.lists(st.sampled_from((1, -1)), min_size=NCOLS, max_size=NCOLS)


@settings(max_examples=100, deadline=None)
@given(systems, st.permutations(range(NCOLS)), column_signs)
def test_trace_readout_matches_fraction_reference(system, sigma, signs):
    fast, ref = _stable_spans(system, sigma, signs)
    _, span = _reference_traces(ref, sigma, signs)
    assert stable_trace(fast, _column_image(sigma, signs)) == span


@settings(max_examples=100, deadline=None)
@given(systems, st.permutations(range(NCOLS)), column_signs)
def test_quotient_readout_matches_fraction_reference_on_each_side(system, sigma, signs):
    # the standard side, and quotient_trace on whichever side is smaller,
    # must give the trace on the whole space minus the trace on the span;
    # the row side is that difference with stable_trace, tested above
    fast, ref = _stable_spans(system, sigma, signs)
    whole, span = _reference_traces(ref, sigma, signs)
    standard = fast.non_pivots(range(NCOLS))
    assert standard == [c for c in range(NCOLS) if c not in ref.pivots()]
    image = _column_image(sigma, signs)
    assert _standard_side(fast, standard, image) == whole - span
    assert quotient_trace(fast, standard, image, whole) == whole - span


def test_trace_readout_rejects_an_unstable_span():
    basis = EchelonBasis()
    basis.insert({0: 2, 1: 1})  # stored with pivot coefficient 2
    swap = {0: 1, 1: 0}
    with pytest.raises(RuntimeError, match="non-integer trace"):
        stable_trace(basis, _column_image(swap))
    # the quotient is spanned by column 1, which the swap sends to the pivot
    with pytest.raises(RuntimeError, match="non-integer trace"):
        _standard_side(basis, basis.non_pivots(range(2)), _column_image(swap))


@pytest.mark.parametrize(
    "vec",
    [
        pytest.param({0: 3, 1: 0, 2: -2, 3: 0}, id="ints-with-zeros"),
        pytest.param({0: 3, 1: 4, 2: -2}, id="ints"),
        pytest.param({2: 1, 3: 4}, id="ints-stored-as-given"),
        pytest.param({0: True, 1: False, 3: True}, id="bools"),
        pytest.param({0: Fraction(1, 2), 1: 2, 2: 0, 3: Fraction(-3, 4)}, id="mixed-fractions"),
    ],
)
@pytest.mark.parametrize("method", ["insert", "contains", "reduce"])
def test_readers_leave_their_argument_unchanged(vec, method):
    # callers such as harmonic_closure keep the dicts they insert
    vec = dict(vec)  # the parameter is shared by every method's case
    basis = EchelonBasis()
    basis.insert({0: 2, 2: 5})
    basis.insert({1: 3, 3: 1})
    before = [(k, type(c), c) for k, c in vec.items()]
    getattr(basis, method)(vec)
    # a later insert back-substitutes into every row holding column 2
    basis.insert({2: 1})
    assert [(k, type(c), c) for k, c in vec.items()] == before


def test_reduce_is_exact_against_non_unit_pivots():
    basis = EchelonBasis()
    basis.insert({0: 3, 2: 1})
    basis.insert({1: Fraction(5, 2), 2: Fraction(1, 3)})
    assert basis.primitive_rows() == [(0, {0: 3, 2: 1}), (1, {1: 15, 2: 2})]
    assert basis.reduce({0: 1, 1: 1, 2: 1}) == {2: Fraction(1) - Fraction(1, 3) - Fraction(2, 15)}
