import pytest
from collections import Counter
from fractions import Fraction
from hypothesis import given, strategies as st
from math import comb, factorial

from spanrep.combinat import (
    GradedPoly,
    _des_maj_by_last_row,
    Partition,
    StandardTableau,
    count_partitions_bounded,
    cycle_type,
    des,
    des_maj_counts,
    maj,
    pad,
    partitions_of,
    perm_of_type,
    q_binomial,
    syt_count,
    syt_enumerate,
    unpad,
    z_lambda,
)
from spanrep.errors import PaddingError


# -- permutations --------------------------------------------------------


def test_cycle_type_reads_back_every_representative():
    for n in range(7):
        for rho in partitions_of(n):
            assert cycle_type(perm_of_type(rho, n)) == rho.parts


@given(st.permutations(range(7)))
def test_cycle_type_counts_orbits_of_every_point(w):
    # each point lies in a cycle as long as its orbit under w
    orbit_lengths = []
    for i in range(len(w)):
        j, length = w[i], 1
        while j != i:
            j, length = w[j], length + 1
        orbit_lengths.append(length)
    lengths = cycle_type(tuple(w))
    assert sum(lengths) == len(w)
    assert Counter(orbit_lengths) == Counter({ell: ell * c for ell, c in Counter(lengths).items()})


# -- partitions ----------------------------------------------------------


def test_partitions_of_zero():
    assert partitions_of(0) == [Partition()]


def test_partitions_of_four_canonical_order():
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_partitions_of_seven_contains_331():
    assert Partition((3, 3, 1)) in partitions_of(7)


@pytest.mark.parametrize("n,count", [(1, 1), (5, 7), (8, 22), (10, 42)])
def test_partition_counts(n, count):
    parts = partitions_of(n)
    assert len(parts) == count
    assert len(set(parts)) == count
    assert all(p.size == n for p in parts)


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


@pytest.mark.parametrize("parts", [(2.5, 1), (2.0,), ("3",), (True,), (2, False)])
def test_partition_refuses_parts_that_are_not_ints(parts):
    # int() would read these as [2, 1], [2], [3], [1] and [2, 0]
    with pytest.raises(ValueError, match="must be ints"):
        Partition(parts)


def test_conjugate_involution():
    for n in range(8):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam


# -- pad / unpad ---------------------------------------------------------


def test_pad_examples():
    assert pad(Partition(), 5) == Partition((5,))
    assert pad(Partition((3, 1)), 7) == Partition((3, 3, 1))
    with pytest.raises(PaddingError):
        pad(Partition((2,)), 3)


def test_pad_unpad_roundtrip():
    for n in range(8):
        for lam in partitions_of(n):
            assert pad(unpad(lam), n) == lam


# -- tableaux ------------------------------------------------------------


def test_syt_single_row():
    for n in range(1, 6):
        tabs = syt_enumerate(Partition((n,)))
        assert len(tabs) == 1
        assert tabs[0].rows == (tuple(range(1, n + 1)),)


def test_syt_small_shapes():
    assert len(syt_enumerate(Partition((2, 1)))) == 2
    assert len(syt_enumerate(Partition((2, 2)))) == 2


def test_syt_counts_match_hooks():
    for n in range(9):
        for lam in partitions_of(n):
            assert len(syt_enumerate(lam)) == syt_count(lam)


def test_syt_square_sum_is_factorial():
    # sum over shapes of (number of standard tableaux)^2 = n!
    for n in range(1, 9):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_syt_entries_unique():
    tabs = syt_enumerate(Partition((3, 2, 1)))
    assert len(set(t.rows for t in tabs)) == len(tabs) == 16


def test_tableau_validation():
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (3, 4, 5)))  # bad shape
    with pytest.raises(ValueError):
        StandardTableau(((1, 3), (2, 2)))  # repeated entry
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 4), (2, 3)))  # column not increasing


@pytest.mark.parametrize("rows", [((1.0,),), ((True,),), (("1", 2),), ((1, 2), (3.0,))])
def test_tableau_refuses_entries_that_are_not_ints(rows):
    with pytest.raises(ValueError, match="must be ints"):
        StandardTableau(rows)


def test_des_maj_worked_example():
    t = StandardTableau(((1, 3, 5, 6), (2, 4, 8), (7,)))
    assert des(t) == 3
    assert maj(t) == 10


def test_des_maj_extremes():
    row = syt_enumerate(Partition((5,)))[0]
    assert des(row) == 0 and maj(row) == 0
    col = syt_enumerate(Partition((1, 1, 1)))[0]
    assert des(col) == 2 and maj(col) == 3


def test_maj_lower_bound_on_padded_shapes():
    # maj(T) >= |mu| for every tableau of a padded shape
    for mu_size in range(4):
        for mu in partitions_of(mu_size):
            for n in range(mu.size + mu.first_part(), 9):
                for t in syt_enumerate(pad(mu, n)):
                    assert maj(t) >= mu.size


# -- (des, maj) counts ----------------------------------------------------


def test_des_maj_counts_match_enumeration():
    for n in range(10):
        for lam in partitions_of(n):
            full = Counter((des(t), maj(t)) for t in syt_enumerate(lam))
            assert des_maj_counts(lam) == full, lam
            for cap in range(9):
                expected = {dm: c for dm, c in full.items() if dm[1] <= cap}
                assert des_maj_counts(lam, cap) == expected, (lam, cap)


def test_des_maj_counts_edge_cases():
    assert des_maj_counts(Partition()) == {(0, 0): 1}
    assert des_maj_counts(Partition((2, 1)), -1) == {}
    assert des_maj_counts(Partition((1, 1, 1))) == {(2, 3): 1}
    keys = list(des_maj_counts(Partition((3, 2, 1))))
    assert keys == sorted(keys)


def test_des_maj_table_holds_one_entry_per_shape_and_corner():
    # an uncapped count stores each (sub-shape, row of its largest entry)
    # once, whatever cap the recursion above it carried
    def corners(shape):
        return [r for r, part in enumerate(shape) if part > (shape[r + 1:] or (0,))[0]]

    shape = (4, 2, 1, 1)
    seen, todo = set(), [(shape, r) for r in corners(shape)]
    while todo:
        sub, row = todo.pop()
        if (sub, row) in seen:
            continue
        seen.add((sub, row))
        smaller = tuple(part - (r == row) for r, part in enumerate(sub) if part - (r == row))
        todo += [(smaller, r) for r in corners(smaller)]
    _des_maj_by_last_row.cache_clear()
    des_maj_counts(Partition(shape))
    assert _des_maj_by_last_row.cache_info().currsize == len(seen)


def _q_int(m):
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return GradedPoly({(e, 0, 0): 1 for e in range(m)})


def test_maj_marginal_is_q_hook_length_formula():
    # sum_T q^maj(T) = q^b(lam) [n]_q! / prod_u [h(u)]_q  (Stanley, EC2 Cor. 7.21.5),
    # checked multiplied out: sum_T q^maj(T) * prod_u [h(u)]_q = q^b(lam) [n]_q!
    for n in range(10):
        q_factorial = GradedPoly.const(1)
        for m in range(1, n + 1):
            q_factorial = q_factorial * _q_int(m)
        for lam in partitions_of(n):
            marginal = GradedPoly.zero()
            for (_, m), c in des_maj_counts(lam).items():
                marginal = marginal + GradedPoly.term(c, q=m)
            conj = lam.conjugate().parts
            hooks = GradedPoly.const(1)
            for i, row_len in enumerate(lam.parts):
                for j in range(row_len):
                    hooks = hooks * _q_int((row_len - j) + (conj[j] - i) - 1)
            b = sum(i * part for i, part in enumerate(lam.parts))
            assert marginal * hooks == GradedPoly.term(1, q=b) * q_factorial, lam


def test_des_maj_counts_freeze_under_first_row_extension():
    # count-level form of the box-adding bijection: for n > 2s, appending a
    # box to the first row keeps every (des, maj) class with maj <= s
    for s in range(8):
        for size in range(s + 1):
            for mu in partitions_of(size):
                for n in range(2 * s + 1, 2 * s + 6):
                    assert des_maj_counts(pad(mu, n), s) == des_maj_counts(pad(mu, n + 1), s), (
                        mu, s, n,
                    )


# -- q-binomials ---------------------------------------------------------


def _box_partition_count(k, m, size):
    return sum(1 for lam in partitions_of(size) if lam.fits_in_box(k, m))


def test_q_binomial_examples():
    assert q_binomial(1, 0) == GradedPoly.const(1)
    assert q_binomial(3, 1) == GradedPoly({(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1})
    assert q_binomial(4, 2).as_str() == "1+q+2*q^2+q^3+q^4"


def test_q_binomial_out_of_range_is_zero():
    assert not q_binomial(3, -1)
    assert not q_binomial(3, 4)


def test_q_binomial_counts_box_partitions():
    # coefficient of q^s counts partitions of s in a k x (n-k) box
    for n in range(9):
        for k in range(n + 1):
            poly = q_binomial(n, k)
            for s in range(k * (n - k) + 1):
                assert poly.coefficient(q=s) == _box_partition_count(k, n - k, s)


def test_q_binomial_degree_palindrome_value():
    for n in range(13):
        for k in range(n + 1):
            poly = q_binomial(n, k)
            top = k * (n - k)
            assert poly.q_degree() == top
            assert poly.evaluate() == comb(n, k)
            assert poly.reverse_q(top) == poly  # palindromic
            assert poly == q_binomial(n, n - k)


# -- bounded partition counts ---------------------------------------------


def test_count_partitions_bounded_examples():
    assert count_partitions_bounded(0, 3, 3) == 1
    assert count_partitions_bounded(0) == 1
    assert count_partitions_bounded(3, 1, None) == 1
    assert count_partitions_bounded(4, 2, None) == 3


def test_count_partitions_bounded_conjugation_symmetry():
    for s in range(11):
        for a in range(7):
            for b in range(7):
                assert count_partitions_bounded(s, a, b) == count_partitions_bounded(s, b, a)


def test_count_partitions_bounded_matches_enumeration():
    for s in range(9):
        for a in range(5):
            for b in range(5):
                direct = sum(1 for lam in partitions_of(s) if lam.fits_in_box(a, b))
                assert count_partitions_bounded(s, a, b) == direct


def test_count_partitions_unbounded_is_partition_count():
    for s in range(9):
        assert count_partitions_bounded(s) == len(partitions_of(s))


# -- centralizer orders ---------------------------------------------------


def test_z_lambda_examples():
    assert z_lambda(Partition((1, 1, 1))) == 6
    assert z_lambda(Partition((5,))) == 5
    assert z_lambda(Partition((2, 1))) == 2


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(factorial(n) // z_lambda(rho) for rho in partitions_of(n)) == factorial(n)


# -- GradedPoly ----------------------------------------------------------


def test_graded_poly_basics():
    p = GradedPoly.term(2, q=1) + GradedPoly.const(1)
    assert p.as_str() == "1+2*q"
    assert (p * p).as_str() == "1+4*q+4*q^2"
    assert p - p == GradedPoly.zero()
    assert p.evaluate(q=3) == 7
    assert (3 * p).coefficient(q=1) == 6


def test_graded_poly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        GradedPoly({(-1, 0, 0): 1})


@pytest.mark.parametrize("coeff", [0.5, 1.0, Fraction(1, 2), Fraction(2), "1", True])
def test_graded_poly_refuses_inexact_coefficients(coeff):
    with pytest.raises(ValueError, match="must be an int"):
        GradedPoly({(0, 0, 0): coeff})


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: GradedPoly({(2.0, 0, 0): 1}), id="float-q"),
        pytest.param(lambda: GradedPoly({(0, 0.5, 0): 1}), id="half-t"),
        pytest.param(lambda: GradedPoly({(0, 0, True): 1}), id="bool-z"),
        pytest.param(lambda: GradedPoly.term(1, q=2.0), id="term-float-q"),
    ],
)
def test_graded_poly_refuses_exponents_that_are_not_ints(make):
    # poly_to_json would write them, and poly_from_json refuses them
    with pytest.raises(ValueError, match="exponents must be ints"):
        make()


def test_graded_poly_reverse_guard():
    with pytest.raises(ValueError):
        GradedPoly.term(1, q=3).reverse_q(2)


poly_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=6,
)


@given(poly_terms, poly_terms)
def test_graded_poly_commutes(a_terms, b_terms):
    a, b = GradedPoly(a_terms), GradedPoly(b_terms)
    assert a + b == b + a
    assert a * b == b * a


@given(poly_terms)
def test_graded_poly_double_reverse(terms):
    p = GradedPoly(terms)
    top = max(p.q_degree(), 0)
    assert p.reverse_q(top).reverse_q(top) == p
