import copy
import functools
import pickle
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import _perm_sign
from spanrep.cli import _closure_z_slice
from spanrep.combinat import GradedPoly, Partition
from spanrep.errors import ScaleGuardError
from spanrep.linalg import EchelonBasis
from spanrep.oracle import decompose_coinvariants
from spanrep.superspace import (
    SuperMonomial,
    SuperPoly,
    apply_perm,
    d_theta,
    d_x,
    frobenius_of_closure,
    harmonic_closure,
    mono_mul,
    permuter,
    polarization,
    superspace_vandermonde,
    theta_canonical,
    vandermonde_derivative_identity,
)
from spanrep.symfun import SchurExpansion, omega


def x(i, n=2, m=1, p=1, batch=0):
    return SuperPoly.x(n, m, p, i, batch)


def th(i, n=2, m=1, p=1, batch=0):
    return SuperPoly.theta(n, m, p, i, batch)


# -- multiplication -----------------------------------------------------------


def test_theta_multiplication_signs():
    t0, t1 = th(0), th(1)
    assert t0 * t1 == -(t1 * t0)
    assert not t0 * t0
    assert (x(0) * t0) * (x(1) * t1) == x(0) * x(1) * t0 * t1


def test_batch_mismatch_raises():
    with pytest.raises(ValueError):
        SuperPoly.x(2, 1, 1, 0) + SuperPoly.x(3, 1, 1, 0)
    with pytest.raises(ValueError):
        SuperPoly.x(2, 1, 1, 0) * SuperPoly.x(2, 2, 1, 0)


def one_term(xs, thetas):
    return SuperPoly(3, 1, 1, {SuperMonomial((xs,), (thetas,)): 1})


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: d_x(SuperPoly.x(3, 1, 1, 2), -1), id="d_x-index-negative"),
        pytest.param(lambda: d_x(SuperPoly.x(3, 1, 1, 2), 3), id="d_x-index-n"),
        pytest.param(lambda: d_x(SuperPoly.x(3, 1, 1, 2), 0, batch=1), id="d_x-batch"),
        pytest.param(lambda: d_theta(SuperPoly.theta(3, 1, 1, 2), -1), id="d_theta-index"),
        pytest.param(lambda: d_theta(SuperPoly.theta(3, 1, 1, 2), 0, batch=1), id="d_theta-batch"),
        pytest.param(lambda: SuperPoly.x(3, 1, 1, -1), id="x-index"),
        pytest.param(lambda: SuperPoly.x(3, 1, 1, 0, batch=-1), id="x-batch"),
        pytest.param(lambda: SuperPoly.theta(3, 1, 1, -1), id="theta-index-negative"),
        pytest.param(lambda: SuperPoly.theta(3, 1, 1, 3), id="theta-index-n"),
        pytest.param(lambda: SuperPoly.theta(3, 1, 1, 0, batch=-1), id="theta-batch"),
        pytest.param(lambda: one_term((0, 0, 1), (1, 0)), id="thetas-unsorted"),
        pytest.param(lambda: one_term((0, 0, 1), (1, 1)), id="thetas-repeated"),
        pytest.param(lambda: one_term((0, 0, 1), (5,)), id="thetas-above-n"),
        pytest.param(lambda: one_term((0, 0, -1), ()), id="exponent-negative"),
        pytest.param(lambda: SuperPoly.x(3, 1, 1, 0).apply((0, 0, 1)), id="apply-repeat"),
        pytest.param(lambda: SuperPoly.x(3, 1, 1, 0).apply((0, 1)), id="apply-too-short"),
        pytest.param(lambda: SuperPoly.x(3, 1, 1, 0).apply((1, 2, 3)), id="apply-out-of-range"),
    ],
)
def test_out_of_range_input_raises(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("coeff", [0.1, 1.5, 2.0, "1/3", None, True])
def test_coefficients_that_are_not_exact_numbers_are_rejected(coeff):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match="int or a Fraction"):
        SuperPoly(3, 1, 1, {SuperMonomial(((0, 0, 1),), ((),)): coeff})


@pytest.mark.parametrize(
    "xs, thetas",
    [
        (((0, 0, 1.0),), ((),)),
        (((0, 0, True),), ((),)),
        (((0, 0, 1),), ((True,),)),
        (((0, 0, 1),), ((0.0,),)),
    ],
)
def test_exponents_and_theta_indices_that_are_not_ints_are_rejected(xs, thetas):
    # superpoly_to_json would write them, and superpoly_from_json refuses them
    with pytest.raises(ValueError, match="must be ints"):
        SuperPoly(3, 1, 1, {SuperMonomial(xs, thetas): 1})


# -- the antisymmetrized seed ---------------------------------------------------


def test_vandermonde_2_2_is_classical():
    assert superspace_vandermonde(2, 2) == x(0) - x(1)


def test_vandermonde_2_1_is_theta_difference():
    assert superspace_vandermonde(2, 1) == th(0) - th(1)


def test_vandermonde_full_k_matches_product_formula():
    for n in range(2, 5):
        product = SuperPoly.one(n, 1, 1)
        for i in range(n):
            for j in range(i + 1, n):
                product = product * (x(i, n) - x(j, n))
        assert superspace_vandermonde(n, n) == product


def test_coset_vandermonde_matches_the_full_sum():
    # terms and key order; k = n is r = 0 and k = 1 is r = n - 1
    for n in range(1, 7):
        for k in range(1, n + 1):
            for ambient in (None, n + 1, n + 2):
                got = superspace_vandermonde(n, k, ambient=ambient)
                want = reference.superspace_vandermonde(n, k, ambient=ambient)
                assert got == want, (n, k, ambient)
                assert list(got.terms().items()) == list(want.terms().items()), (n, k, ambient)


def test_perm_sign_is_the_sorting_sign():
    for n in range(7):
        for w in permutations(range(n)):
            assert _perm_sign(w) == theta_canonical(w)[1], w


def test_vandermonde_antisymmetry():
    for n in range(2, 5):
        for k in range(1, n + 1):
            delta = superspace_vandermonde(n, k)
            for i in range(n - 1):
                w = list(range(n))
                w[i], w[i + 1] = w[i + 1], w[i]
                assert delta.apply(tuple(w)) == -delta


# -- the subscript action -------------------------------------------------------


def _theta_batches(n):
    """Empty, full and partial increasing theta batches on n subscripts."""
    return sorted({(), tuple(range(n)), tuple(range(0, n, 2)), tuple(range(1, n)), (n - 1,)})


def test_permuter_matches_the_one_monomial_action():
    for n in range(1, 6):
        exps = [tuple(range(n)), tuple((3 * i + 1) % 4 for i in range(n)), (0,) * n]
        for m in range(3):
            for p in range(3):
                monos = [
                    SuperMonomial(xs, thetas)
                    for xs in product(exps, repeat=m)
                    for thetas in product(_theta_batches(n), repeat=p)
                ]
                for w in permutations(range(n)):
                    image = permuter(w)
                    for mono in monos:
                        got = image(mono)
                        assert got == reference.apply_perm(mono, w), (mono, w)
                        assert type(got[0]) is SuperMonomial


# -- derivatives ----------------------------------------------------------------


def test_d_theta_position_signs():
    prod = th(0, 3) * th(1, 3)
    assert d_theta(prod, 0) == th(1, 3)
    assert d_theta(prod, 1) == -th(0, 3)
    assert not d_theta(prod, 2)


def test_d_x_basic():
    poly = x(0) * x(0) * th(0)
    assert d_x(poly, 0) == 2 * (x(0) * th(0))
    assert not d_x(poly, 1)


small_monos = st.builds(
    lambda exps, thetas: SuperMonomial((tuple(exps),), (tuple(sorted(set(thetas))),)),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
)
small_polys = st.dictionaries(small_monos, st.integers(-5, 5).map(Fraction), max_size=5).map(
    lambda terms: SuperPoly(4, 1, 1, terms)
)


@settings(max_examples=40, deadline=None)
@given(small_polys, st.integers(0, 3), st.integers(0, 3))
def test_d_theta_anticommutes(poly, i, j):
    left = d_theta(d_theta(poly, j), i)
    right = d_theta(d_theta(poly, i), j)
    assert left == -right
    if i == j:
        assert not left


# -- polarization ----------------------------------------------------------------


def test_polarization_basic():
    y1 = SuperPoly.x(3, 2, 1, 0, batch=0)
    rho = polarization(0, 1, 1, kind="x")
    assert rho(y1) == SuperPoly.x(3, 2, 1, 0, batch=1)

    squares = SuperPoly.zero(3, 2, 1)
    for i in range(2):
        yi = SuperPoly.x(3, 2, 1, i, batch=0)
        squares = squares + yi * yi
    rho2 = polarization(0, 1, 2, kind="x")
    expected = 2 * (SuperPoly.x(3, 2, 1, 0, batch=1) + SuperPoly.x(3, 2, 1, 1, batch=1))
    assert rho2(squares) == expected


def test_polarization_anticommuting_signs():
    xi = lambda i: SuperPoly.theta(3, 1, 2, i, batch=0)
    tau = lambda i: SuperPoly.theta(3, 1, 2, i, batch=1)
    rho = polarization(0, 1, kind="theta")
    assert rho(xi(0) * xi(1)) == tau(0) * xi(1) - tau(1) * xi(0)


# Random polynomials in the ring n = 3 with two batches of each kind.
ring_monos = st.builds(
    lambda xs, thetas: SuperMonomial(tuple(xs), tuple(tuple(sorted(t)) for t in thetas)),
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=2, max_size=2),
    st.lists(st.sets(st.integers(0, 2)), min_size=2, max_size=2),
)
ring_coeffs = st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3)
ring_polys = st.dictionaries(ring_monos, ring_coeffs, max_size=5).map(
    lambda terms: SuperPoly(3, 2, 2, terms)
)


@settings(max_examples=60, deadline=None)
@given(ring_polys, st.integers(1, 3))
def test_x_polarization_is_a_sum_of_products(f, j):
    assert polarization(0, 1, j, kind="x")(f) == reference.x_polarization(f, 0, 1, j)


@settings(max_examples=60, deadline=None)
@given(ring_polys)
def test_theta_polarization_is_a_sum_of_products(f):
    assert polarization(0, 1, kind="theta")(f) == reference.theta_polarization(f, 0, 1)


@settings(max_examples=60, deadline=None)
@given(ring_polys, ring_polys, st.integers(0, 2), st.integers(0, 1))
def test_d_x_leibniz(f, g, i, b):
    assert d_x(f * g, i, b) == d_x(f, i, b) * g + f * d_x(g, i, b)


@settings(max_examples=60, deadline=None)
@given(ring_polys, ring_polys, st.integers(0, 2), st.integers(0, 1), st.integers(0, 3))
def test_d_theta_graded_leibniz(f, g, i, b, e):
    # keep the part of f of theta-degree e in batch b, so f has one parity there
    f = SuperPoly(3, 2, 2, {mono: c for mono, c in f.terms().items() if len(mono.thetas[b]) == e})
    assert d_theta(f * g, i, b) == d_theta(f, i, b) * g + (-1) ** e * f * d_theta(g, i, b)


def test_integer_coefficients_stay_int():
    delta = superspace_vandermonde(3, 2)
    images = [delta, -delta, delta * 3, delta * x(0, 3), delta.apply((1, 2, 0)), d_x(delta, 0)]
    images.append(polarization(0, 1)(SuperPoly.x(3, 2, 1, 0) * SuperPoly.x(3, 2, 1, 0)))
    for poly in images:
        assert poly and all(type(c) is int for c in poly.terms().values())
    assert all(type(c) is Fraction for c in (delta * Fraction(1, 2)).terms().values())


def test_polarization_validation():
    with pytest.raises(ValueError):
        polarization(0, 0, kind="x")
    with pytest.raises(ValueError):
        polarization(0, 1, 2, kind="theta")
    with pytest.raises(ValueError):
        polarization(0, 1, kind="grassmann")


# -- monomial keys -----------------------------------------------------------------


@st.composite
def key_rings(draw):
    """A ring (n <= 5, up to two batches of each kind), a permutation of its
    subscripts and a few of its super-monomials."""
    n, m, p = draw(st.integers(1, 5)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    mono = st.builds(
        lambda xs, thetas: SuperMonomial(tuple(xs), tuple(tuple(sorted(t)) for t in thetas)),
        st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=m, max_size=m),
        st.lists(st.sets(st.integers(0, n - 1)), min_size=p, max_size=p),
    )
    w = tuple(draw(st.permutations(range(n))))
    return n, m, p, w, draw(st.lists(mono, min_size=1, max_size=6))


@settings(max_examples=100, deadline=None)
@given(key_rings())
def test_tuple_key_matches_dataclass_key(ring):
    *_, monos = ring
    olds = [reference.DataclassMonomial(a.xs, a.thetas) for a in monos]
    by_old = dict(zip(olds, monos))
    assert [by_old[o] for o in sorted(olds)] == sorted(monos)
    for a, old_a in zip(monos, olds):
        assert hash(a) == hash(old_a)
        assert a.multidegree() == old_a.multidegree()
        assert repr(a) == repr(old_a).replace("DataclassMonomial", "SuperMonomial", 1)
        rebuilt = SuperMonomial(xs=old_a.xs, thetas=old_a.thetas)
        assert type(rebuilt) is SuperMonomial and rebuilt == a
        assert (rebuilt.xs, rebuilt.thetas) == (old_a.xs, old_a.thetas)
        for b, old_b in zip(monos, olds):
            assert (a < b) == (old_a < old_b)
            assert (a == b) == (old_a == old_b)


@settings(max_examples=60, deadline=None)
@given(key_rings())
def test_key_images_are_super_monomials(ring):
    n, m, p, w, monos = ring
    keys = [apply_perm(a, w)[0] for a in monos]
    keys += [prod for a in monos for b in monos if (prod := mono_mul(a, b)[0]) is not None]
    poly = SuperPoly(n, m, p, dict.fromkeys(monos, 1))
    images = [d_x(poly, i, b) for i in range(n) for b in range(m)]
    images += [d_theta(poly, i, b) for i in range(n) for b in range(p)]
    if m == 2:
        images += [polarization(0, 1, j, kind="x")(poly) for j in (1, 2)]
    if p == 2:
        images.append(polarization(1, 0, kind="theta")(poly))
    keys += [key for image in images for key in image.terms()]
    assert all(type(key) is SuperMonomial for key in keys)


@pytest.mark.parametrize(
    "mono",
    [
        SuperMonomial(((2, 0, 1),), ((0, 2),)),
        SuperMonomial(((1, 0), (0, 3)), ((), (0, 1))),
        SuperMonomial((), ()),
    ],
)
def test_key_survives_pickle_and_copy(mono):
    twins = [pickle.loads(pickle.dumps(mono, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.copy(mono), copy.deepcopy(mono)]
    for twin in twins:
        assert type(twin) is SuperMonomial and twin == mono


# -- harmonic closures -------------------------------------------------------------


def test_closure_2_1_1_2():
    space = harmonic_closure(2, 1, 1, 2)
    assert space.hilbert() == GradedPoly({(0, 0, 0): 1, (1, 0, 0): 1})
    assert space.theta_slice_dims(0) == {0: 1, 1: 1}


def test_closure_2_1_1_1():
    space = harmonic_closure(2, 1, 1, 1)
    assert space.dims() == {((0,), (0,)): 1, ((0,), (1,)): 1}


def test_closure_classical_harmonics():
    # theta-degree-0 slice of the full-k closure carries the coinvariant Hilbert series
    for n in range(1, 5):
        space = harmonic_closure(n, 1, 1, n)
        assert space.theta_slice_dims(0) == decompose_coinvariants(n, n).dims


def test_closure_is_operator_closed():
    for n, k in [(2, 1), (3, 2), (3, 3)]:
        space = harmonic_closure(n, 1, 1, k)
        ops = [lambda f, i=i: d_x(f, i) for i in range(n)]
        ops += [lambda f, i=i: d_theta(f, i) for i in range(n)]
        for md, basis in space.spaces.items():
            for _, row in basis.rows():
                vec = SuperPoly(n, 1, 1, row)
                for op in ops:
                    image = op(vec)
                    if not image:
                        continue
                    target = image.items()[0][0].multidegree()
                    assert space.spaces[target].contains(image.terms()), (n, k, md)


def test_closure_is_symmetric_group_stable():
    for n, k in [(2, 2), (3, 2)]:
        space = harmonic_closure(n, 1, 1, k)
        for w in permutations(range(n)):
            for md, basis in space.spaces.items():
                for _, row in basis.rows():
                    image = SuperPoly(n, 1, 1, row).apply(w)
                    assert basis.contains(image.terms()), (n, k, md, w)


@pytest.mark.parametrize(
    "n, m, p, k",
    [(n, m, p, k) for n in range(1, 4) for k in range(1, n + 1) for m in (1, 2) for p in (1, 2)]
    + [(4, m, p, k) for k in range(1, 5) for m, p in [(1, 1), (2, 1), (1, 2)]]
    + [(4, 2, 2, k) for k in range(2, 5)]
    + [(3, 3, 1, 3)]
    + [(5, 1, 1, k) for k in range(1, 6)],
)
def test_closure_matches_reference(n, m, p, k):
    space = harmonic_closure(n, m, p, k)
    ref = reference.harmonic_closure(n, m, p, k)
    assert set(space.spaces) == set(ref)
    for md, basis in ref.items():
        assert space.spaces[md].rank == basis.rank, md
        assert all(space.spaces[md].contains(row) for _, row in basis.rows()), md


@pytest.mark.parametrize(
    "n, m, p, bound",
    # the walk spans each level from the reduced rows of the one above and
    # skips derivatives by the chain criterion; summed over k = 1..n:
    # (5,1,1) 1,866 inserts for a summed rank of 1,456; (4,2,1) 2,299 and
    # (4,2,2) 3,331, where an operator queue made 3,677 and 5,154
    [(5, 1, 1, 2_000), (4, 2, 1, 2_500), (4, 2, 2, 3_600)],
)
def test_closure_skips_images_already_made(monkeypatch, n, m, p, bound):
    calls = 0
    insert = EchelonBasis.insert

    def counted(self, vec):
        nonlocal calls
        calls += 1
        return insert(self, vec)

    monkeypatch.setattr(EchelonBasis, "insert", counted)
    for k in range(1, n + 1):
        harmonic_closure(n, m, p, k)
    assert calls <= bound, calls


@pytest.mark.parametrize(
    "n, m, p, k, theta_cap",
    [(4, 2, 1, 3, None), (4, 2, 2, 3, None), (3, 3, 1, 3, None), (4, 1, 2, 3, None)]
    + [(5, 1, 1, 3, 1)],
)
def test_finished_closure_pieces_keep_no_insertion_index(n, m, p, k, theta_cap):
    # power-2 polarizations insert into lower levels before their turn
    space = harmonic_closure(n, m, p, k, theta_cap=theta_cap)
    assert all(basis._holders is None for basis in space.spaces.values())


def test_closure_refuses_a_negative_theta_cap():
    with pytest.raises(ValueError, match="theta_cap"):
        harmonic_closure(3, 1, 1, 2, theta_cap=-1)


@pytest.mark.parametrize("m, p", [(2, 1), (1, 2)])
def test_closure_refuses_a_theta_cap_with_extra_batches(m, p):
    with pytest.raises(ValueError, match="theta_cap"):
        harmonic_closure(3, m, p, 2, theta_cap=0)


def test_closure_scale_guard():
    with pytest.raises(ScaleGuardError):
        harmonic_closure(9, 1, 1, 3)


def test_closure_with_polarization_batches():
    # two commuting batches: polarized images must live in the closure
    space = harmonic_closure(2, 2, 1, 2)
    md = ((0, 1), (0,))  # x-degree moved to the second batch
    assert space.spaces[md].rank == 1


# -- Frobenius of the closure --------------------------------------------------------


def test_frobenius_of_closure_constants_and_sign():
    tables = frobenius_of_closure(2, 1, 1, 1)
    triv = SchurExpansion(2, {Partition((2,)): GradedPoly.const(1)})
    sign = SchurExpansion(2, {Partition((1, 1)): GradedPoly.const(1)})
    assert tables[((0,), (0,))] == triv
    assert tables[((0,), (1,))] == sign


@pytest.mark.parametrize(
    "asked, built",
    [((3, 1, 1, 2), (3, 1, 1, 3)), ((3, 2, 1, 2), (3, 1, 1, 2)), ((4, 1, 1, 2), (3, 1, 1, 2))],
    ids=["other-k", "other-m", "other-n"],
)
def test_frobenius_of_closure_refuses_another_closure(asked, built):
    # tables read off another request's closure would be wrong or fail
    # somewhere else: the duals are placed by the asked seed's bidegree
    with pytest.raises(ValueError, match="closure"):
        frobenius_of_closure(*asked, closure=harmonic_closure(*built))


def test_frobenius_of_closure_dimensions_agree():
    from spanrep.symfun import dimension

    for n, k in [(2, 2), (3, 2), (3, 3)]:
        space = harmonic_closure(n, 1, 1, k)
        tables = frobenius_of_closure(n, 1, 1, k, closure=space)
        dims = space.dims()
        assert set(tables) == set(dims)
        for md, exp in tables.items():
            assert int(dimension(exp).evaluate()) == dims[md]


@functools.cache
def full_closure_tables(n, m, p, k):
    """(ranks, tables) of every piece of the whole closure."""
    space = harmonic_closure(n, m, p, k)
    return space.dims(), frobenius_of_closure(n, m, p, k, closure=space)


def seed_bidegree(n, k):
    return (n - k) * (k - 1) + k * (k - 1) // 2, n - k


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
def test_dual_readout_matches_full_closure(n, k):
    # the default readout spans the low-theta half and the top theta chain
    # and reads the rest off dual pieces; the reference spans everything
    tables = frobenius_of_closure(n, 1, 1, k)
    expected = full_closure_tables(n, 1, 1, k)[1]
    assert tables == expected
    assert list(tables) == list(expected)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
def test_top_theta_slice_from_theta_degree_zero(n, k):
    # the explore experiments read the theta-degree n - k slice off the
    # theta-degree-0 pieces and their duals
    expected = {}
    for ((a,), (b,)), exp in full_closure_tables(n, 1, 1, k)[1].items():
        if b == n - k:
            for lam, poly in exp.items():
                bump = poly * GradedPoly.term(1, q=a)
                expected[lam] = expected.get(lam, GradedPoly.zero()) + bump
    assert _closure_z_slice(n, k) == SchurExpansion(n, expected)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(1, n + 1)])
def test_capped_closure_spans_what_the_readout_needs(n, k):
    # the theta chain at the top x-degree and the pieces of theta-degree up
    # to the cap, but at the middle theta-degree only the upper half of the
    # x-degrees; each spanned piece is the whole closure's
    top_x, top_theta = seed_bidegree(n, k)
    full = harmonic_closure(n, 1, 1, k).spaces
    for cap in range(top_theta + 2):
        capped = harmonic_closure(n, 1, 1, k, theta_cap=cap).spaces
        expected = {
            ((a,), (b,))
            for ((a,), (b,)) in full
            if a == top_x or (b <= cap and (2 * b != top_theta or 2 * a >= top_x))
        }
        assert set(capped) == expected, cap
        for md in expected:
            assert capped[md].primitive_rows() == full[md].primitive_rows(), (cap, md)


def test_dual_readout_checks_the_top_theta_chain(monkeypatch):
    # the theta chain at the top x-degree is spanned and read as well as its
    # duals, so a wrong chain piece raises instead of being read off its
    # dual; at (3, 2) no other piece is spanned together with its dual
    import spanrep.superspace as superspace

    def closure_with_wrong_seed_piece(n, m, p, k, **kwargs):
        space = harmonic_closure(n, m, p, k, **kwargs)
        # the seed's piece carries the sign character; put the trivial one there
        mono = SuperMonomial(((1, 1, 0),), ((0,),))
        symmetric = EchelonBasis()
        symmetric.insert({apply_perm(mono, w)[0]: 1 for w in permutations(range(3))})
        space.spaces[((2,), (1,))] = symmetric
        return space

    monkeypatch.setattr(superspace, "harmonic_closure", closure_with_wrong_seed_piece)
    with pytest.raises(RuntimeError, match="omega"):
        frobenius_of_closure(3, 1, 1, 2)


@pytest.mark.parametrize("n, m, p, k", [(3, 2, 1, 2), (3, 1, 2, 2), (2, 2, 2, 2)])
def test_readout_spans_every_piece_with_extra_batches(n, m, p, k):
    assert frobenius_of_closure(n, m, p, k) == full_closure_tables(n, m, p, k)[1]


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 6) for k in range(1, n + 1)])
def test_closure_pieces_are_omega_dual(n, k):
    # R f is Gorenstein and f is antisymmetric: piece (a, b) is the dual of
    # piece (A - a, B - b) twisted by the sign character
    top_x, top_theta = seed_bidegree(n, k)
    dims, tables = full_closure_tables(n, 1, 1, k)
    assert set(dims) == set(tables)
    for ((a,), (b,)), exp in tables.items():
        dual = ((top_x - a,), (top_theta - b,))
        assert dims[dual] == dims[((a,), (b,))], (n, k, a, b)
        assert tables[dual] == omega(exp), (n, k, a, b)


def test_closure_with_two_x_batches_is_not_self_dual():
    # polarizations make the closure more than the derivative span of f,
    # so the ranks by total bidegree lose their symmetry
    top_x, top_theta = seed_bidegree(3, 2)
    by_total = Counter()
    for (alpha, beta), dim in harmonic_closure(3, 2, 1, 2).dims().items():
        by_total[sum(alpha), sum(beta)] += dim
    assert by_total[0, 0] == 1
    assert by_total[top_x, top_theta] == 3
    assert any(dim != by_total[top_x - a, top_theta - b] for (a, b), dim in by_total.items())


def test_readout_skips_the_dual_half(monkeypatch):
    # inserts over frobenius_of_closure(5, 1, 1, k), k = 1..5: 1,866 when
    # the whole closure is spanned, 1,036 with the low-theta half (the low
    # x-degrees of the middle theta-degree left out) and the top theta
    # chain; the spanned pieces' summed rank is 754
    calls = 0
    insert = EchelonBasis.insert

    def counted(self, vec):
        nonlocal calls
        calls += 1
        return insert(self, vec)

    monkeypatch.setattr(EchelonBasis, "insert", counted)
    for k in range(1, 6):
        frobenius_of_closure(5, 1, 1, k)
    assert calls <= 1_100, calls


def test_top_theta_slice_twist_regression():
    # Regression fixture, not a theorem: the observed transform carrying the
    # ring-side table onto the top-theta closure slice is conjugation
    # composed with q-reversal, for every n <= 4.  If this changes, the
    # closure or the formula changed.
    from spanrep.combinat import GradedPoly
    from spanrep.formula import grfrob_tableaux
    from spanrep.symfun import omega, q_reverse

    for n in range(1, 5):
        for k in range(1, n + 1):
            tables = frobenius_of_closure(n, 1, 1, k)
            coeffs = {}
            for (alpha, beta), exp in tables.items():
                if beta[0] != n - k:
                    continue
                for lam, poly in exp.items():
                    bump = poly * GradedPoly.term(1, q=alpha[0])
                    coeffs[lam] = coeffs.get(lam, GradedPoly.zero()) + bump
            v_slice = SchurExpansion(n, coeffs)
            ring = grfrob_tableaux(n, k).as_q_expansion()
            top = max(
                max((p.q_degree() for _, p in ring.items()), default=0),
                max((p.q_degree() for _, p in v_slice.items()), default=0),
            )
            assert omega(q_reverse(ring, top)) == v_slice, (n, k)


# -- the derivative identity -----------------------------------------------------------


def test_derivative_identity_worked_case():
    result = vandermonde_derivative_identity(2, 1)
    assert result.equal
    assert result.rhs == superspace_vandermonde(2, 1, ambient=3)
    assert result.lhs == result.rhs


def test_derivative_identity_all_small_cases():
    for n in range(1, 5):
        for k in range(n):
            assert vandermonde_derivative_identity(n, k).equal, (n, k)


@pytest.mark.parametrize("k", range(5))
def test_derivative_identity_at_n5(k):
    assert vandermonde_derivative_identity(5, k).equal


def test_derivative_identity_validation():
    with pytest.raises(ValueError):
        vandermonde_derivative_identity(3, 3)
    with pytest.raises(ScaleGuardError):
        vandermonde_derivative_identity(7, 1)
