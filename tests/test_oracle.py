import gc
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import pytest

import reference
from spanrep import oracle
from spanrep.combinat import GradedPoly, Partition, partitions_of, syt_count, unpad
from spanrep.errors import ScaleGuardError
from spanrep.formula import grfrob_tableaux
from spanrep.linalg import EchelonBasis
from spanrep.oracle import (
    COMMUTING_MAX_N,
    COMMUTING_MAX_PIECE,
    _check_commuting,
    _check_pieces,
    _bounded_codes,
    _bounded_monomials,
    _fixed_monomial_counts,
    _ideal_piece,
    _ideal_pieces,
    _invariant_basis,
    _multidegree_basis,
    _signed_fixed_trace,
    _super_ideal_basis,
    _x_steps,
    character_on_quotient,
    complete_sym,
    decompose_coinvariants,
    decompose_super_coinvariants,
    decompose_superspace,
    elementary_sym,
    grassmann_quotient,
    monomials_of_degree,
    perm_of_type,
    quotient_basis,
    super_coinvariant_table,
)
from spanrep.superspace import apply_perm
from spanrep.symfun import SchurExpansion, dimension


def exp_of(n, *pairs):
    return SchurExpansion(n, {Partition(shape): GradedPoly.const(c) for shape, c in pairs})


# -- symmetric polynomial generators ---------------------------------------


def test_elementary_sym_examples():
    e2 = elementary_sym(2, (0, 1, 2), 3)
    assert e2 == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert elementary_sym(4, (0, 1, 2), 3) == {}  # e_d vanishes for d > #vars
    h2 = complete_sym(2, (0, 1), 2)
    assert h2 == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_monomials_of_degree_counts():
    for n in range(1, 6):
        for d in range(6):
            assert len(monomials_of_degree(n, d)) == comb(n + d - 1, n - 1)


# -- monomial codes ------------------------------------------------------------


def _reachable_spans():
    """(nvars, k, top) for every (variable count, exponent bound) that a
    line or d-plane request the oracle admits reaches, with the highest
    degree it reaches: a line request up to its highest admitted degree, a
    d-plane request over all degrees.  No admitted request has k >= 8,
    and k >= d, so no batch size past those tried here is admitted."""
    top = {}
    for d in range(1, 9):
        for n in range(1, COMMUTING_MAX_N + 1):
            for k in range(d, d * n + 1):
                nvars = d * n
                degrees = range(nvars * (k - 1) + 1) if d == 1 else [None]
                for deg in degrees:
                    try:
                        _check_commuting(d, n, k, deg)
                    except ScaleGuardError:
                        break
                    reach = nvars * (k - 1) if deg is None else deg
                    top[nvars, k] = max(top.get((nvars, k), -1), reach)
    assert all(k < 8 for _, k in top)
    return sorted((nvars, k, t) for (nvars, k), t in top.items())


def test_bounded_codes_are_the_codes_of_the_bounded_monomials():
    try:
        for nvars, k, top in _reachable_spans():
            for deg in range(top + 1):
                want = tuple(reference.encode(m, k) for m in _bounded_monomials(nvars, deg, k))
                assert _bounded_codes(nvars, deg, k) == want, (nvars, k, deg)
                assert list(want) == sorted(want), (nvars, k, deg)
    finally:  # the monomials of the largest spans hold tens of MB
        _bounded_monomials.cache_clear()
        _bounded_codes.cache_clear()


def test_multiplying_codes_by_a_variable_is_one_addition():
    for nvars in range(1, 6):
        for k in range(1, 6):
            for j, (step, wrap, top) in enumerate(_x_steps(nvars, k)):
                for code in range(k**nvars):
                    m = reference.decode(code, nvars, k)
                    times = m[:j] + (m[j] + 1,) + m[j + 1 :]
                    want = reference.encode(times, k) if times[j] < k else None
                    assert (code + step if code % wrap < top else None) == want, (nvars, k, j, m)


def _codes_to_check(nvars, k, rng):
    """(code, exponents) for every code over nvars variables with entries
    below k when there are at most 256, else for every code with one
    nonzero digit, the largest, and 100 drawn at random."""
    if k**nvars <= 256:
        codes = list(range(k**nvars))
    else:
        singles = [e * k**i for i in range(nvars) for e in range(1, k)]
        codes = singles + [k**nvars - 1] + [rng.randrange(k**nvars) for _ in range(100)]
    return [(c, reference.decode(c, nvars, k)) for c in codes]


def _assert_code_image(w, k, checks):
    want = [(reference.encode(tuple(m[i] for i in w), k), 1) for _, m in checks]
    assert list(oracle._code_image(w, k)([c for c, _ in checks])) == want, (w, k)


def test_code_image_permutes_exponents_for_every_permutation():
    rng = random.Random(0)
    for n in range(1, 7):
        for k in range(1, n + 1):
            checks = _codes_to_check(n, k, rng)
            for w in permutations(range(n)):
                _assert_code_image(w, k, checks)


def test_code_image_permutes_exponents_for_the_grassmann_batch_permutations(monkeypatch):
    seen = set()
    code_image = oracle._code_image

    def recorded(w, k):
        seen.add((tuple(w), k))
        return code_image(w, k)

    monkeypatch.setattr(oracle, "_code_image", recorded)
    for k in range(2, 7):
        grassmann_quotient(2, 3, k)
    monkeypatch.undo()
    assert {k for _, k in seen} == set(range(2, 7))
    rng = random.Random(0)
    for w, k in sorted(seen):
        _assert_code_image(w, k, _codes_to_check(len(w), k, rng))


# -- echelon basis ----------------------------------------------------------


def test_echelon_basis_reduced_form():
    basis = EchelonBasis()
    basis.insert({(1, 0): Fraction(2), (0, 1): Fraction(2)})
    basis.insert({(1, 0): Fraction(1)})
    assert basis.rank == 2
    # full reduction: each pivot appears in exactly one row
    for pivot, row in basis.rows():
        assert row[pivot] == 1
        for other_pivot, _ in basis.rows():
            if other_pivot != pivot:
                assert other_pivot not in row
    assert basis.contains({(0, 1): Fraction(7)})
    assert not basis.insert({(0, 1): Fraction(-3)})


# -- quotient pieces ---------------------------------------------------------


def test_quotient_basis_2_2():
    dim, basis = quotient_basis(2, 2, 1)
    assert dim == 1
    assert basis.rank == 1  # spanned by x_0 + x_1


def test_quotient_basis_point_case():
    for n in range(1, 5):
        assert quotient_basis(n, 1, 0)[0] == 1
        for d in range(1, 4):
            assert quotient_basis(n, 1, d)[0] == 0


def test_quotient_dims_3_2():
    dims = [quotient_basis(3, 2, d)[0] for d in range(5)]
    assert dims == [1, 3, 2, 0, 0]
    assert sum(dims) == 6


def test_character_examples():
    assert character_on_quotient(2, 2, 1, Partition((2,))) == -1  # x_0 = -x_1 there
    assert character_on_quotient(4, 1, 0, Partition((2, 1, 1))) == 1
    for n in range(1, 5):
        identity_dim = quotient_basis(n, n, 2)[0]
        assert character_on_quotient(n, n, 2, Partition((1,) * n)) == identity_dim


def test_ideal_is_stable_under_generators():
    # tripwire for the trace readout: the image of every reduced row under
    # every cycle type representative must reduce to zero against the basis
    for n in range(2, 5):
        for k in range(1, n + 1):
            for d in range(4):
                _, basis = quotient_basis(n, k, d)
                for rho in partitions_of(n):
                    w = perm_of_type(rho, n)
                    for _, row in basis.rows():
                        image = {}
                        for code, c in row.items():
                            mono = reference.decode(code, n, k)
                            moved = [0] * n
                            for i, e in enumerate(mono):
                                moved[w[i]] = e  # exponent of x_{w(i)} is mono[i]
                            key = reference.encode(tuple(moved), k)
                            image[key] = image.get(key, Fraction(0)) + c
                        assert basis.contains(image), (n, k, d)


@pytest.mark.parametrize("n", range(1, 6))
def test_truncated_oracle_matches_full_ring_reference(n):
    # the oracle works in Q[x]/<x_i^k> and builds each ideal piece from the
    # one below; the reference spans generator x monomial products in Q[x]
    for k in range(1, n + 1):
        d = 0
        while True:
            ref_dim, _ = reference.quotient_basis(n, k, d)
            assert quotient_basis(n, k, d)[0] == ref_dim, (n, k, d)
            for rho in partitions_of(n):
                want = reference.character_on_quotient(n, k, d, rho)
                assert character_on_quotient(n, k, d, rho) == want, (n, k, d, rho)
            if ref_dim == 0 and d >= n:
                break
            d += 1


def test_decompose_2_2():
    dec = decompose_coinvariants(2, 2)
    assert dec.by_degree == {0: exp_of(2, ((2,), 1)), 1: exp_of(2, ((1, 1), 1))}


def test_decompose_point_case():
    for n in range(1, 6):
        dec = decompose_coinvariants(n, 1)
        assert dec.by_degree == {0: exp_of(n, ((n,), 1))}
        assert dec.dims == {0: 1}


def test_decompose_dims_are_the_quotient_ranks():
    # dims is read off the Schur expansions; the quotient pieces count it directly
    for n in range(1, 6):
        for k in range(1, n + 1):
            ranks = {d: quotient_basis(n, k, d)[0] for d in range(n * (k - 1) + 1)}
            assert decompose_coinvariants(n, k).dims == {d: r for d, r in ranks.items() if r}


def test_decompose_matches_formula_small():
    for n in range(1, 5):
        for k in range(1, n + 1):
            dec = decompose_coinvariants(n, k)
            assert dec.by_degree == grfrob_tableaux(n, k).by_degree, (n, k)


def test_decompose_full_flag_is_graded_regular_representation():
    for n in range(1, 5):
        dec = decompose_coinvariants(n, n)
        assert dec.total_dimension() == factorial(n)
        totals = {}
        for exp in dec.by_degree.values():
            for lam, poly in exp.items():
                totals[lam] = totals.get(lam, 0) + poly.coefficient()
        assert totals == {lam: syt_count(lam) for lam in partitions_of(n)}


def test_decompose_max_degree_truncation():
    dec = decompose_coinvariants(4, 4, max_degree=2)
    assert sorted(dec.by_degree) == [0, 1, 2]
    full = decompose_coinvariants(4, 4)
    for d in range(3):
        assert dec.by_degree[d] == full.by_degree[d]


def test_line_readouts_past_the_top_degree_do_not_recurse():
    # past n(k - 1), A_d has no monomials and the ideal piece is empty
    start = time.perf_counter()
    assert quotient_basis(2, 2, 3000)[0] == 0
    assert character_on_quotient(3, 2, 2500, Partition((3,))) == 0
    assert time.perf_counter() - start < 1.0


def test_character_refuses_a_cycle_type_of_another_size_before_any_walk():
    # (7, 5) at degree 16 would walk 17 ideal pieces, several seconds
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a partition of 7"):
        character_on_quotient(7, 5, 16, Partition((3, 3)))
    assert time.perf_counter() - start < 1.0


def test_oracle_scale_guard():
    with pytest.raises(ScaleGuardError):
        quotient_basis(8, 2, 1)
    with pytest.raises(ScaleGuardError):
        decompose_coinvariants(8, 2)


def test_public_readouts_keep_their_guards():
    # each public readout refuses an over-budget request on its own, before
    # any work, and refuses it again when asked again
    rho = Partition((1,) * 8)
    for _ in range(2):
        for call in (lambda: character_on_quotient(8, 2, 0, rho), lambda: quotient_basis(7, 6, 12)):
            start = time.perf_counter()
            with pytest.raises(ScaleGuardError):
                call()
            assert time.perf_counter() - start < 1.0


def test_piece_sizes_are_counted_exactly():
    # the identity's traces count |A_d| by a DP, one entry per degree up to
    # A's top degree n(k - 1)
    for n in range(1, 6):
        for k in range(1, n + 1):
            counts = _fixed_monomial_counts((1,) * n, k)
            assert len(counts) == n * (k - 1) + 1, (n, k)
            for d in range(n * k):
                want = sum(1 for m in monomials_of_degree(n, d) if max(m, default=0) < k)
                assert (counts[d] if d < len(counts) else 0) == want, (n, k, d)


def test_oracle_piece_budget():
    for n in range(1, 7):
        for k in range(1, n + 1):
            _check_commuting(1, n, k, None)  # every n <= 6 is admitted, (6,6) included
    _check_commuting(1, 7, 5, None)
    with pytest.raises(ScaleGuardError):
        _check_commuting(1, 7, 6, None)
    _check_commuting(2, 4, 4, None)  # A_12 over 8 variables has 8,092 monomials
    for (d, n, k), error, message in [
        ((2, 4, 5), ScaleGuardError, "pieces of at most 10000 monomials, got at least 38165"),
        ((2, 8, 2), ScaleGuardError, "n <= 7, got n=8"),
        ((2, 1, 3), ValueError, "1 <= d <= k <= d[*]n"),
    ]:
        start = time.perf_counter()
        with pytest.raises(error, match=message):
            _check_commuting(d, n, k, None)
        assert time.perf_counter() - start < 1.0, (d, n, k)
    with pytest.raises(ScaleGuardError):
        decompose_coinvariants(7, 7)
    # a truncated request is judged by the pieces it spans
    low = decompose_coinvariants(7, 7, max_degree=2)
    formula = grfrob_tableaux(7, 7).by_degree
    assert all(low.by_degree[d] == formula[d] for d in range(3))


@pytest.mark.parametrize(
    "d, n, k, top, error, message",
    [
        (1, 2, 3, None, ValueError, "need 1 <= k <= n, got n=2, k=3"),
        (3, 2, 2, None, ValueError, "need 1 <= d <= k <= d[*]n, got d=3, n=2, k=2"),
        (1, 3, 2, -1, ValueError, "degree must be nonnegative"),
        # the range comes before the degree, and the degree before n and the budget
        (1, 9, 10, -1, ValueError, "1 <= k <= n"),
        (1, 8, 2, -1, ValueError, "degree must be nonnegative"),
        (2, 8, 5, -1, ValueError, "degree must be nonnegative"),
        (1, 8, 8, None, ScaleGuardError, "n <= 7"),
    ],
)
def test_admission_check_order(d, n, k, top, error, message):
    with pytest.raises(error, match=message):
        _check_commuting(d, n, k, top)


@pytest.mark.parametrize(
    "call, args",
    [
        pytest.param(lambda: quotient_basis(7, 6, 12), (1, 7, 6, 12), id="quotient_basis"),
        pytest.param(
            lambda: character_on_quotient(7, 6, 12, Partition((7,))), (1, 7, 6, 12), id="character"
        ),
        pytest.param(
            lambda: decompose_coinvariants(7, 6, max_degree=3), (1, 7, 6, 3), id="decompose"
        ),
        pytest.param(lambda: grassmann_quotient(2, 4, 5), (2, 4, 5, None), id="grassmann"),
    ],
)
def test_every_commuting_entry_point_asks_the_one_check(monkeypatch, call, args):
    # each entry point asks the check once, with its own request, before any work
    asked = []

    def refuse(*request):
        asked.append(request)
        raise ScaleGuardError("refused")

    monkeypatch.setattr(oracle, "_check_commuting", refuse)
    with pytest.raises(ScaleGuardError, match="refused"):
        call()
    assert asked == [args]


# -- free superspace pieces ---------------------------------------------------


def test_superspace_constants_and_sign():
    assert decompose_superspace(3, (0,), ()) == exp_of(3, ((3,), 1))
    for n in range(1, 6):
        top = decompose_superspace(n, (), (n,))
        assert top == exp_of(n, (tuple([1] * n), 1))


def test_superspace_natural_representation():
    assert decompose_superspace(3, (1,), ()) == exp_of(3, ((3,), 1), ((2, 1), 1))


def test_superspace_dimension_product_formula():
    for n in range(1, 8):
        for a in range(4):
            for b in range(4):
                exp = decompose_superspace(n, (a,), (b,))
                dim = int(dimension(exp).evaluate())
                assert dim == comb(n + a - 1, a) * comb(n, b)


def test_superspace_two_batches():
    exp = decompose_superspace(2, (1, 1), ())
    assert int(dimension(exp).evaluate()) == 4


def test_signed_fixed_trace_matches_enumeration():
    # every cycle type for n <= 5, up to two batches of each kind, every
    # multidegree of total degree at most 4
    for n in range(1, 6):
        for m, p in product(range(3), repeat=2):
            for md in product(range(5), repeat=m + p):
                alpha, beta = md[:m], md[m:]
                if sum(md) > 4 or any(b > n for b in beta):
                    continue
                for rho in partitions_of(n):
                    want = reference.signed_fixed_trace(n, alpha, beta, perm_of_type(rho, n))
                    assert _signed_fixed_trace(rho.parts, alpha, beta) == want, (rho, alpha, beta)


def test_superspace_padded_multiplicities_stabilize():
    for a in range(3):
        for b in range(3 - a):
            baseline = None
            for n in range(a + b + 3, 8):
                exp = decompose_superspace(n, (a,), (b,))
                mults = {unpad(lam): poly.coefficient() for lam, poly in exp.items()}
                if baseline is None:
                    baseline = mults
                else:
                    assert mults == baseline, (a, b, n)


# -- superspace coinvariant quotients -----------------------------------------


def test_super_coinvariants_pure_commuting_matches_flag_quotient():
    for n in range(1, 5):
        expected = decompose_coinvariants(n, n)
        for d in range(n * (n - 1) // 2 + 2):
            exp = decompose_super_coinvariants(n, (d,), ())
            if d in expected.by_degree:
                assert exp == expected.by_degree[d], (n, d)
            else:
                assert not exp


def test_super_coinvariants_single_variable_ring():
    # every positive-degree element is invariant, so only degree 0 survives
    assert decompose_super_coinvariants(1, (0, 0), (0, 0)) == exp_of(1, ((1,), 1))
    assert not decompose_super_coinvariants(1, (1, 0), (0, 0))
    assert not decompose_super_coinvariants(1, (0, 0), (1, 0))


def test_super_coinvariants_bigraded_fixture_n2():
    # golden fixture, frozen from the oracle
    table = {}
    for a in range(4):
        for b in range(3):
            exp = decompose_super_coinvariants(2, (a,), (b,))
            if exp:
                table[(a, b)] = exp
    assert table == {
        (0, 0): exp_of(2, ((2,), 1)),
        (1, 0): exp_of(2, ((1, 1), 1)),
        (0, 1): exp_of(2, ((1, 1), 1)),
    }


# -- orbit sums ------------------------------------------------------------------


def _orbit_cases():
    """(n, alpha, beta): super-monomial pieces under the signed subscript
    action."""
    for n in range(1, 4):
        for alpha, beta in [((2,), (1,)), ((1,), (2,)), ((1, 1), (1,)), ((), (1, 1)), ((3,), (0,))]:
            yield n, alpha, beta
    yield 4, (2,), (2,)


def _act_on(vec, w):
    out = {}
    for mono, c in vec.items():
        img, sign = apply_perm(mono, w)
        out[img] = out.get(img, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def test_orbit_sums_are_invariant():
    for n, alpha, beta in _orbit_cases():
        for vec in _invariant_basis(n, alpha, beta):
            assert vec
            for w in permutations(range(n)):
                assert _act_on(vec, w) == vec, (vec, w)


def test_orbit_sums_have_disjoint_supports():
    for n, alpha, beta in _orbit_cases():
        seen = set()
        for vec in _invariant_basis(n, alpha, beta):
            assert seen.isdisjoint(vec)
            seen.update(vec)


def _symmetrize(mono, n):
    acc = {}
    for w in permutations(range(n)):
        img, sign = apply_perm(mono, w)
        acc[img] = acc.get(img, 0) + sign
    return acc


def test_orbit_sums_cover_every_monomial():
    # A monomial outside every returned support is one whose own orbit sum
    # cancels; the signed cases include such monomials.
    cancelled = 0
    for n, alpha, beta in _orbit_cases():
        support = set().union(*_invariant_basis(n, alpha, beta))
        for mono in _multidegree_basis(n, alpha, beta):
            if mono not in support:
                assert not any(_symmetrize(mono, n).values()), mono
                cancelled += 1
    assert cancelled


def _assert_invariants_match_reference(n, alpha, beta):
    sums = _invariant_basis(n, alpha, beta)
    basis = EchelonBasis()
    for vec in sums:
        assert basis.insert(vec)
    expected = reference.invariant_basis(n, alpha, beta).primitive_rows()
    assert basis.primitive_rows() == expected, (n, alpha, beta)


def test_invariant_orbit_sums_match_full_symmetrization():
    for n in range(1, 5):
        for a in range(n * (n - 1) // 2 + 1):
            for b in range(n + 1):
                _assert_invariants_match_reference(n, (a,), (b,))


def _multidegree_dim(n, alpha, beta):
    # monomials of degree a in n x's, times b-subsets of n thetas, per batch
    return prod(comb(a + n - 1, a) for a in alpha) * prod(comb(n, b) for b in beta)


def _assert_piece_matches(n, alpha, beta, expected, pieces):
    # pieces: the dict of one walk, shared by the calls on one box of multidegrees
    piece = _super_ideal_basis(n, alpha, beta, pieces)
    dim = _multidegree_dim(n, alpha, beta)
    if piece is None:
        # a full piece holds no rows; its reduced basis is the unit rows
        assert expected.rank == dim, (n, alpha, beta)
    else:
        assert piece.rank < dim, (n, alpha, beta)  # full pieces are None
        assert piece.primitive_rows() == expected.primitive_rows(), (n, alpha, beta)


def _assert_ideal_matches_reference(n, alpha, beta, pieces):
    _assert_invariants_match_reference(n, alpha, beta)
    _assert_piece_matches(n, alpha, beta, reference.super_ideal_basis(n, alpha, beta), pieces)


def _assert_ideal_matches_unpruned_step(n, alpha, beta, pieces):
    _assert_piece_matches(n, alpha, beta, reference.super_ideal_step(n, alpha, beta), pieces)


def _super_multidegrees(n, m, p):
    # Total x-degree runs one past n(n-1)/2, the top x-degree of the quotient.
    top = n * (n - 1) // 2 + 1
    for alpha in product(range(top + 1), repeat=m):
        if sum(alpha) <= top:
            for beta in product(range(n + 1), repeat=p):
                yield alpha, beta


SUPER_BATCH_SHAPES = [(1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]


@pytest.mark.parametrize("m, p", SUPER_BATCH_SHAPES)
def test_super_ideal_recursion_matches_cofactor_span(m, p):
    for n in range(1, 4):
        pieces = {}
        for alpha, beta in _super_multidegrees(n, m, p):
            _assert_ideal_matches_reference(n, alpha, beta, pieces)


def test_super_ideal_recursion_matches_cofactor_span_n4():
    # the whole range of `explore --problem zabrocki-t0 --n 4`
    pieces = {}
    for a in range(7):
        for b in range(5):
            _assert_ideal_matches_reference(4, (a,), (b,), pieces)


@pytest.mark.parametrize("m, p", SUPER_BATCH_SHAPES)
def test_super_ideal_chain_criterion_matches_unpruned_step(m, p):
    for n in range(1, 4):
        pieces = {}
        for alpha, beta in _super_multidegrees(n, m, p):
            _assert_ideal_matches_unpruned_step(n, alpha, beta, pieces)


def test_super_ideal_chain_criterion_matches_unpruned_step_n4():
    pieces = {}
    for a in range(7):
        for b in range(5):
            _assert_ideal_matches_unpruned_step(4, (a,), (b,), pieces)


@pytest.mark.parametrize("m, p", SUPER_BATCH_SHAPES)
def test_super_coinvariants_match_traced_reference_quotient(m, p):
    # pieces the ideal fills skip the trace readout; the reference traces
    # every piece, so the empty expansions are compared too
    empty = 0
    for n in range(1, 4):
        for alpha, beta in _super_multidegrees(n, m, p):
            got = decompose_super_coinvariants(n, alpha, beta)
            assert got == reference.super_coinvariants(n, alpha, beta), (n, alpha, beta)
            empty += not got
    assert empty


def _count_zabrocki_inserts(monkeypatch):
    """(invariant inserts, product inserts, rank the products grew) over
    the `explore --problem zabrocki-t0` tables up to n = 4; a piece that
    a table dropped and built again would be counted twice."""
    invariants = []  # kept alive, so no product can reuse one's identity
    counts = {"invariants": 0, "products": 0, "grown": 0}
    insert = EchelonBasis.insert

    def tagged(n, alpha, beta):
        sums = _invariant_basis(n, alpha, beta)
        invariants.extend(sums)
        return sums

    def counted(self, vec):
        product = all(vec is not v for v in invariants)
        grew = insert(self, vec)
        counts["products" if product else "invariants"] += 1
        counts["grown"] += product and grew
        return grew

    monkeypatch.setattr(oracle, "_invariant_basis", tagged)
    monkeypatch.setattr(EchelonBasis, "insert", counted)
    for n in range(1, 5):
        super_coinvariant_table(n)
    return counts["invariants"], counts["products"], counts["grown"]


def test_super_coinvariants_skip_what_full_pieces_below_fill(monkeypatch):
    # the tables made 15,259 inserts before full pieces were recognised,
    # 6,101 before the chain criterion and full pieces without rows, and
    # makes 1,826 now (131 invariants, 1,695 products)
    invariants, products, _ = _count_zabrocki_inserts(monkeypatch)
    assert invariants + products <= 1_830, (invariants, products)


def test_super_ideal_products_stay_near_the_rank_they_grow(monkeypatch):
    # 1,695 product inserts for 1,373 of rank; 4,032 before the chain criterion
    _, products, grown = _count_zabrocki_inserts(monkeypatch)
    assert products <= 1.3 * grown, (products, grown)


@pytest.mark.parametrize("m, p", [(1, 0), *SUPER_BATCH_SHAPES])
def test_super_pieces_past_the_coinvariant_top_are_full(m, p):
    # a piece with an x batch above n(n-1)/2 or a theta batch above n is
    # None before any recursion; the unpruned step spans every piece, and
    # finds those full and the others as the library does
    for n in range(1, 5):
        top = n * (n - 1) // 2
        pieces = {}
        for md in product(range(top + 5), repeat=m + p):
            alpha, beta = md[:m], md[m:]
            if sum(md) > top + 4:
                continue
            dim = _multidegree_dim(n, alpha, beta)
            full = reference.super_ideal_step(n, alpha, beta).rank == dim
            past = max(alpha, default=0) > top or max(beta, default=0) > n
            assert full >= past, (n, alpha, beta)
            assert (_super_ideal_basis(n, alpha, beta, pieces) is None) == full, (n, alpha, beta)


def test_deep_super_coinvariant_piece_does_not_recurse():
    start = time.perf_counter()
    assert decompose_super_coinvariants(2, (1500,), (0,)) == SchurExpansion(2)
    assert time.perf_counter() - start < 1.0


def test_super_table_matches_standalone_pieces():
    # the table reads every piece of its grid, theta-degree outer, and
    # keeps the nonzero ones
    for n in range(1, 5):
        table = super_coinvariant_table(n)
        assert list(table) == sorted(table, key=lambda ab: ab[::-1])
        for b in range(n + 1):
            for a in range(n * (n - 1) // 2 + 1):
                exp = decompose_super_coinvariants(n, (a,), (b,))
                assert table.get((a, b)) == (exp or None), (n, a, b)


def test_super_table_keeps_no_pieces():
    before = _live_echelon_bases()
    super_coinvariant_table(4)
    assert _live_echelon_bases() == before
    assert oracle._reading.super_pieces is None


def test_super_table_cut_short_keeps_no_pieces(monkeypatch):
    expected = super_coinvariant_table(4)
    span = oracle._span_piece
    calls = 0

    def cut(*args):
        nonlocal calls
        calls += 1
        if calls == 10:
            raise MemoryError
        return span(*args)

    before = _live_echelon_bases()
    monkeypatch.setattr(oracle, "_span_piece", cut)
    with pytest.raises(MemoryError):
        super_coinvariant_table(4)
    assert oracle._reading.super_pieces is None
    assert _live_echelon_bases() == before
    monkeypatch.undo()
    assert super_coinvariant_table(4) == expected


def test_parallel_super_tables_match_sequential():
    # each thread records its own walk's pieces, so interleaved walks stay apart
    ns = [4, 3, 4, 2]
    sequential = [list(super_coinvariant_table(n).items()) for n in ns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-walk
    try:
        with ThreadPoolExecutor(max_workers=len(ns)) as pool:
            tables = pool.map(lambda n: list(super_coinvariant_table(n).items()), ns, timeout=120)
            parallel = list(tables)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == sequential


def test_super_table_reads_through_the_traced_decomposition(monkeypatch):
    # the benchmark traces this name by module attribute; a table that
    # routed around it would leave its span empty
    calls = []
    read = oracle.decompose_super_coinvariants

    def watched(n, alpha, beta):
        calls.append((n, alpha, beta))
        return read(n, alpha, beta)

    monkeypatch.setattr(oracle, "decompose_super_coinvariants", watched)
    super_coinvariant_table(3)
    assert sorted(calls) == [(3, (a,), (b,)) for a in range(4) for b in range(4)]


def test_super_coinvariants_scale_guard():
    with pytest.raises(ScaleGuardError):
        decompose_super_coinvariants(6, (1,), (1,))


@pytest.mark.parametrize("decompose", [decompose_super_coinvariants, decompose_superspace])
def test_superspace_multidegree_validation(decompose):
    # checked before the scale guard, so n = 9 raises ValueError too
    for n in (3, 9):
        for alpha, beta in [((-1,), (0,)), ((0,), (-1,)), ((2, -1), (1,))]:
            with pytest.raises(ValueError):
                decompose(n, alpha, beta)


@pytest.mark.parametrize(
    "call",
    [
        lambda: monomials_of_degree(-1, 0),
        lambda: decompose_super_coinvariants(-1, (0,), (0,)),
        lambda: super_coinvariant_table(-2),
    ],
    ids=["monomials_of_degree", "decompose_super_coinvariants", "super_coinvariant_table"],
)
def test_negative_n_is_refused(call):
    # refused up front: none may recurse without end or return an empty table
    start = time.perf_counter()
    with pytest.raises(ValueError, match="n must be nonnegative"):
        call()
    assert time.perf_counter() - start < 1.0


# -- Grassmann quotient --------------------------------------------------------


def test_grassmann_reduces_to_line_oracle():
    for n in range(1, 4):
        for k in range(1, n + 1):
            g = grassmann_quotient(1, n, k)
            r = decompose_coinvariants(n, k)
            assert g.by_degree == r.by_degree, (n, k)
            assert g.dims == r.dims


def test_grassmann_point_case():
    for d, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        g = grassmann_quotient(d, n, d)
        assert g.dims == {0: 1}
        assert g.by_degree == {0: exp_of(n, ((n,), 1))}


def test_grassmann_golden_fixture_2_2_3():
    g = grassmann_quotient(2, 2, 3)
    assert g.dims == {0: 1, 1: 2, 2: 2, 3: 1}
    assert g.by_degree == {
        0: exp_of(2, ((2,), 1)),
        1: exp_of(2, ((2,), 1), ((1, 1), 1)),
        2: exp_of(2, ((2,), 1), ((1, 1), 1)),
        3: exp_of(2, ((1, 1), 1)),
    }


GRASSMANN_REFERENCE_GRID = [
    (1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 1, 2), (2, 2, 4), (2, 3, 6), (3, 2, 4),
]


@pytest.mark.parametrize("d, n, k_max", GRASSMANN_REFERENCE_GRID)
def test_grassmann_mean_traces_match_image_by_image_reference(d, n, k_max):
    for k in range(d, k_max + 1):
        got = grassmann_quotient(d, n, k)
        expected = reference.grassmann_quotient(d, n, k)
        assert got.by_degree == expected.by_degree, (d, n, k)
        assert got.dims == expected.dims, (d, n, k)


@pytest.mark.parametrize("d, n, k_max", GRASSMANN_REFERENCE_GRID)
def test_truncation_monomials_lie_in_the_d_plane_ideal(d, n, k_max):
    # Spanning in Q[x]/<x_i^k> is valid only because every x_i^k is already
    # in the ideal; check it against the untruncated full-ring piece.
    for k in range(d, k_max + 1):
        ideal = reference.grassmann_ideal(d, n, k, k)
        for i in range(d * n):
            power = {tuple(k if j == i else 0 for j in range(d * n)): 1}
            assert ideal.contains(power), (d, n, k, i)


def test_line_ideal_pieces_match_step_by_step_reference():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for deg, piece, standard in _ideal_pieces(1, n, k):
                expected = reference.line_ideal_basis(n, k, deg)
                got = reference.decoded_rows(piece, n, k)
                assert got == expected.primitive_rows(), (n, k, deg)
                got = [reference.decode(code, n, k) for code in standard]
                assert got == expected.non_pivots(_bounded_monomials(n, deg, k)), (n, k, deg)
            assert deg == n * (k - 1)
            # past A's top degree the piece is empty
            got = quotient_basis(n, k, deg + 1)[1].primitive_rows()
            assert got == reference.line_ideal_basis(n, k, deg + 1).primitive_rows() == []


def _watch_readouts(monkeypatch, record):
    """Wrap the two line readouts by module attribute, as the benchmark's
    tracer does, and call record(name, args, result) after each call."""
    for name in ("quotient_basis", "character_on_quotient"):

        def watched(*args, name=name, read=getattr(oracle, name)):
            result = read(*args)
            record(name, args, result)
            return result

        monkeypatch.setattr(oracle, name, watched)


def test_decomposition_reads_through_the_traced_readouts(monkeypatch):
    # the benchmark traces these two names; a decomposition that routed
    # around them would leave their spans empty
    calls = {}

    def count(name, args, _):
        calls[name, args[2]] = calls.get((name, args[2]), 0) + 1

    _watch_readouts(monkeypatch, count)
    top = max(decompose_coinvariants(4, 3).by_degree)
    # every degree up to the first zero piece, which ends the walk
    assert calls == {
        **{("quotient_basis", d): 1 for d in range(top + 2)},
        **{("character_on_quotient", d): 5 for d in range(top + 1)},  # p(4) cycle types
    }


def test_standalone_line_readouts_match_the_decomposition(monkeypatch):
    # a standalone readout walks up to its own piece, whatever order the
    # degrees and (n, k) come in, and reads what the decomposition read
    pairs = [(n, k) for n in range(1, 6) for k in range(1, n + 1)]
    seen = {}

    def record(name, args, result):
        seen[args] = (result[0], result[1].primitive_rows()) if name == "quotient_basis" else result

    _watch_readouts(monkeypatch, record)
    for n, k in pairs:
        decompose_coinvariants(n, k)
    monkeypatch.undo()
    requests = [(n, k, d) for n, k in pairs for d in range(n * (k - 1) + 2)]
    assert {args[:3] for args in seen} <= set(requests)
    random.Random(0).shuffle(requests)
    for n, k, d in requests:
        dim, basis = quotient_basis(n, k, d)
        rows = basis.primitive_rows()
        got = reference.decoded_rows(basis, n, k)
        assert got == reference.line_ideal_basis(n, k, d).primitive_rows(), (n, k, d)
        assert seen.get((n, k, d), (dim, rows)) == (dim, rows), (n, k, d)
        for rho in partitions_of(n):
            trace = character_on_quotient(n, k, d, rho)
            assert seen.get((n, k, d, rho), trace) == trace, (n, k, d, rho)


def test_line_decomposition_keeps_no_pieces():
    before = _live_echelon_bases()
    decompose_coinvariants(6, 4)
    assert _live_echelon_bases() == before
    assert oracle._reading.piece is None


def test_line_decomposition_cut_short_records_no_piece(monkeypatch):
    piece = oracle._ideal_piece

    def cut(d, n, k, deg, *rest):
        if deg == 3:
            raise MemoryError
        return piece(d, n, k, deg, *rest)

    monkeypatch.setattr(oracle, "_ideal_piece", cut)
    with pytest.raises(MemoryError):
        decompose_coinvariants(4, 3)
    assert oracle._reading.piece is None
    monkeypatch.undo()
    assert decompose_coinvariants(4, 3).by_degree == grfrob_tableaux(4, 3).by_degree


def test_parallel_line_decompositions_match_sequential():
    # each thread records its own piece, so interleaved (n, k) stay apart
    pairs = [(5, 3), (4, 4), (5, 4), (4, 3)]
    sequential = [decompose_coinvariants(n, k).by_degree for n, k in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-walk
    try:
        with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
            tables = pool.map(lambda p: decompose_coinvariants(*p).by_degree, pairs, timeout=120)
            parallel = list(tables)
    finally:
        sys.setswitchinterval(interval)
    assert parallel == sequential


def _piece_chain(d, n, k):
    """Every piece of the d-plane ideal in A, built by _ideal_piece and not
    memoized, up to the degree past which A vanishes."""
    pieces = []
    for deg in range(d * n * (k - 1) + 2):
        below = pieces[-1] if pieces else None
        two_below = pieces[-2] if len(pieces) >= 2 else None
        pieces.append(_ideal_piece(d, n, k, deg, below, two_below))
    return pieces


@pytest.mark.parametrize(
    "d, n, k_max", [(d, n, k_max) for d, n, k_max in GRASSMANN_REFERENCE_GRID if d >= 2] + [(2, 4, 3)]
)
def test_d_plane_ideal_pieces_match_step_by_step_reference(d, n, k_max):
    # the pruned products must span what every x_j * row does
    for k in range(d, k_max + 1):
        prev = None
        for deg, piece in enumerate(_piece_chain(d, n, k)):
            gens = [g for g in reference._grassmann_generators(d, n, k) if sum(next(iter(g))) == deg]
            prev = reference._ideal_step(prev, gens, d * n, deg, k)
            assert reference.decoded_rows(piece, d * n, k) == prev.primitive_rows(), (d, n, k, deg)


def _count_inserts(monkeypatch):
    """Wrap EchelonBasis.insert; the returned dict counts calls and the
    calls that grew a rank."""
    counts = {"calls": 0, "rank": 0}
    insert = EchelonBasis.insert

    def counted(self, vec):
        grew = insert(self, vec)
        counts["calls"] += 1
        counts["rank"] += grew
        return grew

    monkeypatch.setattr(EchelonBasis, "insert", counted)
    return counts


@pytest.mark.parametrize("n, k", [(6, 4), (5, 5)])
def test_ideal_pieces_insert_little_beyond_their_rank(n, k, monkeypatch):
    # without the chain criterion (6,4) makes 12,456 products for rank 2,536
    counts = _count_inserts(monkeypatch)
    rank = sum(piece.rank for piece in _piece_chain(1, n, k))
    assert rank <= counts["calls"] <= 1.05 * rank, (counts, rank)


def test_line_ideal_work_is_pinned(monkeypatch):
    # the same inserts in the same order whatever keys the columns; these
    # are the figures the README gives for (6,4)
    counts = _count_inserts(monkeypatch)
    decompose_coinvariants(6, 4)  # degrees 0 to 13, the first zero quotient
    assert counts == {"calls": 2412, "rank": 2332}
    counts.update(calls=0, rank=0)
    assert sum(piece.rank for _, piece, _ in _ideal_pieces(1, 6, 4)) == 2536
    assert counts == {"calls": 2616, "rank": 2536}


def test_finished_ideal_pieces_keep_no_insertion_index():
    assert all(piece._holders is None for piece in _piece_chain(2, 2, 3))
    pieces = {}  # one walk: (2,),(1,) and the four pieces below it, all with rows
    _super_ideal_basis(3, (2,), (1,), pieces)
    assert len(pieces) == 5
    assert all(piece._holders is None for piece in pieces.values())


def test_grassmann_validation_and_guard():
    with pytest.raises(ValueError):
        grassmann_quotient(2, 2, 1)  # k < d
    for d, n, k in [
        (2, 4, 5),  # A_16 over 8 variables has 38,165 monomials
        (2, 200, 200),  # n > 7 batches
        (1, 200, 1),  # one-monomial pieces, but characters of S_200
        (300, 7, 300),  # 2,100 variables: the count stops at three
        (10**9, 1, 10**9),  # two variables already give k in degree k - 1
    ]:
        start = time.perf_counter()
        with pytest.raises(ScaleGuardError):
            grassmann_quotient(d, n, k)
        assert time.perf_counter() - start < 1.0, (d, n, k)


def test_grassmann_rejects_a_non_integer_mean_trace(monkeypatch):
    # one trace off by one makes its sum over the d! = 2 elements odd
    calls = 0
    quotient_trace = oracle.quotient_trace

    def off_once(*args):
        nonlocal calls
        calls += 1
        return quotient_trace(*args) + (calls == 1)

    monkeypatch.setattr(oracle, "quotient_trace", off_once)
    with pytest.raises(RuntimeError, match="non-integer mean trace"):
        grassmann_quotient(2, 2, 3)


def test_piece_guard_matches_exact_counts():
    # the guard stops counting early; it must refuse exactly the requests
    # whose largest piece, counted in full, is over the budget
    for nvars in range(1, 17):
        for k in range(1, 7):
            full = _fixed_monomial_counts((1,) * nvars, k)
            for top in [None, *range(nvars * (k - 1) + 2)]:
                over = max(full[: None if top is None else top + 1]) > COMMUTING_MAX_PIECE
                try:
                    _check_pieces(nvars, k, top)
                    refused = False
                except ScaleGuardError:
                    refused = True
                assert refused == over, (nvars, k, top)


def _live_echelon_bases():
    gc.collect()
    return sum(isinstance(obj, EchelonBasis) for obj in gc.get_objects())


def test_grassmann_keeps_no_ideal_pieces():
    # the d-plane walk is dropped with its decomposition
    before = _live_echelon_bases()
    grassmann_quotient(2, 2, 3)
    grassmann_quotient(3, 2, 4)
    assert _live_echelon_bases() == before


def test_hilbert_series_helpers():
    dec = decompose_coinvariants(3, 2)
    assert dec.hilbert() == GradedPoly({(0, 0, 0): 1, (1, 0, 0): 3, (2, 0, 0): 2})
    assert grfrob_tableaux(3, 2).hilbert() == dec.hilbert()
