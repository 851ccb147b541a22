import time

import pytest
from math import factorial

import reference
from spanrep import combinat, formula
from spanrep.combinat import GradedPoly, Partition, pad, partitions_of
from spanrep.errors import PaddingError, ScaleGuardError
from spanrep.formula import (
    FORMULA_MAX_N,
    Elementary,
    FixedCodim,
    FixedK,
    Homogeneous,
    cell_monomials,
    delta_eigenvalue,
    grfrob_tableaux,
    shape_multiplicity,
    stable_multiplicity,
)
from spanrep.symfun import SchurExpansion


def exp_of(n, *pairs):
    return SchurExpansion(n, {Partition(shape): GradedPoly.const(c) for shape, c in pairs})


# -- grfrob_tableaux -------------------------------------------------------


def test_grfrob_2_2():
    g = grfrob_tableaux(2, 2)
    assert g.by_degree == {
        0: exp_of(2, ((2,), 1)),
        1: exp_of(2, ((1, 1), 1)),
    }


def test_grfrob_3_2():
    g = grfrob_tableaux(3, 2)
    assert g.by_degree == {
        0: exp_of(3, ((3,), 1)),
        1: exp_of(3, ((3,), 1), ((2, 1), 1)),
        2: exp_of(3, ((2, 1), 1)),
    }
    assert g.dims == {0: 1, 1: 3, 2: 2}
    assert g.total_dimension() == 6


def test_grfrob_point_case():
    # only the zero-descent row tableau survives when k = 1
    for n in range(1, 9):
        g = grfrob_tableaux(n, 1)
        assert g.by_degree == {0: exp_of(n, ((n,), 1))}


def test_grfrob_degree_zero_is_trivial_module():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert grfrob_tableaux(n, k).by_degree[0] == exp_of(n, ((n,), 1))


def test_grfrob_matches_enumeration_and_builds_no_tableau(monkeypatch):
    expected = {
        (n, k): reference.grfrob_tableaux(n, k) for n in range(1, 9) for k in range(1, n + 1)
    }

    def no_tableau(*args, **kwargs):
        raise AssertionError("the formula built a tableau")

    monkeypatch.setattr(combinat, "StandardTableau", no_tableau)
    for (n, k), table in expected.items():
        assert grfrob_tableaux(n, k) == table, (n, k)


def test_grfrob_validates_range():
    with pytest.raises(ValueError):
        grfrob_tableaux(2, 3)
    with pytest.raises(ValueError):
        grfrob_tableaux(3, 0)


def test_grfrob_refuses_beyond_its_bound_before_any_work(monkeypatch):
    # the unguarded table at n = FORMULA_MAX_N + 1 takes seconds and
    # hundreds of MB; the refusal reads no partition
    def no_work(*args, **kwargs):
        raise AssertionError("the formula started work")

    monkeypatch.setattr(formula, "partitions_of", no_work)
    start = time.perf_counter()
    with pytest.raises(ScaleGuardError, match=f"n <= {FORMULA_MAX_N}"):
        grfrob_tableaux(FORMULA_MAX_N + 1, 1)
    assert time.perf_counter() - start < 1.0
    # an out-of-range k stays a usage error at any n
    with pytest.raises(ValueError):
        grfrob_tableaux(FORMULA_MAX_N + 1, FORMULA_MAX_N + 2)


def test_grfrob_full_flag_dimension_and_sign():
    for n in range(1, 8):
        g = grfrob_tableaux(n, n)
        assert g.total_dimension() == factorial(n)
        sign = Partition((1,) * n)
        sign_total = sum(
            exp.coefficient(sign).evaluate() for exp in g.by_degree.values()
        )
        assert sign_total == 1


def test_grfrob_q_expansion_round_trip():
    g = grfrob_tableaux(4, 2)
    q_exp = g.as_q_expansion()
    for s, exp in g.by_degree.items():
        for lam, poly in exp.items():
            assert q_exp.coefficient(lam).coefficient(q=s) == poly.coefficient()


# -- shape_multiplicity ----------------------------------------------------


def test_shape_multiplicity_examples():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert shape_multiplicity(Partition((n,)), k, 0) == 1
    assert shape_multiplicity(Partition((3, 1)), 2, 1) == 1
    # maj of any tableau of shape (2,2) is at least 2
    assert shape_multiplicity(Partition((2, 2)), 2, 1) == 0


def test_shape_multiplicity_degenerate_k():
    assert shape_multiplicity(Partition((2, 1)), 0, 1) == 0
    assert shape_multiplicity(Partition((2, 1)), 4, 1) == 0


def test_shape_multiplicity_matches_grfrob_coefficients():
    # the pair count agrees with the q-binomial route everywhere
    for n in range(1, 7):
        for k in range(1, n + 1):
            g = grfrob_tableaux(n, k)
            top = g.top_degree()
            for s in range(top + 2):
                exp = g.by_degree.get(s)
                for lam in partitions_of(n):
                    expected = exp.coefficient(lam).coefficient() if exp else 0
                    assert shape_multiplicity(lam, k, s) == expected, (n, k, s, lam)


# The sequences of the stability benchmark (perfbench/workloads.py):
# (mu, s, k or m, n_max), with fixed k or with fixed codimension m.
STABILITY_FIXED_K = [
    ((), 4, 2, 12), ((), 6, 3, 16), ((1,), 5, 3, 14), ((1,), 7, 3, 18),
    ((2,), 6, 4, 16), ((2, 1), 5, 3, 14), ((2, 2), 6, 2, 16), ((2, 2), 7, 3, 18),
    ((3, 1), 6, 3, 16), ((2, 1, 1), 6, 3, 16), ((3, 2), 7, 3, 18),
    ((), 1, 2, 7), ((), 2, 2, 7), ((1,), 2, 2, 7), ((1,), 3, 2, 7), ((), 3, 3, 7),
    ((2,), 3, 3, 7), ((1, 1), 3, 2, 7),
]
STABILITY_FIXED_CODIM = [
    ((2, 1), 4, 1, 14), ((1, 1), 5, 2, 17), ((3,), 5, 1, 16),
    ((2, 1), 6, 2, 19), ((2, 2), 5, 1, 16), ((3, 1), 5, 1, 16),
]


def test_shape_multiplicity_matches_enumeration_on_stability_tables():
    points = set()
    for table, fixed_k in ((STABILITY_FIXED_K, True), (STABILITY_FIXED_CODIM, False)):
        for mu, s, x, n_max in table:
            for n in range(1, n_max + 1):
                try:
                    lam = pad(Partition(mu), n)
                except PaddingError:
                    continue
                points.add((lam, x if fixed_k else n - x, s))
    for lam, k, s in sorted(points, key=lambda p: (p[0].parts, p[1], p[2])):
        assert shape_multiplicity(lam, k, s) == reference.shape_multiplicity(lam, k, s), (lam, k, s)


# -- stable_multiplicity -----------------------------------------------------


def test_stable_multiplicity_trivial_cases():
    for k in range(1, 5):
        assert stable_multiplicity(Partition(), 0, FixedK(k)) == 1
    for m in range(3):
        assert stable_multiplicity(Partition(), 0, FixedCodim(m)) == 1


def test_stable_multiplicity_zero_when_mu_exceeds_s():
    assert stable_multiplicity(Partition((2,)), 1, FixedK(2)) == 0
    assert stable_multiplicity(Partition((1, 1)), 1, FixedCodim(0)) == 0


def test_stable_multiplicity_example():
    # evaluates the pair count at the padded shape just past the bound
    assert stable_multiplicity(Partition((1,)), 1, FixedK(2)) == 1
    assert stable_multiplicity(Partition((1,)), 1, FixedK(2)) == shape_multiplicity(
        pad(Partition((1,)), 4), 2, 1
    )


def test_stable_multiplicity_matches_large_n_directly():
    # the claimed stable value equals the actual multiplicity far past the bound
    for mu_size in range(3):
        for mu in partitions_of(mu_size):
            for s in range(3):
                for k in range(1, 4):
                    stable = stable_multiplicity(mu, s, FixedK(k))
                    far = max(2 * s, s + k) + 5
                    assert stable == shape_multiplicity(pad(mu, far), k, s)


# -- delta eigenvalue --------------------------------------------------------


def test_cell_monomials_worked_example():
    cells = sorted(m.items()[0][0] for m in cell_monomials(Partition((3, 2))))
    # multiset {q, q^2, t, q t} as (q, t, z) exponent triples
    assert cells == [(0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)]


def test_delta_eigenvalue_single_cell_shape():
    for j in range(1, 4):
        assert not delta_eigenvalue(Elementary(j), Partition((1,)))


def test_delta_eigenvalue_e2_of_hook():
    assert delta_eigenvalue(Elementary(2), Partition((2, 1))) == GradedPoly.term(1, q=1, t=1)


def test_delta_eigenvalue_e1_matches_cell_sum():
    for size in range(1, 7):
        for mu in partitions_of(size):
            total = GradedPoly.zero()
            for mono in cell_monomials(mu):
                total = total + mono
            assert delta_eigenvalue(Elementary(1), mu) == total


def test_delta_eigenvalue_homogeneous_and_products():
    assert delta_eigenvalue(Homogeneous(2), Partition((2,))) == GradedPoly.term(1, q=2)
    e1 = delta_eigenvalue(Elementary(1), Partition((2, 2)))
    assert delta_eigenvalue((Elementary(1), Elementary(1)), Partition((2, 2))) == e1 * e1


def test_delta_eigenvalue_worked_example_values():
    mu = Partition((3, 2))
    e1 = delta_eigenvalue(Elementary(1), mu)
    assert e1.as_str() == "t+q+q*t+q^2"
    e2 = delta_eigenvalue(Elementary(2), mu)
    assert e2.as_str() == "q*t+q*t^2+2*q^2*t+q^3+q^3*t"


def test_delta_eigenvalue_rejects_empty_shape():
    with pytest.raises(ValueError):
        delta_eigenvalue(Elementary(1), Partition())
