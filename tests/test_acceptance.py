"""Acceptance suite: one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is exact (integer/rational arithmetic
throughout); nothing is deferred to later calibration.
"""

import functools
from math import factorial

from spanrep.combinat import (
    GradedPoly,
    Partition,
    StandardTableau,
    des,
    maj,
    pad,
    partitions_of,
    syt_count,
    unpad,
)
from spanrep.errors import PaddingError
from spanrep.formula import (
    Elementary,
    FixedCodim,
    FixedK,
    cell_monomials,
    delta_eigenvalue,
    grfrob_tableaux,
    stabilization_bound,
    stable_multiplicity,
)
from spanrep.oracle import (
    decompose_coinvariants,
    decompose_superspace,
    grassmann_quotient,
)
from spanrep.stability import multiplicity_sequence
from spanrep.superspace import (
    harmonic_closure,
    vandermonde_derivative_identity,
)
from spanrep.symfun import SchurExpansion


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:>2} FAIL  {desc}")
                raise
            print(f"ACCEPTANCE {num:>2} PASS  {desc}")

        return run

    return wrap


def trivial_expansion(n):
    return SchurExpansion(n, {Partition((n,)): GradedPoly.const(1)})


@criterion(1, "oracle and tableau formula agree for n <= 6, every k and every degree")
def test_criterion_01_oracle_formula_equivalence():
    for n in range(1, 7):
        for k in range(1, n + 1):
            formula = grfrob_tableaux(n, k)
            oracle = decompose_coinvariants(n, k)
            assert oracle.by_degree == formula.by_degree, (n, k)


@criterion(2, "flag-variety case: dim n!, graded regular representation, sign multiplicity 1")
def test_criterion_02_flag_variety_case():
    for n in range(1, 6):
        dec = decompose_coinvariants(n, n)
        assert dec.total_dimension() == factorial(n)
        totals = {}
        for exp in dec.by_degree.values():
            for lam, poly in exp.items():
                totals[lam] = totals.get(lam, 0) + poly.coefficient()
        assert totals == {lam: syt_count(lam) for lam in partitions_of(n)}
        assert totals[Partition((1,) * n)] == 1


@criterion(3, "point case: grfrob(n, 1) is the trivial module in degree 0, n <= 8")
def test_criterion_03_point_case():
    for n in range(1, 9):
        assert grfrob_tableaux(n, 1).by_degree == {0: trivial_expansion(n)}


@criterion(4, "stability bounds: sequences constant past the proven bound, value matches closed form")
def test_criterion_04_stability_bounds():
    mus = [mu for size in range(4) for mu in partitions_of(size)]
    for mu in mus:
        for s in range(4):
            for k in range(1, 5):
                mode = FixedK(k)
                bound = stabilization_bound(mu, s, mode)
                seq = dict(multiplicity_sequence(mu, s, mode, bound + 4).values)
                stable = stable_multiplicity(mu, s, mode)
                for n in range(bound, bound + 5):
                    assert seq[n] == stable, ("fixed-k", mu, s, k, n)
            for m in range(3):
                mode = FixedCodim(m)
                bound = stabilization_bound(mu, s, mode)
                seq = dict(multiplicity_sequence(mu, s, mode, bound + 4).values)
                stable = stable_multiplicity(mu, s, mode)
                for n in range(bound, bound + 5):
                    assert seq[n] == stable, ("fixed-codim", mu, s, m, n)


@criterion(5, "box-adding bijection preserves (des, maj) and is bijective, |mu| <= 3, s <= 3, 2s < n <= 8")
def test_criterion_05_first_row_extension():
    from spanrep.stability import first_row_extension_bijective

    for size in range(4):
        for mu in partitions_of(size):
            for s in range(4):
                for n in range(2 * s + 1, 9):
                    try:
                        pad(mu, n)
                        pad(mu, n + 1)
                    except PaddingError:
                        continue
                    assert first_row_extension_bijective(mu, s, n), (mu, s, n)


@criterion(6, "worked tableau statistics: des = 3, maj = 10")
def test_criterion_06_tableau_statistics_fixture():
    t = StandardTableau(((1, 3, 5, 6), (2, 4, 8), (7,)))
    assert des(t) == 3
    assert maj(t) == 10


@criterion(7, "delta-operator eigenvalue multiset for shape (3, 2) is {q, q^2, t, qt}")
def test_criterion_07_delta_eigenvalue_fixture():
    mu = Partition((3, 2))
    cells = sorted(m.items()[0][0] for m in cell_monomials(mu))
    assert cells == [(0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)]
    e1 = delta_eigenvalue(Elementary(1), mu)
    assert e1 == GradedPoly(
        {(1, 0, 0): 1, (2, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1}
    )


@criterion(8, "derivative identity for the superspace Vandermonde, 0 <= k < n <= 4")
def test_criterion_08_derivative_identity():
    for n in range(1, 5):
        for k in range(n):
            assert vandermonde_derivative_identity(n, k).equal, (n, k)


@criterion(9, "theta-degree-0 slice of the full-k closure carries the coinvariant Hilbert series, n <= 4")
def test_criterion_09_classical_harmonics():
    for n in range(1, 5):
        closure = harmonic_closure(n, 1, 1, n)
        assert closure.theta_slice_dims(0) == decompose_coinvariants(n, n).dims


@criterion(10, "dimension bridge: top-theta slice of the closure matches the quotient dimension, n <= 4")
def test_criterion_10_dimension_bridge():
    for n in range(1, 5):
        for k in range(1, n + 1):
            closure = harmonic_closure(n, 1, 1, k)
            slice_dim = sum(closure.theta_slice_dims(n - k).values())
            assert slice_dim == decompose_coinvariants(n, k).total_dimension(), (n, k)


@criterion(11, "Grassmann oracle: d = 1 reduces to the line oracle; d = k is a point")
def test_criterion_11_grassmann_reduction():
    for n in range(1, 5):
        for k in range(1, n + 1):
            g = grassmann_quotient(1, n, k)
            r = decompose_coinvariants(n, k)
            assert g.by_degree == r.by_degree, (n, k)
            assert g.dims == r.dims, (n, k)
    for d, n in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        g = grassmann_quotient(d, n, d)
        assert g.dims == {0: 1}
        assert g.by_degree == {0: trivial_expansion(n)}


@criterion(12, "free superspace pieces: padded multiplicities constant for n up to 7")
def test_criterion_12_superspace_multiplicity_stability():
    for a in range(4):
        for b in range(4 - a):
            baseline = None
            for n in range(a + b + 3, 8):
                exp = decompose_superspace(n, (a,), (b,))
                mults = {unpad(lam): poly.coefficient() for lam, poly in exp.items()}
                if baseline is None:
                    baseline = mults
                else:
                    assert mults == baseline, (a, b, n)


@criterion(13, "excluded items are covered only by non-gating experiments")
def test_criterion_13_exclusions_are_non_gating():
    # Geometric stabilization maps, the general-(q, t) computer check of the
    # superspace-coinvariant conjecture, and the Rise/Val combinatorics are
    # out of scope at desk scale.  The explore experiments touch their desk-
    # sized shadows and must always succeed without gating on agreement.
    import contextlib
    import io
    import tempfile

    from spanrep.cli import main

    with tempfile.TemporaryDirectory() as scratch:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["explore", "--problem", "rw-twist", "--n", "2",
                         "--fixtures-dir", scratch]) == 0
            assert main(["explore", "--problem", "zabrocki-t0", "--n", "2",
                         "--fixtures-dir", scratch]) == 0
            assert main(["explore", "--problem", "grassmann", "--d", "2", "--n", "2",
                         "--k", "2", "--fixtures-dir", scratch]) == 0
