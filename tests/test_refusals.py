"""Refusals and boundary values across the library that no other test reaches."""

import pytest

from spanrep import oracle
from spanrep.combinat import GradedPoly, Partition, count_partitions_bounded, partitions_of
from spanrep.errors import ScaleGuardError
from spanrep.formula import Elementary, FixedK, delta_eigenvalue, stable_multiplicity
from spanrep.oracle import complete_sym, decompose_coinvariants, decompose_superspace, elementary_sym
from spanrep.superspace import (
    SuperMonomial,
    SuperPoly,
    harmonic_closure,
    polarization,
    superspace_vandermonde,
)
from spanrep.symfun import SchurExpansion, expansion_character


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: elementary_sym(-1, (0, 1), 2), ValueError, "nonnegative", id="e"),
        pytest.param(lambda: complete_sym(-1, (0, 1), 2), ValueError, "nonnegative", id="h"),
        pytest.param(
            lambda: stable_multiplicity(Partition(), -1, FixedK(2)),
            ValueError,
            "s must be nonnegative",
            id="stable-multiplicity",
        ),
        pytest.param(lambda: partitions_of(-1), ValueError, "nonnegative", id="partitions"),
        pytest.param(
            lambda: superspace_vandermonde(2, 3), ValueError, "1 <= k <= n", id="vandermonde-k"
        ),
        pytest.param(
            lambda: superspace_vandermonde(3, 2, ambient=2),
            ValueError,
            "ambient",
            id="vandermonde-ambient",
        ),
        pytest.param(lambda: polarization(0, 1, 0), ValueError, "positive", id="polarization-j"),
        pytest.param(
            lambda: polarization(0, 1)(SuperPoly.one(2, 1, 1)),
            ValueError,
            "batch out of range",
            id="polarization-batch",
        ),
        pytest.param(
            lambda: SuperPoly(2, 1, 1, {SuperMonomial(((0, 0), (0, 0)), ((),)): 1}),
            ValueError,
            "arity",
            id="superpoly-arity",
        ),
        pytest.param(
            lambda: SuperPoly(2, 1, 1, {SuperMonomial(((0, 0, 0),), ((),)): 1}),
            ValueError,
            "wrong length",
            id="superpoly-length",
        ),
        pytest.param(
            lambda: harmonic_closure(3, 0, 1, 2), ValueError, "one batch", id="closure-batches"
        ),
        pytest.param(
            lambda: harmonic_closure(2, 2, 1, 1).hilbert(), ValueError, "hilbert", id="hilbert"
        ),
        pytest.param(
            lambda: harmonic_closure(2, 2, 1, 1).theta_slice_dims(0),
            ValueError,
            "slices",
            id="theta-slice",
        ),
        pytest.param(
            lambda: expansion_character(
                SchurExpansion(2, {Partition((2,)): GradedPoly.term(1, q=1)})
            ),
            ValueError,
            "graded coefficients",
            id="expansion-character",
        ),
        pytest.param(
            lambda: decompose_superspace(8, (1,), (0,)),
            ScaleGuardError,
            "limited to n <= 7",
            id="superspace-piece-guard",
        ),
        pytest.param(
            lambda: delta_eigenvalue("e2", Partition((2, 1))),
            TypeError,
            "not an evaluable",
            id="delta-spec",
        ),
    ],
)
def test_out_of_range_calls_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(
            lambda: delta_eigenvalue(Elementary(-1), Partition((2, 1))), 0, id="e-negative"
        ),
        pytest.param(lambda: count_partitions_bounded(3, -1), 0, id="negative-bound"),
    ],
)
def test_empty_ranges_give_zero(call, value):
    assert call() == value


def test_dimension_tripwire_raises_and_records_no_piece(monkeypatch):
    # a quotient dimension that the decomposition does not reproduce is a
    # bug: it must raise, not be returned, and leave no piece recorded
    quotient_basis = oracle.quotient_basis

    def one_more(n, k, d):
        dim, basis = quotient_basis(n, k, d)
        return dim + 1, basis

    monkeypatch.setattr(oracle, "quotient_basis", one_more)
    with pytest.raises(RuntimeError, match="dimension mismatch"):
        decompose_coinvariants(3, 2)
    assert oracle._reading.piece is None
