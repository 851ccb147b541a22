from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import reference
from spanrep.combinat import GradedPoly, Partition, partitions_of, syt_count, z_lambda
from spanrep.errors import NotACharacterError
from spanrep.symfun import (
    ClassFunction,
    SchurExpansion,
    dimension,
    expansion_character,
    irr_character,
    omega,
    q_reverse,
    schur_decompose,
)


def _regular_character(n):
    values = {rho: Fraction(0) for rho in partitions_of(n)}
    values[Partition((1,) * n)] = Fraction(factorial(n))
    return ClassFunction(n, values)


# -- characters ----------------------------------------------------------


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert irr_character(Partition((n,)), rho) == 1
            sign = (-1) ** (n - rho.length)
            assert irr_character(Partition((1,) * n), rho) == sign


def test_character_at_identity_is_dimension():
    for n in range(1, 8):
        identity = Partition((1,) * n)
        for lam in partitions_of(n):
            assert irr_character(lam, identity) == syt_count(lam)


def test_standard_character_value():
    assert irr_character(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert irr_character(Partition((2, 1)), Partition((2, 1))) == 0
    assert irr_character(Partition((2, 1)), Partition((3,))) == -1


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        irr_character(Partition((2,)), Partition((3,)))


def test_character_orthonormality():
    for n in range(1, 8):
        types = partitions_of(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                inner = sum(
                    Fraction(irr_character(lam, rho) * irr_character(mu, rho), z_lambda(rho))
                    for rho in types
                )
                assert inner == (1 if lam == mu else 0)


def test_character_column_sum_identity():
    for n in range(1, 8):
        identity = Partition((1,) * n)
        assert sum(irr_character(lam, identity) ** 2 for lam in partitions_of(n)) == factorial(n)


# -- class functions -------------------------------------------------------


def test_class_function_requires_every_cycle_type():
    with pytest.raises(ValueError):
        ClassFunction(3, {Partition((3,)): Fraction(1)})


@pytest.mark.parametrize("value", [1.0, "1", 0.5])
def test_class_function_refuses_inexact_values(value):
    values = {rho: Fraction(1) for rho in partitions_of(3)}
    values[Partition((2, 1))] = value
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        ClassFunction(3, values)
    # exact values of either type are kept as Fractions
    values[Partition((2, 1))] = 1
    assert ClassFunction(3, values).value(Partition((2, 1))) == Fraction(1)


@pytest.mark.parametrize("coeff", [0.5, Fraction(1, 2), "1", True])
def test_schur_expansion_refuses_non_polynomial_coefficients(coeff):
    with pytest.raises(ValueError, match="must be a GradedPoly or an int"):
        SchurExpansion(2, {Partition((2,)): coeff})
    assert SchurExpansion(2, {Partition((2,)): 3}) == SchurExpansion(
        2, {Partition((2,)): GradedPoly.const(3)}
    )


# -- schur_decompose -------------------------------------------------------


def test_decompose_regular_representation():
    for n in range(1, 6):
        exp = schur_decompose(_regular_character(n))
        for lam in partitions_of(n):
            assert exp.coefficient(lam) == GradedPoly.const(syt_count(lam))


def test_decompose_trivial_character():
    for n in range(1, 6):
        chi = ClassFunction(n, {rho: Fraction(1) for rho in partitions_of(n)})
        exp = schur_decompose(chi)
        assert exp.items() == [(Partition((n,)), GradedPoly.const(1))]


def test_decompose_natural_permutation_character():
    chi = ClassFunction(
        3,
        {Partition((1, 1, 1)): 3, Partition((2, 1)): 1, Partition((3,)): 0},
    )
    exp = schur_decompose(chi)
    assert exp.coefficient(Partition((3,))) == GradedPoly.const(1)
    assert exp.coefficient(Partition((2, 1))) == GradedPoly.const(1)
    assert not exp.coefficient(Partition((1, 1, 1)))


def test_decompose_rejects_non_characters():
    n = 3
    values = {rho: Fraction(0) for rho in partitions_of(n)}
    values[Partition((1, 1, 1))] = Fraction(1)  # dimension 1 forces fractions
    values[Partition((3,))] = Fraction(1)
    with pytest.raises(NotACharacterError):
        schur_decompose(ClassFunction(n, values))


def _random_character(n, data):
    mults = {
        lam: data.draw(st.integers(0, 4), label=f"m{lam.parts}")
        for lam in partitions_of(n)
    }
    exp = SchurExpansion(n, {lam: GradedPoly.const(m) for lam, m in mults.items() if m})
    return exp, expansion_character(exp)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.data())
def test_decompose_inverts_character(n, data):
    exp, chi = _random_character(n, data)
    assert schur_decompose(chi) == reference.schur_decompose(chi) == exp


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_decompose_matches_reference_on_rational_class_functions(n, data):
    # values with small denominators: both routes must agree on the
    # multiplicities, or reject the class function at the same shape with
    # the same offending value
    values = {
        rho: Fraction(data.draw(st.integers(-30, 30)), data.draw(st.integers(1, 6)))
        for rho in partitions_of(n)
    }
    chi = ClassFunction(n, values)
    try:
        expected = reference.schur_decompose(chi)
    except NotACharacterError as exc:
        with pytest.raises(NotACharacterError) as raised:
            schur_decompose(chi)
        assert str(raised.value) == str(exc)
    else:
        assert schur_decompose(chi) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.data())
def test_decompose_rejects_halved_and_negated_characters(n, data):
    _, chi = _random_character(n, data)
    odd = data.draw(st.sampled_from(partitions_of(n)))
    # 2 chi + chi^odd has an odd, positive multiplicity at odd
    base = {rho: 2 * v + irr_character(odd, rho) for rho, v in chi.values.items()}
    halved = ClassFunction(n, {rho: v / 2 for rho, v in base.items()})
    negated = ClassFunction(n, {rho: -v for rho, v in base.items()})
    for bad in (halved, negated):
        with pytest.raises(NotACharacterError):
            schur_decompose(bad)
        with pytest.raises(NotACharacterError):
            reference.schur_decompose(bad)


# -- omega / q_reverse / dimension -----------------------------------------


def test_omega_examples():
    for n in range(1, 6):
        exp = SchurExpansion(n, {Partition((n,)): GradedPoly.const(1)})
        assert omega(exp) == SchurExpansion(n, {Partition((1,) * n): GradedPoly.const(1)})
    exp = SchurExpansion(3, {Partition((2, 1)): GradedPoly.const(1)})
    assert omega(exp) == exp  # self-conjugate shape


def test_omega_is_involution():
    for n in range(1, 6):
        exp = SchurExpansion(
            n, {lam: GradedPoly.term(1, q=i) for i, lam in enumerate(partitions_of(n))}
        )
        assert omega(omega(exp)) == exp


def test_q_reverse_examples():
    exp = SchurExpansion(2, {Partition((1, 1)): GradedPoly.term(1, q=1)})
    assert q_reverse(exp, 1) == SchurExpansion(2, {Partition((1, 1)): GradedPoly.const(1)})
    const = SchurExpansion(2, {Partition((2,)): GradedPoly.const(3)})
    assert q_reverse(const, 0) == const
    assert q_reverse(q_reverse(exp, 4), 4) == exp
    with pytest.raises(ValueError):
        q_reverse(exp, 0)


def test_dimension_examples():
    assert dimension(SchurExpansion(4, {Partition((4,)): GradedPoly.const(1)})) == 1
    n3_regular = SchurExpansion(
        3, {lam: GradedPoly.const(syt_count(lam)) for lam in partitions_of(3)}
    )
    assert dimension(n3_regular).evaluate() == 6
    graded = SchurExpansion(
        3,
        {
            Partition((3,)): GradedPoly.const(1) + GradedPoly.term(1, q=1),
            Partition((2, 1)): GradedPoly.term(1, q=1) + GradedPoly.term(1, q=2),
        },
    )
    poly = dimension(graded)
    assert poly == GradedPoly({(0, 0, 0): 1, (1, 0, 0): 3, (2, 0, 0): 2})
    assert poly.evaluate() == 6
