"""Schur-basis bookkeeping and symmetric-group character theory.

Irreducible characters come from the Murnaghan-Nakayama recursion,
memoized on (shape, cycle type).  Inner products are exact: integer sums
against a per-n table of character values times class sizes, divided
once at the end, and any non-integrality or negativity while decomposing
is raised as :class:`NotACharacterError` instead of being rounded: a
failed decomposition means whoever produced the traces has a bug.

Everything is pure; the memo tables (`_mn` and the per-n
`_weighted_characters`) are only ever extended, never invalidated, so
concurrent readers see consistent values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from operator import mul

from .combinat import GradedPoly, Partition, partitions_of, syt_count, z_lambda
from .errors import NotACharacterError

__all__ = [
    "ClassFunction",
    "GradedFrobenius",
    "SchurExpansion",
    "dimension",
    "expansion_character",
    "irr_character",
    "omega",
    "q_graded",
    "q_reverse",
    "schur_decompose",
    "schur_from_traces",
]


@cache
def _mn(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion via first-column hook lengths."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    ell = len(lam)
    beta = tuple(lam[i] + ell - 1 - i for i in range(ell))  # strictly decreasing
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((nb if x == b else x for x in beta), reverse=True)
        new_lam = tuple(
            x - (len(new_beta) - 1 - i) for i, x in enumerate(new_beta)
        )
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def irr_character(lam: Partition, rho: Partition) -> int:
    """Character of the irreducible indexed by lam at cycle type rho."""
    if lam.size != rho.size:
        raise ValueError(f"size mismatch: |{lam.parts}| != |{rho.parts}|")
    return _mn(lam.parts, rho.parts)


@dataclass(frozen=True)
class ClassFunction:
    """Exact-rational class function, stored on cycle types of S_n.  Values
    must be ``int`` or ``Fraction``; any other type raises ValueError."""

    n: int
    values: dict[Partition, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for v in self.values.values():
            if not isinstance(v, (int, Fraction)):
                raise ValueError(f"value must be an int or a Fraction, got {v!r}")
        vals = {rho: Fraction(v) for rho, v in self.values.items()}
        object.__setattr__(self, "values", vals)
        expected = set(partitions_of(self.n))
        if set(vals) != expected:
            missing = sorted(p.parts for p in expected - set(vals))
            raise ValueError(f"class function must cover every cycle type; missing {missing}")

    def value(self, rho: Partition) -> Fraction:
        return self.values[rho]


class SchurExpansion:
    """Mapping from partitions of n to GradedPoly coefficients.

    An ``int`` coefficient is read as a constant; any other non-GradedPoly,
    a bool among them, raises ValueError.  Zero coefficients are never stored, so dict equality
    is semantic equality of expansions.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs: dict[Partition, GradedPoly] | None = None):
        self.n = n
        clean: dict[Partition, GradedPoly] = {}
        for lam, poly in (coeffs or {}).items():
            if lam.size != n:
                raise ValueError(f"shape {lam.parts} is not a partition of {n}")
            if type(poly) is int:
                poly = GradedPoly.const(poly)
            elif not isinstance(poly, GradedPoly):
                raise ValueError(f"coefficient must be a GradedPoly or an int, got {poly!r}")
            if poly:
                clean[lam] = poly
        self._coeffs = clean

    def coefficient(self, lam: Partition) -> GradedPoly:
        return self._coeffs.get(lam, GradedPoly.zero())

    def items(self) -> list[tuple[Partition, GradedPoly]]:
        """(shape, coefficient) pairs in canonical (lex-decreasing) order."""
        return sorted(self._coeffs.items(), key=lambda kv: kv[0].parts, reverse=True)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchurExpansion)
            and self.n == other.n
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"s{list(l.parts)}: {p.as_str()}" for l, p in self.items())
        return f"SchurExpansion(n={self.n}, {{{body}}})"


@dataclass(frozen=True)
class GradedFrobenius:
    """Graded Frobenius image of a spanning configuration ring, one Schur
    expansion per half cohomological degree s that holds any.

    The tableau formula and the quotient-ring oracles both return it.
    """

    n: int
    k: int
    by_degree: dict[int, SchurExpansion]

    def top_degree(self) -> int:
        return max(self.by_degree, default=-1)

    def coefficient(self, s: int, lam: Partition) -> GradedPoly:
        exp = self.by_degree.get(s)
        return exp.coefficient(lam) if exp is not None else GradedPoly.zero()

    @property
    def dims(self) -> dict[int, int]:
        """Dimension of each degree, read off its expansion."""
        return {s: int(dimension(exp).evaluate()) for s, exp in sorted(self.by_degree.items())}

    def total_dimension(self) -> int:
        return sum(self.dims.values())

    def hilbert(self) -> GradedPoly:
        return GradedPoly({(s, 0, 0): d for s, d in self.dims.items()})

    def as_q_expansion(self) -> SchurExpansion:
        """The same data as one expansion with q-polynomial coefficients."""
        return q_graded(self.n, self.by_degree)


def q_graded(n: int, by_degree: dict[int, SchurExpansion]) -> SchurExpansion:
    """The sum over s of q^s times by_degree[s]."""
    coeffs: dict[Partition, GradedPoly] = {}
    for s, exp in by_degree.items():
        for lam, poly in exp.items():
            coeffs[lam] = coeffs.get(lam, GradedPoly.zero()) + poly * GradedPoly.term(1, q=s)
    return SchurExpansion(n, coeffs)


@cache
def _weighted_characters(n: int):
    """The cycle types of S_n and, for each shape lam, the integers
    chi^lam(rho) * n!/z_rho over those cycle types, in the same order."""
    types = tuple(partitions_of(n))
    sizes = [factorial(n) // z_lambda(rho) for rho in types]
    table = tuple(
        (lam, tuple(_mn(lam.parts, rho.parts) * size for rho, size in zip(types, sizes)))
        for lam in types
    )
    return types, table


def schur_decompose(chi: ClassFunction) -> SchurExpansion:
    """Decompose a genuine character into Schur multiplicities.

    The multiplicity of lam is the inner product sum_rho chi(rho)
    chi^lam(rho) / z_rho.  It is computed in integers: the values are
    scaled once by the lcm of their denominators, and each shape's sum
    is divided by that lcm times n! at the end.  Any non-integer or
    negative result raises NotACharacterError.
    """
    n = chi.n
    types, table = _weighted_characters(n)
    values = [chi.value(rho) for rho in types]
    den = lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (den // v.denominator) for v in values]
    scale = den * factorial(n)
    coeffs: dict[Partition, GradedPoly] = {}
    for lam, weights in table:
        total = sum(map(mul, weights, scaled))
        mult, rest = divmod(total, scale)
        if rest or mult < 0:
            raise NotACharacterError(
                f"multiplicity of {lam.parts} came out {Fraction(total, scale)}"
            )
        if mult:
            coeffs[lam] = GradedPoly.const(mult)
    return SchurExpansion(n, coeffs)


def schur_from_traces(n: int, trace) -> SchurExpansion:
    """Schur decomposition of the S_n character whose value at cycle type rho is trace(rho)."""
    return schur_decompose(ClassFunction(n, {rho: trace(rho) for rho in partitions_of(n)}))


def expansion_character(expansion: SchurExpansion) -> ClassFunction:
    """Class function of an expansion with constant integer coefficients."""
    mults = {}
    for lam, poly in expansion.items():
        if not poly.is_constant():
            raise ValueError("expansion has graded coefficients, not plain multiplicities")
        mults[lam] = poly.coefficient()
    values = {
        rho: Fraction(sum(m * irr_character(lam, rho) for lam, m in mults.items()))
        for rho in partitions_of(expansion.n)
    }
    return ClassFunction(expansion.n, values)


def omega(expansion: SchurExpansion) -> SchurExpansion:
    """The involution sending each shape to its conjugate."""
    return SchurExpansion(
        expansion.n, {lam.conjugate(): poly for lam, poly in expansion.items()}
    )


def q_reverse(expansion: SchurExpansion, top: int) -> SchurExpansion:
    """Reverse q-exponents around top in every coefficient."""
    return SchurExpansion(
        expansion.n, {lam: poly.reverse_q(top) for lam, poly in expansion.items()}
    )


def dimension(expansion: SchurExpansion) -> GradedPoly:
    """Graded dimension: sum of coefficient * (number of standard tableaux)."""
    total = GradedPoly.zero()
    for lam, poly in expansion.items():
        total = total + poly * syt_count(lam)
    return total
