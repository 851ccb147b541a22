"""Slow reference implementations that the fast paths are tested against.

- :class:`FractionEchelonBasis`: reduced row echelon form kept directly in
  Fractions, every row scaled to pivot coefficient 1.
- :func:`quotient_basis` and :func:`character_on_quotient`: the commuting
  oracle over the full polynomial ring Q[x], with x_i^k among the ideal
  generators and each degree-d ideal piece spanned by every generator
  times every monomial of the complementary degree.

Neither shares code with the library beyond monomial enumeration, the
symmetric polynomials and cycle-type representatives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from spanrep.combinat import Partition, perm_of_type
from spanrep.oracle import elementary_sym, monomials_of_degree

_ZERO = Fraction(0)


class FractionEchelonBasis:
    """Growing subspace in reduced row-echelon form, over Fractions."""

    def __init__(self):
        self._rows: dict = {}  # pivot key -> row (dict, pivot coefficient 1)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def rows(self) -> list:
        return [(p, self._rows[p]) for p in sorted(self._rows)]

    def reduce(self, vec: dict) -> dict:
        v = {k: Fraction(c) for k, c in vec.items() if c}
        for p in [k for k in v if k in self._rows]:
            c = v.get(p, _ZERO)
            if not c:
                continue
            for k, rc in self._rows[p].items():
                nc = v.get(k, _ZERO) - c * rc
                if nc:
                    v[k] = nc
                else:
                    v.pop(k, None)
        return v

    def insert(self, vec: dict) -> bool:
        r = self.reduce(vec)
        if not r:
            return False
        p = min(r)
        inv = 1 / r[p]
        new_row = {k: c * inv for k, c in r.items()}
        for other in self._rows.values():
            c = other.get(p, _ZERO)
            if not c:
                continue
            for k, rc in new_row.items():
                nc = other.get(k, _ZERO) - c * rc
                if nc:
                    other[k] = nc
                else:
                    other.pop(k, None)
        self._rows[p] = new_row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def pivot_trace(basis: FractionEchelonBasis, preimage) -> Fraction:
    """Trace of a monomial permutation on a stable span: the sum over rows
    of row[preimage(pivot)], valid because every pivot coefficient is 1."""
    return sum((row.get(preimage(p), _ZERO) for p, row in basis.rows()), _ZERO)


def _coinvariant_generators(n: int, k: int) -> list[dict]:
    """x_i^k for each i, plus the top k elementary symmetric polynomials."""
    gens = []
    for i in range(n):
        exps = [0] * n
        exps[i] = k
        gens.append({tuple(exps): 1})
    everyone = tuple(range(n))
    gens += [elementary_sym(j, everyone, n) for j in range(n, n - k, -1)]
    return gens


@cache
def quotient_basis(n: int, k: int, d: int) -> tuple[int, FractionEchelonBasis]:
    """Dimension of the degree-d quotient of Q[x] and its ideal piece."""
    basis = FractionEchelonBasis()
    for gen in _coinvariant_generators(n, k):
        gd = sum(next(iter(gen)))
        if gd > d:
            continue
        for mono in monomials_of_degree(n, d - gd):
            basis.insert({tuple(e + m for e, m in zip(exps, mono)): c for exps, c in gen.items()})
    return len(monomials_of_degree(n, d)) - basis.rank, basis


def character_on_quotient(n: int, k: int, d: int, rho: Partition) -> int:
    """Fixed monomials of Q[x]_d minus the trace on the ideal piece."""
    _, basis = quotient_basis(n, k, d)
    w = perm_of_type(rho, n)
    fixed = sum(
        1 for mono in monomials_of_degree(n, d) if all(mono[w[i]] == mono[i] for i in range(n))
    )
    ideal_trace = pivot_trace(basis, lambda pivot: tuple(pivot[w[j]] for j in range(n)))
    assert ideal_trace.denominator == 1
    return fixed - int(ideal_trace)
