"""Sparse exact row reduction over the rationals, computed in integers.

:class:`EchelonBasis` maintains a reduced row-echelon basis of a growing
subspace.  Vectors are sparse mappings from column keys to ints or
Fractions; keys only need to be hashable and mutually orderable (exponent
tuples and super-monomials both qualify).  The pivot of a row is its
smallest key.

Rows are stored fraction-free: each is a primitive integer vector (its
entries have gcd 1) with a positive pivot coefficient.  Insertion clears
denominators, eliminates by cross-multiplication in the style of Bareiss
(Math. Comp. 22, 1968) and divides out the gcd, so no rational number is
formed until a caller reads one.

The basis is kept *fully* reduced: each pivot column is zero in every
other row.  That is what lets callers read coordinates of a subspace
vector directly off the pivot columns, which is how :func:`stable_trace`
computes traces on invariant subspaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = dict  # column key -> int or Fraction


def _integer_vector(vec: Vector) -> dict:
    """vec scaled by the lcm of its denominators, zero entries dropped."""
    den = lcm(*(c.denominator for c in vec.values()))
    if den == 1:
        return {k: int(c) for k, c in vec.items() if c}
    return {k: c.numerator * (den // c.denominator) for k, c in vec.items() if c}


class EchelonBasis:
    """Growing subspace in reduced row-echelon form."""

    def __init__(self):
        self._rows: dict = {}  # pivot key -> primitive int row, positive pivot
        # non-pivot column -> pivots of the rows that have had an entry
        # there, so back-substitution visits only rows it may change; None
        # once released, rebuilt from the rows by the next insert
        self._holders: dict | None = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def primitive_rows(self) -> list[tuple[object, dict]]:
        """(pivot, row) pairs in pivot order, rows as stored: primitive
        integer vectors with a positive pivot.  Rows are live; do not mutate."""
        return [(p, self._rows[p]) for p in sorted(self._rows)]

    def rows(self) -> list[tuple[object, Vector]]:
        """(pivot, row) pairs in pivot order, each row scaled to pivot
        coefficient 1 with Fraction entries.  Built on every call."""
        out = []
        for p in sorted(self._rows):
            row = self._rows[p]
            a = row[p]
            out.append((p, {k: Fraction(c, a) for k, c in row.items()}))
        return out

    def release_index(self) -> None:
        """Drop the back-substitution index, which only insert reads, to
        save memory on a finished basis.  A later insert rebuilds it."""
        self._holders = None

    def _eliminate(self, v: dict) -> int:
        """Clear every pivot coordinate of the int vector v in place.

        Returns the factor s with v = s * (v as given) - (a combination of
        rows).  Full reduction means no row can reintroduce another pivot,
        so one pass over the pivots initially present suffices.
        """
        rows = self._rows
        scale = 1
        for p in [k for k in v if k in rows]:
            row = rows[p]
            c, a = v[p], row[p]
            if a != 1:
                g = gcd(a, c)
                c, a = c // g, a // g
                if a != 1:
                    for k in v:
                        v[k] *= a
                    scale *= a
            for k, rc in row.items():
                nc = v.get(k, 0) - c * rc
                if nc:
                    v[k] = nc
                else:
                    del v[k]
        return scale

    def reduce(self, vec: Vector) -> dict:
        """Residual of vec after eliminating every pivot coordinate, as
        exact Fractions (the residual against the pivot-1 rows)."""
        den = lcm(*(c.denominator for c in vec.values()))
        v = _integer_vector(vec)
        den *= self._eliminate(v)
        return {k: Fraction(c, den) for k, c in v.items()}

    def insert(self, vec: Vector) -> bool:
        """Add vec to the span; returns True when the rank grew."""
        v = _integer_vector(vec)
        self._eliminate(v)
        if not v:
            return False
        p = min(v)
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        if g != 1:
            v = {k: c // g for k, c in v.items()}
        a = v[p]
        holders = self._holders
        if holders is None:
            holders = self._holders = {}
            for q, row in self._rows.items():
                for k in row:
                    if k != q:
                        holders.setdefault(k, []).append(q)
        for k in v:
            if k != p:
                holders.setdefault(k, []).append(p)
        for q in holders.pop(p, ()):
            other = self._rows[q]
            c = other.get(p)
            if c is None:  # a stale holder: the entry was cancelled since
                continue
            g = gcd(a, c)
            m, c = a // g, c // g
            if m != 1:
                for k in other:
                    other[k] *= m
            for k, vc in v.items():
                old = other.get(k)
                if old is None:
                    other[k] = -c * vc
                    holders[k].append(q)
                elif old != c * vc:
                    other[k] = old - c * vc
                else:
                    del other[k]
            if other[q] != 1:
                g = gcd(*other.values())
                if g != 1:
                    for k in other:
                        other[k] //= g
        self._rows[p] = v
        return True

    def contains(self, vec: Vector) -> bool:
        v = _integer_vector(vec)
        self._eliminate(v)
        return not v


def stable_trace(basis: EchelonBasis, coordinate) -> int:
    """Trace of a linear map g on the span of basis, which g must preserve.

    coordinate(pivot, row) returns (g . row)[pivot] for a stored row.  As
    no other row has a pivot entry there, that value divided by the row's
    pivot coefficient is the coordinate of g . row along row itself, and
    the trace is their sum.  An integer-valued map on a stable span has an
    integer trace; anything else means the span was not stable, which is
    raised rather than rounded.
    """
    by_pivot_coeff: dict[int, object] = {}
    for p, row in basis._rows.items():
        a = row[p]
        by_pivot_coeff[a] = by_pivot_coeff.get(a, 0) + coordinate(p, row)
    total = sum((Fraction(s) / a for a, s in by_pivot_coeff.items()), Fraction(0))
    if total.denominator != 1:
        raise RuntimeError(f"non-integer trace {total}: subspace not stable under the action")
    return int(total)
