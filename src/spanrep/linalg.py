"""Sparse exact row reduction over the rationals, computed in integers.

:class:`EchelonBasis` maintains a reduced row-echelon basis of a growing
subspace.  Vectors are sparse mappings from column keys to ints or
Fractions; keys only need to be hashable and mutually orderable (monomial
codes, exponent tuples and super-monomials all qualify).  The pivot of a row is its
smallest key.

Rows are stored fraction-free: each is a primitive integer vector (its
entries have gcd 1) with a positive pivot coefficient.  Insertion clears
denominators, eliminates by cross-multiplication in the style of Bareiss
(Math. Comp. 22, 1968) and divides out the gcd, so no rational number is
formed until a caller reads one.

The basis is kept *fully* reduced: each pivot column is zero in every
other row.  That is what lets callers read coordinates of a subspace
vector directly off the pivot columns, which is how :func:`stable_trace`
computes traces on invariant subspaces.  It also makes the non-pivot
columns a basis of the quotient by the span, each pivot being minus its
row's non-pivot entries there, so :func:`quotient_trace` reads a trace on
the quotient off whichever is smaller: the rows or the non-pivot columns.
Both readouts take the map the same way, as a signed permutation of the
columns: image(columns) yields the (key, sign) with
g . column = sign * key for each column in turn.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = dict  # column key -> int or Fraction


_INT = frozenset({int})


def _integer_vector(vec: Vector) -> dict:
    """vec scaled by the lcm of its denominators, zero entries dropped; a
    new dict, which the caller may mutate."""
    values = vec.values()
    if set(map(type, values)) <= _INT:  # plain ints: nothing to scale
        return dict(vec) if all(values) else {k: c for k, c in vec.items() if c}
    den = lcm(*(c.denominator for c in values))
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

    def non_pivots(self, columns) -> list:
        """The given columns that are not pivots, in their order.  Over all
        columns of the space, a basis of its quotient by the span."""
        rows = self._rows
        return [c for c in columns if c not in rows]

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


def _exact_total(fixed: int, by_pivot_coeff: dict) -> int:
    """fixed plus the sum of s / a over the (a, s) items of by_pivot_coeff,
    with no Fraction formed for a = 1.  A trace on a stable span or its
    quotient is an integer; anything else means the span was not stable,
    which is raised rather than rounded."""
    total = fixed + by_pivot_coeff.get(1, 0)
    total += sum(Fraction(s) / a for a, s in by_pivot_coeff.items() if a != 1)
    if total.denominator != 1:
        raise RuntimeError(f"non-integer trace {total}: subspace not stable under the action")
    return int(total)


def stable_trace(basis: EchelonBasis, image) -> int:
    """Trace of g on the span of basis, which g must preserve.

    g permutes columns up to sign: image(columns) yields, for each of the
    given columns in turn, the (key, sign) with g . column = sign * key.
    What is read is the trace of g^{-1}, which is the same: g has finite
    order, so that trace is the complex conjugate of g's, a rational.  As no
    other row has an entry at a row's pivot, (g^{-1} . row)[pivot], which
    is sign * row[key] for g . pivot = sign * key, divided by the pivot
    coefficient is the coordinate of g^{-1} . row along row itself, and
    the trace is their sum, an integer for a stable span.
    """
    rows = basis._rows
    by_pivot_coeff: dict[int, int] = {}
    for (p, row), (key, sign) in zip(rows.items(), image(rows)):
        a = row[p]
        by_pivot_coeff[a] = by_pivot_coeff.get(a, 0) + sign * row.get(key, 0)
    return _exact_total(0, by_pivot_coeff)


def _standard_side(basis: EchelonBasis, standard, image) -> int:
    """Trace of g on (piece)/(span), summed over the non-pivot columns.

    Modulo the span a pivot u is -(1/a_u) times the non-pivot part of its
    row, a_u being its pivot coefficient.  So the diagonal coordinate at a
    non-pivot m is sign when g . m = sign * m, -sign * row_u[m] / a_u when
    g . m = sign * u, and 0 when g . m is another non-pivot.
    """
    rows = basis._rows
    fixed = 0
    by_pivot_coeff: dict[int, int] = {}
    for m, (key, sign) in zip(standard, image(standard)):
        if key == m:
            fixed += sign
        elif (row := rows.get(key)) is not None and (c := row.get(m)):
            a = row[key]
            by_pivot_coeff[a] = by_pivot_coeff.get(a, 0) - sign * c
    return _exact_total(fixed, by_pivot_coeff)


def quotient_trace(basis: EchelonBasis, standard, image, whole: int) -> int:
    """Trace of g on the quotient of a piece by the span of basis, which g
    must preserve.

    g permutes the piece's columns up to sign, given by image as in
    :func:`stable_trace`.  standard lists the piece's non-pivot columns
    (:meth:`EchelonBasis.non_pivots`), and whole is the trace of g on the
    piece.  The trace is read off the smaller side: the non-pivot columns
    when there are fewer of them than rows (:func:`_standard_side`), else
    the rows, as whole minus the trace on the span (:func:`stable_trace`).
    """
    if len(standard) < basis.rank:
        return _standard_side(basis, standard, image)
    return whole - stable_trace(basis, image)
