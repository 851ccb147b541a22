"""Closed-form side: the tableau formula for the graded Frobenius image.

The cohomology of the space of n spanning lines in C^k is concentrated in
even degrees; everything here is indexed by the half degree s (so H^{2s}).
The formula sums q^maj(T) * qbinom(n - des(T) - 1, n - k) * s_shape(T)
over all standard tableaux with n boxes; tableaux with too many descents
are killed by the vanishing q-binomial.

`shape_multiplicity` recomputes single coefficients by counting
(tableau, bounded partition) pairs, which is the stabilization
mechanism: once n is large enough the bounding rectangle stops
mattering and the count freezes.  Both routes read the tableaux only
through the number with each (des, maj) (`combinat.des_maj_counts`), so
no tableau is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import (
    GradedPoly,
    Partition,
    count_partitions_bounded,
    des_maj_counts,
    pad,
    partitions_of,
    q_binomial,
)
from .errors import ScaleGuardError
from .symfun import GradedFrobenius, SchurExpansion

__all__ = [
    "Elementary",
    "FORMULA_MAX_N",
    "FixedCodim",
    "FixedK",
    "GradedFrobenius",
    "Homogeneous",
    "delta_eigenvalue",
    "grfrob_tableaux",
    "shape_multiplicity",
    "stable_multiplicity",
]


# Largest n whose whole table grfrob_tableaux builds.  Its cost is set by n,
# barely by k: on one Xeon core, k = n // 2 took 0.5 s and 40 MB max RSS at
# n = 16, 3.4 s and 227 MB at n = 20, and 5.3 s and 353 MB at n = 21, memory
# growing about 2.5x for every two steps of n.
FORMULA_MAX_N = 20


def grfrob_tableaux(n: int, k: int) -> GradedFrobenius:
    """Graded Frobenius image of the spanning-line cohomology ring, by tableaux
    counted per (des, maj) class of each shape.  Refuses n > FORMULA_MAX_N
    with ScaleGuardError before any work."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if n > FORMULA_MAX_N:
        raise ScaleGuardError(f"formula table limited to n <= {FORMULA_MAX_N}, got n={n}")
    acc: dict[int, dict[Partition, int]] = {}
    for lam in partitions_of(n):
        for (d, m), count in des_maj_counts(lam).items():
            for (qe, _, _), c in q_binomial(n - d - 1, n - k).items():
                bucket = acc.setdefault(m + qe, {})
                bucket[lam] = bucket.get(lam, 0) + count * c
    by_degree = {
        s: SchurExpansion(n, {lam: GradedPoly.const(c) for lam, c in bucket.items()})
        for s, bucket in acc.items()
    }
    return GradedFrobenius(n, k, by_degree)


def shape_multiplicity(lam: Partition, k: int, s: int) -> int:
    """Multiplicity of the shape in half-degree s, by counting pairs.

    Counts pairs (T, nu) with T a standard tableau of shape lam, nu a
    partition inside the (k - des(T) - 1) x (n - k) rectangle, and
    maj(T) + |nu| = s.  The tableaux enter only through the number with
    each (des, maj), maj <= s, and the partitions of each class are
    counted by a recursion on parts -- this is deliberately independent
    of the q-binomials that `grfrob_tableaux` weights each class with.
    """
    n = lam.size
    if k < 1 or k > n or s < 0:
        return 0
    total = 0
    for (d, m), count in des_maj_counts(lam, s).items():
        rows_avail = k - d - 1
        if rows_avail >= 0:
            total += count * count_partitions_bounded(s - m, rows_avail, n - k)
    return total


@dataclass(frozen=True)
class FixedK:
    """Grow n with the ambient dimension k held fixed."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need k >= 1, got k = {self.k}")


@dataclass(frozen=True)
class FixedCodim:
    """Grow n with the codimension m = n - k held fixed."""

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"need m >= 0, got m = {self.m}")


Mode = FixedK | FixedCodim


def stabilization_bound(mu: Partition, s: int, mode: Mode) -> int:
    """Least n at which the multiplicity sequence is guaranteed constant."""
    if isinstance(mode, FixedK):
        return max(2 * s, s + mode.k) + 1
    return max(2 * s + mode.m + 1, mu.size + mu.first_part()) + 1


def stable_multiplicity(mu: Partition, s: int, mode: Mode) -> int:
    """Eventual multiplicity of the padded shape mu in half-degree s."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if mu.size > s:
        return 0  # maj of any tableau of a padded shape is at least |mu|
    big_n = stabilization_bound(mu, s, mode)
    if isinstance(mode, FixedK):
        return shape_multiplicity(pad(mu, big_n), mode.k, s)
    return shape_multiplicity(pad(mu, big_n), big_n - mode.m, s)


@dataclass(frozen=True)
class Elementary:
    """Elementary symmetric function e_j, as an evaluation spec."""

    degree: int


@dataclass(frozen=True)
class Homogeneous:
    """Complete homogeneous symmetric function h_j, as an evaluation spec."""

    degree: int


def _eval_elementary(j: int, monomials: list[GradedPoly]) -> GradedPoly:
    if j < 0:
        return GradedPoly.zero()
    table = [GradedPoly.const(1)] + [GradedPoly.zero()] * j
    for m in monomials:
        for i in range(j, 0, -1):
            table[i] = table[i] + m * table[i - 1]
    return table[j]


def _eval_homogeneous(j: int, monomials: list[GradedPoly]) -> GradedPoly:
    if j < 0:
        return GradedPoly.zero()
    table = [GradedPoly.const(1)] + [GradedPoly.zero()] * j
    for m in monomials:
        for i in range(1, j + 1):  # ascending: multiset repetition allowed
            table[i] = table[i] + m * table[i - 1]
    return table[j]


def _eval_fspec(f, monomials: list[GradedPoly]) -> GradedPoly:
    if isinstance(f, Elementary):
        return _eval_elementary(f.degree, monomials)
    if isinstance(f, Homogeneous):
        return _eval_homogeneous(f.degree, monomials)
    if isinstance(f, (tuple, list)):
        out = GradedPoly.const(1)
        for factor in f:
            out = out * _eval_fspec(factor, monomials)
        return out
    raise TypeError(f"not an evaluable symmetric-function spec: {f!r}")


def cell_monomials(mu: Partition) -> list[GradedPoly]:
    """q^col * t^row for each 0-indexed cell of mu except the corner (0, 0)."""
    out = []
    for row, row_len in enumerate(mu.parts):
        for col in range(row_len):
            if row == 0 and col == 0:
                continue
            out.append(GradedPoly.term(1, q=col, t=row))
    return out


def delta_eigenvalue(f, mu: Partition) -> GradedPoly:
    """Eigenvalue of the primed delta operator for F on the mu basis element.

    Evaluates F at the multiset of cell monomials of mu with the corner
    removed.  F may be Elementary(j), Homogeneous(j), or a tuple of those
    (meaning their product); general plethysm is out of scope.
    """
    if not mu.parts:
        raise ValueError("mu must be nonempty")
    return _eval_fspec(f, cell_monomials(mu))
