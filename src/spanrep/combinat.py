"""Partitions, standard Young tableaux, tableau statistics, and q-analogues.

All arithmetic is exact: coefficients are Python integers and graded
bookkeeping lives in :class:`GradedPoly`, a polynomial in the grading
variables q, t, z.  Everything is pure and deterministic, and enumeration
orders are pinned (partitions lexicographically decreasing, tableaux by
earliest-row placement) so serialized output stays stable.

Tableau statistics come from `des_maj_counts`, which builds no tableau;
`syt_enumerate`, `des` and `maj` serve checks on the tableaux themselves.

Memo tables (they only grow): `_partition_tuples`, `_partitions` (the
`Partition`s of each n), `_des_maj_by_last_row` (the (des, maj) counts
behind `des_maj_counts`, keyed by shape, row of the largest entry and maj
cap), `_qbin` and `_cpb`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

from .errors import PaddingError

__all__ = [
    "GradedPoly",
    "Partition",
    "StandardTableau",
    "count_partitions_bounded",
    "cycle_type",
    "des",
    "des_maj_counts",
    "maj",
    "pad",
    "partitions_of",
    "perm_of_type",
    "q_binomial",
    "syt_count",
    "syt_enumerate",
    "unpad",
    "z_lambda",
]


class GradedPoly:
    """Exact polynomial in the grading variables q, t, z.

    Terms map exponent triples (q, t, z) of nonnegative ints to nonzero
    int coefficients; any other type (a bool, a float) raises ValueError.
    Instances are immutable by convention: every operation returns a new
    polynomial, so results can be shared and memoized freely.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int, int], int] | None = None):
        clean: dict[tuple[int, int, int], int] = {}
        for exps, coeff in (terms or {}).items():
            qe, te, ze = exps
            if not type(qe) is type(te) is type(ze) is int:
                raise ValueError(f"exponents must be ints, got {exps!r}")
            if qe < 0 or te < 0 or ze < 0:
                raise ValueError(f"negative exponent in {exps}")
            if type(coeff) is not int:
                raise ValueError(f"coefficient must be an int, got {coeff!r}")
            if coeff:
                clean[(qe, te, ze)] = coeff
        self._terms = clean

    @classmethod
    def zero(cls) -> "GradedPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "GradedPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def term(cls, coeff: int, q: int = 0, t: int = 0, z: int = 0) -> "GradedPoly":
        return cls({(q, t, z): coeff})

    def items(self) -> list[tuple[tuple[int, int, int], int]]:
        """Terms as ((q, t, z), coeff) pairs, exponent triples ascending."""
        return sorted(self._terms.items())

    def coefficient(self, q: int = 0, t: int = 0, z: int = 0) -> int:
        return self._terms.get((q, t, z), 0)

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is int:  # const refuses a bool, and == must not raise
            other = GradedPoly.const(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "GradedPoly | int") -> "GradedPoly":
        if isinstance(other, int):
            other = GradedPoly.const(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return GradedPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        return GradedPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "GradedPoly | int") -> "GradedPoly":
        return self + (-other)

    def __mul__(self, other: "GradedPoly | int") -> "GradedPoly":
        if isinstance(other, int):
            return GradedPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, GradedPoly):
            return NotImplemented
        out: dict[tuple[int, int, int], int] = {}
        for (q1, t1, z1), c1 in self._terms.items():
            for (q2, t2, z2), c2 in other._terms.items():
                e = (q1 + q2, t1 + t2, z1 + z2)
                out[e] = out.get(e, 0) + c1 * c2
        return GradedPoly(out)

    __rmul__ = __mul__

    def evaluate(self, q=1, t=1, z=1):
        """Value at numeric arguments; exact for int/Fraction inputs."""
        return sum(c * q**qe * t**te * z**ze for (qe, te, ze), c in self._terms.items())

    def q_degree(self) -> int:
        """Largest q-exponent present, -1 for the zero polynomial."""
        return max((e[0] for e in self._terms), default=-1)

    def reverse_q(self, top: int) -> "GradedPoly":
        """Replace every q-exponent e by top - e; every e must be <= top."""
        out = {}
        for (qe, te, ze), c in self._terms.items():
            if qe > top:
                raise ValueError(f"q-exponent {qe} exceeds reversal top {top}")
            out[(top - qe, te, ze)] = c
        return GradedPoly(out)

    def as_str(self) -> str:
        """Canonical rendering, terms ascending in (q, t, z)."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for (qe, te, ze), c in self.items():
            vars_ = []
            for name, e in (("q", qe), ("t", te), ("z", ze)):
                if e == 1:
                    vars_.append(name)
                elif e > 1:
                    vars_.append(f"{name}^{e}")
            mag = abs(c)
            if not vars_:
                body = str(mag)
            elif mag == 1:
                body = "*".join(vars_)
            else:
                body = "*".join([str(mag)] + vars_)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"GradedPoly<{self.as_str()}>"


@dataclass(frozen=True)
class Partition:
    """Integer partition: weakly decreasing positive parts (possibly none)."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(type(p) is not int for p in parts):
            raise ValueError(f"parts must be ints: {parts!r}")
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def first_part(self) -> int:
        return self.parts[0] if self.parts else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def fits_in_box(self, rows: int, cols: int) -> bool:
        """Whether the diagram fits in a rows x cols rectangle."""
        return self.length <= rows and self.first_part() <= cols

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


@cache
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@cache
def _partitions(n: int) -> tuple[Partition, ...]:
    return tuple(Partition(t) for t in _partition_tuples(n, n))


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, each exactly once, lexicographically decreasing."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions(n))


def perm_of_type(rho: Partition, n: int) -> tuple[int, ...]:
    """A representative permutation with the given cycle type (w[i] = image)."""
    if rho.size != n:
        raise ValueError(f"cycle type {rho.parts} is not a partition of {n}")
    w = list(range(n))
    start = 0
    for part in rho.parts:
        for j in range(part):
            w[start + j] = start + (j + 1) % part
        start += part
    return tuple(w)


def cycle_type(w: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle lengths of w (w[i] = image), largest first."""
    seen = [False] * len(w)
    lengths = []
    for i in range(len(w)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = w[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def pad(mu: Partition, n: int) -> Partition:
    """Pad mu to a partition of n by prepending the part n - |mu|.

    Raises PaddingError when n < |mu| + mu_1; callers treat that regime as
    multiplicity zero.
    """
    first = mu.first_part()
    if n < mu.size + first:
        raise PaddingError(f"cannot pad {mu.parts} to size {n}")
    if n == mu.size:  # only reachable for the empty partition with n = 0
        return mu
    return Partition((n - mu.size,) + mu.parts)


def unpad(lam: Partition) -> Partition:
    """Strip the first part: the stable label mu with lam = pad(mu, |lam|)."""
    return Partition(lam.parts[1:])


@dataclass(frozen=True)
class StandardTableau:
    """Standard Young tableau in English orientation (row 0 on top)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if any(type(v) is not int for row in rows for v in row):
            raise ValueError(f"entries must be ints: {rows!r}")
        lengths = [len(r) for r in rows]
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)) or 0 in lengths:
            raise ValueError(f"row lengths must be a partition shape: {lengths}")
        n = sum(lengths)
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")
        for row in rows:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row not increasing: {row}")
        for i in range(len(rows) - 1):
            for j in range(len(rows[i + 1])):
                if rows[i][j] >= rows[i + 1][j]:
                    raise ValueError(f"column {j} not increasing")

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))


def _descents(t: StandardTableau) -> list[int]:
    row_of = {}
    for r, row in enumerate(t.rows):
        for v in row:
            row_of[v] = r
    # i is a descent when i sits in a row strictly above i + 1
    return [i for i in range(1, t.n) if row_of[i] < row_of[i + 1]]


def des(t: StandardTableau) -> int:
    """Number of descents of the tableau."""
    return len(_descents(t))


def maj(t: StandardTableau) -> int:
    """Major index: sum of the descents."""
    return sum(_descents(t))


def syt_enumerate(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the shape, in earliest-row placement order."""
    parts, n = shape.parts, shape.size
    out: list[StandardTableau] = []
    rows: list[list[int]] = [[] for _ in parts]

    def place(v: int) -> None:
        if v > n:
            out.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for i, row in enumerate(rows):
            if len(row) < parts[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(v)
                place(v + 1)
                row.pop()

    place(1)
    return out


def _corner_rows(shape: tuple[int, ...]) -> list[int]:
    """Rows whose last box can be removed, leaving a partition shape."""
    last = len(shape) - 1
    return [r for r, part in enumerate(shape) if r == last or part > shape[r + 1]]


@cache
def _des_maj_by_last_row(shape: tuple[int, ...], row: int, cap: int) -> dict[tuple[int, int], int]:
    """(des, maj) counts, maj <= cap, of the tableaux of the shape whose
    largest entry n ends the given row (a corner).  Callers must not mutate
    the result.

    Removing n leaves a tableau of the smaller shape with n - 1 ending some
    corner row r.  n - 1 is a descent exactly when r is above the row of n,
    and it then adds n - 1 to maj; no other descent changes.  So the cap
    only falls on the way down, and pruning a state above it is exact.  A
    cap passed down is clamped to the smaller shape's largest maj,
    (n - 1)(n - 2)/2, so each (shape, row) is stored under one cap once no
    cap prunes it.
    """
    n = sum(shape)
    if n == 1:
        return {(0, 0): 1}
    smaller = shape[:row] + (shape[row] - 1,) + shape[row + 1:]
    if not smaller[-1]:
        smaller = smaller[:-1]
    top = (n - 1) * (n - 2) // 2
    out: dict[tuple[int, int], int] = {}
    for r in _corner_rows(smaller):
        if r < row:
            if cap < n - 1:
                continue
            for (d, m), c in _des_maj_by_last_row(smaller, r, min(cap - (n - 1), top)).items():
                out[d + 1, m + n - 1] = out.get((d + 1, m + n - 1), 0) + c
        else:
            for dm, c in _des_maj_by_last_row(smaller, r, min(cap, top)).items():
                out[dm] = out.get(dm, 0) + c
    return out


def des_maj_counts(shape: Partition, max_maj: int | None = None) -> dict[tuple[int, int], int]:
    """Number of standard tableaux of the shape with each (des, maj).

    Only classes with maj <= max_maj are kept (all of them when max_maj is
    None).  Computed by a memoized recursion over (shape, row of the
    largest entry) that never builds a tableau; the keys are in ascending
    (des, maj) order.
    """
    n = shape.size
    top = n * (n - 1) // 2  # maj never exceeds 1 + 2 + ... + (n - 1)
    cap = top if max_maj is None else min(max_maj, top)
    if cap < 0:
        return {}
    if n == 0:
        return {(0, 0): 1}
    out: dict[tuple[int, int], int] = {}
    for r in _corner_rows(shape.parts):
        for dm, c in _des_maj_by_last_row(shape.parts, r, cap).items():
            out[dm] = out.get(dm, 0) + c
    return dict(sorted(out.items()))


def syt_count(shape: Partition) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    conj = shape.conjugate().parts
    hooks = 1
    for i, row_len in enumerate(shape.parts):
        for j in range(row_len):
            hooks *= (row_len - j) + (conj[j] - i) - 1
    return factorial(shape.size) // hooks


@cache
def _qbin(n: int, k: int) -> GradedPoly:
    if k < 0 or k > n or n < 0:
        return GradedPoly.zero()
    if k == 0 or k == n:
        return GradedPoly.const(1)
    return _qbin(n - 1, k - 1) + GradedPoly.term(1, q=k) * _qbin(n - 1, k)


def q_binomial(n: int, k: int) -> GradedPoly:
    """Gaussian binomial coefficient as a polynomial in q.

    Out-of-range (k < 0 or k > n) gives the zero polynomial: the graded
    Frobenius formula relies on that to silently drop tableaux with too
    many descents.
    """
    return _qbin(n, k)


@cache
def _cpb(s: int, max_parts: int, max_part: int) -> int:
    if s == 0:
        return 1
    if max_parts <= 0 or max_part <= 0:
        return 0
    total = 0
    for first in range(min(s, max_part), 0, -1):
        total += _cpb(s - first, max_parts - 1, first)
    return total


def count_partitions_bounded(s: int, max_parts: int | None = None, max_part: int | None = None) -> int:
    """Partitions of s with at most max_parts parts, each at most max_part.

    Either bound may be None (unbounded).  A negative bound admits nothing
    except the empty partition of 0 when the other conditions allow it.
    """
    if s < 0:
        return 0
    a = s if max_parts is None else max_parts
    b = s if max_part is None else max_part
    if a < 0 or b < 0:
        return 0
    return _cpb(s, min(a, s), min(b, s))


def z_lambda(rho: Partition) -> int:
    """Centralizer order of the cycle type: product of i^m_i * m_i!."""
    mult: dict[int, int] = {}
    for p in rho.parts:
        mult[p] = mult.get(p, 0) + 1
    out = 1
    for i, m in mult.items():
        out *= i**m * factorial(m)
    return out
