"""Exact arithmetic in mixed commuting/anticommuting polynomial rings.

The ambient ring has m batches of n commuting generators x and p batches
of n anticommuting generators theta (indices 0-based).  A monomial stores
one exponent vector per commuting batch and one strictly increasing index
tuple per anticommuting batch; a repeated theta index is the zero
monomial and is never stored.

Sign conventions are localized: every operation routes raw theta tuples
through :func:`theta_canonical`, which sorts and returns the sign of the
sorting permutation.  Within a batch theta_i theta_j = -theta_j theta_i;
generators of distinct anticommuting batches commute (plain tensor
product), which never affects dimensions or symmetric-group characters.

Built on top of the arithmetic: the superspace Vandermonde, signed
partial derivatives, polarization operators, harmonic closure spaces, and
their graded Frobenius images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import factorial

from .combinat import GradedPoly, perm_inverse, perm_of_type
from .errors import ScaleGuardError
from .linalg import EchelonBasis, stable_trace
from .symfun import SchurExpansion, schur_from_traces

__all__ = [
    "ClosureSpace",
    "IdentityCheck",
    "SuperMonomial",
    "SuperPoly",
    "apply_perm",
    "d_theta",
    "d_x",
    "frobenius_of_closure",
    "harmonic_closure",
    "polarization",
    "superspace_vandermonde",
    "vandermonde_derivative_identity",
]

CLOSURE_MAX_N = 5
Multidegree = tuple[tuple[int, ...], tuple[int, ...]]


def theta_canonical(indices: tuple[int, ...]) -> tuple[tuple[int, ...] | None, int]:
    """Sort a raw theta index tuple; returns (sorted tuple, sign) or (None, 0)."""
    if len(set(indices)) != len(indices):
        return None, 0
    sign = 1
    seq = list(indices)
    # insertion sort; each adjacent swap flips the sign
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return tuple(seq), sign


@dataclass(frozen=True, order=True, slots=True)
class SuperMonomial:
    """One monomial: exponents per commuting batch, index sets per theta batch."""

    xs: tuple[tuple[int, ...], ...]
    thetas: tuple[tuple[int, ...], ...]
    # Monomials are dict keys throughout the linear algebra, and a tuple
    # hash is recomputed on every lookup, so the hash is computed once here.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.xs, self.thetas)))

    def __hash__(self) -> int:
        return self._hash

    def multidegree(self) -> Multidegree:
        return tuple(sum(b) for b in self.xs), tuple(len(b) for b in self.thetas)

    def total_x_degree(self) -> int:
        return sum(sum(b) for b in self.xs)


def mono_mul(a: SuperMonomial, b: SuperMonomial) -> tuple[SuperMonomial | None, int]:
    """Product of monomials: (canonical monomial, sign), or (None, 0)."""
    xs = tuple(tuple(ea + eb for ea, eb in zip(ba, bb)) for ba, bb in zip(a.xs, b.xs))
    thetas = []
    sign = 1
    for ta, tb in zip(a.thetas, b.thetas):
        merged, s = theta_canonical(ta + tb)
        if merged is None:
            return None, 0
        sign *= s
        thetas.append(merged)
    return SuperMonomial(xs, tuple(thetas)), sign


def apply_perm(mono: SuperMonomial, w: tuple[int, ...]) -> tuple[SuperMonomial, int]:
    """Permute generator subscripts by w (w[i] = image of i), with theta sign."""
    new_xs = []
    for batch in mono.xs:
        out = [0] * len(batch)
        for i, e in enumerate(batch):
            out[w[i]] = e
        new_xs.append(tuple(out))
    new_thetas = []
    sign = 1
    for batch in mono.thetas:
        mapped, s = theta_canonical(tuple(w[i] for i in batch))
        sign *= s
        new_thetas.append(mapped)
    return SuperMonomial(tuple(new_xs), tuple(new_thetas)), sign


class SuperPoly:
    """Exact-rational linear combination of super-monomials."""

    __slots__ = ("n", "m", "p", "_terms")

    def __init__(self, n: int, m: int, p: int, terms: dict[SuperMonomial, Fraction] | None = None):
        self.n, self.m, self.p = n, m, p
        clean: dict[SuperMonomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono.xs) != m or len(mono.thetas) != p:
                raise ValueError("monomial batch arity does not match the ring")
            if any(len(b) != n for b in mono.xs):
                raise ValueError("commuting batch has wrong length")
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, m: int, p: int) -> "SuperPoly":
        return cls(n, m, p)

    @classmethod
    def one(cls, n: int, m: int, p: int) -> "SuperPoly":
        return cls(n, m, p, {cls._unit_mono(n, m, p): Fraction(1)})

    @staticmethod
    def _unit_mono(n: int, m: int, p: int) -> SuperMonomial:
        return SuperMonomial(tuple((0,) * n for _ in range(m)), tuple(() for _ in range(p)))

    @classmethod
    def x(cls, n: int, m: int, p: int, i: int, batch: int = 0) -> "SuperPoly":
        xs = [[0] * n for _ in range(m)]
        xs[batch][i] = 1
        mono = SuperMonomial(tuple(tuple(b) for b in xs), tuple(() for _ in range(p)))
        return cls(n, m, p, {mono: Fraction(1)})

    @classmethod
    def theta(cls, n: int, m: int, p: int, i: int, batch: int = 0) -> "SuperPoly":
        thetas = [() for _ in range(p)]
        thetas[batch] = (i,)
        mono = SuperMonomial(tuple((0,) * n for _ in range(m)), tuple(thetas))
        return cls(n, m, p, {mono: Fraction(1)})

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "SuperPoly") -> None:
        if (self.n, self.m, self.p) != (other.n, other.m, other.p):
            raise ValueError("ambient batch structure mismatch")

    def terms(self) -> dict[SuperMonomial, Fraction]:
        return dict(self._terms)

    def items(self) -> list[tuple[SuperMonomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperPoly)
            and (self.n, self.m, self.p) == (other.n, other.m, other.p)
            and self._terms == other._terms
        )

    def __add__(self, other: "SuperPoly") -> "SuperPoly":
        self._check(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return SuperPoly(self.n, self.m, self.p, out)

    def __neg__(self) -> "SuperPoly":
        return SuperPoly(self.n, self.m, self.p, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SuperPoly(self.n, self.m, self.p, {k: c * other for k, c in self._terms.items()})
        if not isinstance(other, SuperPoly):
            return NotImplemented
        self._check(other)
        out: dict[SuperMonomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono, sign = mono_mul(ma, mb)
                if mono is None:
                    continue
                out[mono] = out.get(mono, Fraction(0)) + sign * ca * cb
        return SuperPoly(self.n, self.m, self.p, out)

    __rmul__ = __mul__

    def apply(self, w: tuple[int, ...]) -> "SuperPoly":
        """Diagonal subscript action of a permutation."""
        out: dict[SuperMonomial, Fraction] = {}
        for mono, c in self._terms.items():
            img, sign = apply_perm(mono, w)
            out[img] = out.get(img, Fraction(0)) + sign * c
        return SuperPoly(self.n, self.m, self.p, out)

    def __repr__(self) -> str:
        if not self._terms:
            return "SuperPoly<0>"
        bits = []
        for mono, c in self.items()[:8]:
            bits.append(f"{c}*{_mono_str(mono)}")
        more = "..." if len(self._terms) > 8 else ""
        return f"SuperPoly<{' + '.join(bits)}{more}>"


def _mono_str(mono: SuperMonomial) -> str:
    parts = []
    for b, batch in enumerate(mono.xs):
        for i, e in enumerate(batch):
            if e:
                tag = f"x{b}_" if len(mono.xs) > 1 else "x"
                parts.append(f"{tag}{i}" + (f"^{e}" if e > 1 else ""))
    for b, batch in enumerate(mono.thetas):
        for i in batch:
            tag = f"th{b}_" if len(mono.thetas) > 1 else "th"
            parts.append(f"{tag}{i}")
    return "*".join(parts) if parts else "1"


def _perm_sign(w: tuple[int, ...]) -> int:
    seen = [False] * len(w)
    sign = 1
    for i in range(len(w)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = w[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def superspace_vandermonde(n: int, k: int, *, ambient: int | None = None) -> SuperPoly:
    """Antisymmetrized staircase-times-theta seed in one x and one theta batch.

    With r = n - k, the seed monomial is x_0^{k-1} ... x_r^{k-1} x_{r+1}^{k-2}
    ... x_{n-1}^0 * theta_0 ... theta_{r-1}, and the result is the signed sum
    over all n! subscript permutations.  `ambient` embeds the result in a
    ring on more generators (extra subscripts unused).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    amb = n if ambient is None else ambient
    if amb < n:
        raise ValueError("ambient must be at least n")
    r = n - k
    exps = [0] * amb
    for i in range(r):
        exps[i] = k - 1
    for j in range(k):
        exps[r + j] = k - 1 - j
    seed = SuperMonomial((tuple(exps),), (tuple(range(r)),))
    terms: dict[SuperMonomial, Fraction] = {}
    for w in permutations(range(n)):
        mono, tsign = apply_perm(seed, w + tuple(range(n, amb)))
        terms[mono] = terms.get(mono, Fraction(0)) + _perm_sign(w) * tsign
    return SuperPoly(amb, 1, 1, terms)


def d_x(poly: SuperPoly, i: int, batch: int = 0) -> SuperPoly:
    """Partial derivative in the i-th commuting generator of the batch."""
    out: dict[SuperMonomial, Fraction] = {}
    for mono, c in poly.terms().items():
        e = mono.xs[batch][i]
        if e == 0:
            continue
        new_batch = list(mono.xs[batch])
        new_batch[i] = e - 1
        xs = mono.xs[:batch] + (tuple(new_batch),) + mono.xs[batch + 1 :]
        img = SuperMonomial(xs, mono.thetas)
        out[img] = out.get(img, Fraction(0)) + c * e
    return SuperPoly(poly.n, poly.m, poly.p, out)


def d_theta(poly: SuperPoly, i: int, batch: int = 0) -> SuperPoly:
    """Signed derivative striking theta_i: sign (-1)^(s-1) for position s."""
    out: dict[SuperMonomial, Fraction] = {}
    for mono, c in poly.terms().items():
        idx = mono.thetas[batch]
        if i not in idx:
            continue
        pos = idx.index(i)  # striking 1-based position s carries sign (-1)^(s-1)
        new_idx = idx[:pos] + idx[pos + 1 :]
        thetas = mono.thetas[:batch] + (new_idx,) + mono.thetas[batch + 1 :]
        img = SuperMonomial(mono.xs, thetas)
        out[img] = out.get(img, Fraction(0)) + c * (-1) ** pos
    return SuperPoly(poly.n, poly.m, poly.p, out)


def _theta_left_mul(poly: SuperPoly, i: int, batch: int) -> SuperPoly:
    """Left multiplication by theta_i within one anticommuting batch."""
    out: dict[SuperMonomial, Fraction] = {}
    for mono, c in poly.terms().items():
        merged, sign = theta_canonical((i,) + mono.thetas[batch])
        if merged is None:
            continue
        thetas = mono.thetas[:batch] + (merged,) + mono.thetas[batch + 1 :]
        img = SuperMonomial(mono.xs, thetas)
        out[img] = out.get(img, Fraction(0)) + c * sign
    return SuperPoly(poly.n, poly.m, poly.p, out)


def _x_mul(poly: SuperPoly, i: int, batch: int) -> SuperPoly:
    out: dict[SuperMonomial, Fraction] = {}
    for mono, c in poly.terms().items():
        new_batch = list(mono.xs[batch])
        new_batch[i] += 1
        xs = mono.xs[:batch] + (tuple(new_batch),) + mono.xs[batch + 1 :]
        out[SuperMonomial(xs, mono.thetas)] = c
    return SuperPoly(poly.n, poly.m, poly.p, out)


def polarization(src: int, dst: int, j: int = 1, *, kind: str = "x"):
    """Polarization operator moving degree from batch src to batch dst.

    kind="x": sum_i x_i^{(dst)} (d/dx_i^{(src)})^j, lowering src degree by
    j and raising dst degree by 1.  kind="theta": sum_i theta_i^{(dst)}
    d/dtheta_i^{(src)} (j must be 1).  Returns a callable on SuperPoly.
    """
    if kind not in ("x", "theta"):
        raise ValueError(f"unknown batch kind {kind!r}")
    if src == dst:
        raise ValueError("polarization needs two distinct batches")
    if j < 1:
        raise ValueError("j must be positive")
    if kind == "theta" and j != 1:
        raise ValueError("anticommuting polarization only exists for j = 1")

    def op(poly: SuperPoly) -> SuperPoly:
        nbatches = poly.m if kind == "x" else poly.p
        if not (0 <= src < nbatches and 0 <= dst < nbatches):
            raise ValueError(f"batch out of range for kind {kind!r}")
        total = SuperPoly.zero(poly.n, poly.m, poly.p)
        for i in range(poly.n):
            if kind == "x":
                piece = poly
                for _ in range(j):
                    piece = d_x(piece, i, src)
                total = total + _x_mul(piece, i, dst)
            else:
                total = total + _theta_left_mul(d_theta(poly, i, src), i, dst)
        return total

    return op


@dataclass(frozen=True)
class ClosureSpace:
    """Harmonic closure: per-multidegree echelon bases of the derivative span."""

    n: int
    m: int
    p: int
    k: int
    spaces: dict[Multidegree, EchelonBasis]

    def dims(self) -> dict[Multidegree, int]:
        return {md: basis.rank for md, basis in sorted(self.spaces.items()) if basis.rank}

    def hilbert(self) -> GradedPoly:
        """Hilbert series (m = p = 1 only): q tracks x-degree, z theta-degree."""
        if self.m != 1 or self.p != 1:
            raise ValueError("hilbert series only defined for one batch of each kind")
        out = GradedPoly.zero()
        for (alpha, beta), d in self.dims().items():
            out = out + GradedPoly.term(d, q=alpha[0], z=beta[0])
        return out

    def theta_slice_dims(self, theta_degree: int) -> dict[int, int]:
        """x-degree -> dimension within one theta-degree (m = p = 1)."""
        if self.m != 1 or self.p != 1:
            raise ValueError("slices only defined for one batch of each kind")
        return {
            alpha[0]: d
            for (alpha, beta), d in self.dims().items()
            if beta[0] == theta_degree
        }


def _closure_operators(n: int, m: int, p: int):
    ops = []
    for b in range(m):
        for i in range(n):
            ops.append(lambda f, i=i, b=b: d_x(f, i, b))
    for b in range(p):
        for i in range(n):
            ops.append(lambda f, i=i, b=b: d_theta(f, i, b))
    return ops


def harmonic_closure(n: int, m: int, p: int, k: int) -> ClosureSpace:
    """Smallest subspace containing the Vandermonde seed and closed under
    all partial derivatives and polarization operators.

    The seed sits in the first commuting and first anticommuting batch.
    Breadth-first: every operator is applied to every vector that enlarged
    some multidegree's span, until a full round adds no rank.  Derivatives
    only lower degrees and polarizations conserve total degree, so the
    reachable multidegree set is finite and the loop terminates.

    No variable's per-batch degree ever exceeds k - 1 (the seed's maximum,
    conserved or lowered by every operator), so polarization powers are
    enumerated only up to k - 1; higher powers annihilate the whole space.
    """
    if m < 1 or p < 1:
        raise ValueError("closure spaces need at least one batch of each kind")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if n > CLOSURE_MAX_N:
        raise ScaleGuardError(f"harmonic closure limited to n <= {CLOSURE_MAX_N}, got n={n}")

    seed_11 = superspace_vandermonde(n, k)
    if m == 1 and p == 1:
        seed = seed_11
    else:
        terms = {}
        for mono, c in seed_11.terms().items():
            xs = (mono.xs[0],) + tuple((0,) * n for _ in range(m - 1))
            thetas = (mono.thetas[0],) + tuple(() for _ in range(p - 1))
            terms[SuperMonomial(xs, thetas)] = c
        seed = SuperPoly(n, m, p, terms)

    ops = _closure_operators(n, m, p)
    max_j = max(k - 1, 1)
    for src in range(m):
        for dst in range(m):
            if src != dst:
                for j in range(1, max_j + 1):
                    ops.append(polarization(src, dst, j, kind="x"))
    for src in range(p):
        for dst in range(p):
            if src != dst:
                ops.append(polarization(src, dst, kind="theta"))

    spaces: dict[Multidegree, EchelonBasis] = {}

    def insert(poly: SuperPoly) -> bool:
        if not poly:
            return False
        md = next(iter(poly.terms())).multidegree()
        basis = spaces.setdefault(md, EchelonBasis())
        return basis.insert(poly.terms())

    queue = [seed]
    insert(seed)
    while queue:
        vec = queue.pop()
        for op in ops:
            img = op(vec)
            if img and insert(img):
                queue.append(img)
    return ClosureSpace(n, m, p, k, spaces)


def subscript_coordinate(w: tuple[int, ...]):
    """The coordinate(pivot, row) of :func:`stable_trace` for the diagonal
    subscript action of w on a span of super-monomials: (w . row)[pivot]
    is row[w^{-1} . pivot] times the theta sign."""
    w_inv = perm_inverse(w)

    def coordinate(pivot, row):
        pre, sign = apply_perm(pivot, w_inv)
        return sign * row.get(pre, 0)

    return coordinate


def frobenius_of_closure(
    n: int, m: int, p: int, k: int, *, closure: ClosureSpace | None = None
) -> dict[Multidegree, SchurExpansion]:
    """Schur decomposition of each multidegree piece of the harmonic closure.

    Traces are read off pivot coordinates of the stored echelon bases;
    that is valid because the closure space is stable under the diagonal
    subscript action (the seed is antisymmetric and the operator family is
    closed under conjugation by permutations).
    """
    space = closure if closure is not None else harmonic_closure(n, m, p, k)
    out: dict[Multidegree, SchurExpansion] = {}
    for md, basis in sorted(space.spaces.items()):
        if not basis.rank:
            continue
        out[md] = schur_from_traces(
            n, lambda rho: stable_trace(basis, subscript_coordinate(perm_of_type(rho, n)))
        )
    return out


@dataclass(frozen=True)
class IdentityCheck:
    equal: bool
    lhs: SuperPoly
    rhs: SuperPoly


def vandermonde_derivative_identity(n: int, k: int) -> IdentityCheck:
    """Check that flattening the first n x-derivatives of the (n+1)-variable
    Vandermonde gives (n-k)^k * (n-k)! times the n-variable one.

    Valid range 0 <= k < n.  Both sides are returned for inspection.
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got n={n}, k={k}")
    if n + 1 > 6:
        raise ScaleGuardError(f"identity check limited to n <= 5, got n={n}")
    lhs = superspace_vandermonde(n + 1, n - k + 1)
    for i in range(n):
        lhs = d_x(lhs, i)
    scalar = (n - k) ** k * factorial(n - k)
    rhs = superspace_vandermonde(n, n - k, ambient=n + 1) * scalar
    return IdentityCheck(lhs == rhs, lhs, rhs)
