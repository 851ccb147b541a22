"""Exact arithmetic in mixed commuting/anticommuting polynomial rings.

The ambient ring has m batches of n commuting generators x and p batches
of n anticommuting generators theta (indices 0-based).  A monomial is the
tuple (xs, thetas) of one exponent vector per commuting batch and one
strictly increasing index tuple per anticommuting batch; a repeated theta
index is the zero monomial and is never stored.  Monomials key every span,
so hashing, equality and order are the tuple's own, run in C: a monomial
equals the plain tuple (xs, thetas) and is the same dict key.

Sign conventions are localized: every operation routes raw theta tuples
through :func:`theta_canonical`, which sorts and returns the sign of the
sorting permutation.  Within a batch theta_i theta_j = -theta_j theta_i;
generators of distinct anticommuting batches commute (plain tensor
product), which never affects dimensions or symmetric-group characters.

Coefficients are exact: ``int`` or ``Fraction`` by type (a bool raises
ValueError), and integers stay ``int`` throughout.  Every linear operator
(derivatives, polarizations, permutations, products) is a monomial map,
``image(mono)`` giving (monomial, factor) pairs, applied to a coefficient
dict by the one kernel :func:`_linear_image`.  The subscript action of a
permutation w is the one map :func:`permuter` (w), built once per w and
applied to every monomial that w moves; :func:`apply_perm` is that map
applied to one monomial.

Built on top of the arithmetic: the superspace Vandermonde, signed
partial derivatives, polarization operators, harmonic closure spaces, and
their graded Frobenius images.  A closure is walked down by degree
level, each level spanned by the derivatives of the reduced rows of the
level above it that a chain criterion keeps, then closed under the
polarizations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from math import factorial, perm
from operator import itemgetter

from .combinat import GradedPoly, partitions_of, perm_of_type
from .errors import ScaleGuardError
from .linalg import EchelonBasis, stable_trace
from .symfun import SchurExpansion, omega, schur_from_traces

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
    "permuter",
    "polarization",
    "superspace_vandermonde",
    "vandermonde_derivative_identity",
]

CLOSURE_MAX_N = 5
Coefficient = int | Fraction
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


class SuperMonomial(tuple):
    """One monomial, the tuple (xs, thetas); equal to and hashed as that plain tuple."""

    __slots__ = ()
    xs = property(itemgetter(0))
    thetas = property(itemgetter(1))

    def __new__(cls, xs: tuple[tuple[int, ...], ...], thetas: tuple[tuple[int, ...], ...]):
        return tuple.__new__(cls, (xs, thetas))

    def __getnewargs__(self):  # pickle and copy rebuild through __new__(cls, xs, thetas)
        return tuple(self)

    def __repr__(self) -> str:
        return f"SuperMonomial(xs={self[0]!r}, thetas={self[1]!r})"

    def multidegree(self) -> Multidegree:
        return tuple(map(sum, self.xs)), tuple(map(len, self.thetas))


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


def permuter(w: tuple[int, ...]):
    """The subscript action of w (w[i] = image of i) as the monomial map
    mono -> (image, theta sign), the one permutation path of the library.

    The x-exponents are read through itemgetter of w^-1.  Each theta part
    is sorted once per map, through :func:`theta_canonical`, and looked up
    in a table local to the map after that, so build one map per w and
    apply it to many monomials.
    """
    inverse = sorted(range(len(w)), key=w.__getitem__)
    move = itemgetter(*inverse) if len(w) > 1 else tuple
    theta_images: dict = {}

    def image(mono: SuperMonomial) -> tuple[SuperMonomial, int]:
        xs, thetas = mono
        hit = theta_images.get(thetas)
        if hit is None:
            sign, mapped = 1, []
            for batch in thetas:
                canon, s = theta_canonical(tuple(map(w.__getitem__, batch)))
                sign *= s
                mapped.append(canon)
            hit = theta_images[thetas] = tuple(mapped), sign
        return SuperMonomial(tuple(map(move, xs)), hit[0]), hit[1]

    return image


def apply_perm(mono: SuperMonomial, w: tuple[int, ...]) -> tuple[SuperMonomial, int]:
    """Permute generator subscripts by w (w[i] = image of i), with theta sign."""
    return permuter(w)(mono)


def _linear_image(terms: dict, image) -> dict:
    """The linear extension of a monomial map, applied to a coefficient
    dict: sum over mono of c * factor * target for every (target, factor)
    in image(mono), with zero coefficients dropped."""
    out: dict = {}
    for mono, c in terms.items():
        for target, factor in image(mono):
            out[target] = out.get(target, 0) + c * factor
    return {mono: c for mono, c in out.items() if c}


def _increasing_below(indices: tuple[int, ...], n: int) -> bool:
    """Whether the indices strictly increase within 0..n - 1."""
    return all(0 <= i < j for i, j in zip(indices, (*indices[1:], n)))


def _check_variable(n: int, batches: int, i: int, batch: int) -> None:
    if not (0 <= i < n and 0 <= batch < batches):
        raise ValueError(f"no variable {i} of batch {batch} among {batches} batches of {n}")


def _replace(seq: tuple, i: int, new) -> tuple:
    return seq[:i] + (new,) + seq[i + 1 :]


def _bumped(xs: tuple, batch: int, i: int, by: int) -> tuple:
    """The x-exponents xs with exponent i of the batch changed by by."""
    row = xs[batch]
    return xs[:batch] + (row[:i] + (row[i] + by,) + row[i + 1 :],) + xs[batch + 1 :]


class SuperPoly:
    """Exact-rational linear combination of super-monomials."""

    __slots__ = ("n", "m", "p", "_terms")

    def __init__(
        self, n: int, m: int, p: int, terms: dict[SuperMonomial, Coefficient] | None = None
    ):
        self.n, self.m, self.p = n, m, p
        clean: dict[SuperMonomial, Coefficient] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono.xs) != m or len(mono.thetas) != p:
                raise ValueError("monomial batch arity does not match the ring")
            if any(len(b) != n for b in mono.xs):
                raise ValueError("commuting batch has wrong length")
            if any(type(i) is not int for b in mono.xs + mono.thetas for i in b):
                raise ValueError(f"exponents and theta indices must be ints: {mono!r}")
            if any(e < 0 for b in mono.xs for e in b):
                raise ValueError(f"negative exponent in {mono!r}")
            if not all(_increasing_below(t, n) for t in mono.thetas):
                raise ValueError(f"theta indices must increase within 0..{n - 1}: {mono!r}")
            if type(coeff) not in (int, Fraction):
                raise ValueError(f"coefficient must be an int or a Fraction, got {coeff!r}")
            if coeff:
                clean[mono] = coeff
        self._terms = clean

    def _like(self, terms: dict) -> "SuperPoly":
        """A kernel result in this ring; clean already, so nothing is checked."""
        out = SuperPoly.__new__(SuperPoly)
        out.n, out.m, out.p, out._terms = self.n, self.m, self.p, terms
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, m: int, p: int) -> "SuperPoly":
        return cls(n, m, p)

    @classmethod
    def one(cls, n: int, m: int, p: int) -> "SuperPoly":
        return cls(n, m, p, {SuperMonomial(((0,) * n,) * m, ((),) * p): 1})

    @classmethod
    def x(cls, n: int, m: int, p: int, i: int, batch: int = 0) -> "SuperPoly":
        _check_variable(n, m, i, batch)
        xs = [[0] * n for _ in range(m)]
        xs[batch][i] = 1
        mono = SuperMonomial(tuple(tuple(b) for b in xs), tuple(() for _ in range(p)))
        return cls(n, m, p, {mono: 1})

    @classmethod
    def theta(cls, n: int, m: int, p: int, i: int, batch: int = 0) -> "SuperPoly":
        _check_variable(n, p, i, batch)
        thetas = [() for _ in range(p)]
        thetas[batch] = (i,)
        mono = SuperMonomial(tuple((0,) * n for _ in range(m)), tuple(thetas))
        return cls(n, m, p, {mono: 1})

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "SuperPoly") -> None:
        if (self.n, self.m, self.p) != (other.n, other.m, other.p):
            raise ValueError("ambient batch structure mismatch")

    def terms(self) -> dict[SuperMonomial, Coefficient]:
        return dict(self._terms)

    def items(self) -> list[tuple[SuperMonomial, Coefficient]]:
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
            out[mono] = out.get(mono, 0) + c
        return self._like({mono: c for mono, c in out.items() if c})

    def __neg__(self) -> "SuperPoly":
        return self._like(_linear_image(self._terms, lambda mono: ((mono, -1),)))

    def __sub__(self, other: "SuperPoly") -> "SuperPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._like(_linear_image(self._terms, lambda mono: ((mono, other),)))
        if not isinstance(other, SuperPoly):
            return NotImplemented
        self._check(other)

        def image(ma):
            for mb, cb in other._terms.items():
                mono, sign = mono_mul(ma, mb)
                if mono is not None:
                    yield mono, sign * cb

        return self._like(_linear_image(self._terms, image))

    __rmul__ = __mul__

    def apply(self, w: tuple[int, ...]) -> "SuperPoly":
        """Diagonal subscript action of a permutation."""
        if sorted(w) != list(range(self.n)):
            raise ValueError(f"{w!r} is not a permutation of range({self.n})")
        image = permuter(w)
        return self._like(_linear_image(self._terms, lambda mono: (image(mono),)))

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


def _lex_parities(k: int) -> list[int]:
    """The sign (-1)^inversions of each permutation of range(k), in the
    order of itertools.permutations: a first entry j adds j inversions."""
    signs = [1]
    for size in range(2, k + 1):
        signs = [-s if j % 2 else s for j in range(size) for s in signs]
    return signs


def superspace_vandermonde(n: int, k: int, *, ambient: int | None = None) -> SuperPoly:
    """Antisymmetrized staircase-times-theta seed in one x and one theta batch.

    With r = n - k, the seed monomial is x_0^{k-1} ... x_r^{k-1} x_{r+1}^{k-2}
    ... x_{n-1}^0 * theta_0 ... theta_{r-1}, and the result is the signed sum
    over all n! subscript permutations w of sgn(w) w(seed).  `ambient` embeds
    the result in a ring on more generators (extra subscripts unused).

    The sum is taken over the cosets of the seed's stabilizer.  A w fixes
    the seed up to sign exactly when it permutes the theta positions
    0..r-1 among themselves: it must keep that set, and then fix each of
    r..n-1, whose exponents k-1, ..., 0 differ.  That stabilizer is S_r,
    and each of its elements s acts by sgn(s) * sgn(s) = +1, the second
    sign being the theta reordering.  So w and w s give the same term,
    distinct cosets give distinct monomials, and the result is r! times
    one term per coset.  A coset is named by its theta images, an r-subset
    taken increasing (so the theta sign is +1), and an arrangement of the
    other n - r positions; the term's sign is the inversion parity of w,
    whose sum(chosen) - r(r-1)/2 cross inversions between the two parts
    are read once per subset.  Subsets in lexicographic order and
    arrangements in permutation order meet each coset at its
    lexicographically least member, so the terms come in the order of the
    full sum over permutations(range(n)).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    amb = n if ambient is None else ambient
    if amb < n:
        raise ValueError("ambient must be at least n")
    r = n - k
    stabilizer_order = factorial(r)
    arrangement_signs = _lex_parities(k)
    terms: dict = {}
    for chosen in combinations(range(n), r):
        rest = [i for i in range(n) if i not in chosen]
        coeff = -stabilizer_order if (sum(chosen) - r * (r - 1) // 2) % 2 else stabilizer_order
        exps = [0] * amb
        for i in chosen:
            exps[i] = k - 1
        for arrangement, sign in zip(permutations(rest), arrangement_signs):
            for e, i in enumerate(reversed(arrangement)):
                exps[i] = e
            terms[SuperMonomial((tuple(exps),), (chosen,))] = sign * coeff
    # canonical by construction: build it unchecked
    return SuperPoly.zero(amb, 1, 1)._like(terms)


def _d_x_image(i: int, batch: int, mono: SuperMonomial):
    """d/dx_i of the batch on one monomial."""
    e = mono.xs[batch][i]
    if not e:
        return ()
    return ((SuperMonomial(_bumped(mono.xs, batch, i, -1), mono.thetas), e),)


def _d_theta_image(i: int, batch: int, mono: SuperMonomial):
    """Signed d/dtheta_i of the batch on one monomial: striking the 1-based
    position s carries the sign (-1)^(s-1)."""
    idx = mono.thetas[batch]
    if i not in idx:
        return ()
    pos = idx.index(i)
    thetas = _replace(mono.thetas, batch, idx[:pos] + idx[pos + 1 :])
    return ((SuperMonomial(mono.xs, thetas), (-1) ** pos),)


def _x_polarization_image(src: int, dst: int, j: int, mono: SuperMonomial):
    """sum_i x_i^(dst) (d/dx_i^(src))^j on one monomial, in one pass over i."""
    xs, out = mono.xs, []
    for i, e in enumerate(xs[src]):
        if e >= j:  # (d/dx_i)^j x_i^e = e (e-1) ... (e-j+1) x_i^(e-j)
            moved = _bumped(_bumped(xs, src, i, -j), dst, i, 1)
            out.append((SuperMonomial(moved, mono.thetas), perm(e, j)))
    return out


def _theta_polarization_image(src: int, dst: int, mono: SuperMonomial):
    """sum_i theta_i^(dst) d/dtheta_i^(src) on one monomial, in one pass over i."""
    thetas, out = mono.thetas, []
    for pos, i in enumerate(thetas[src]):
        merged, sign = theta_canonical((i,) + thetas[dst])
        if merged is not None:
            moved = _replace(thetas, src, thetas[src][:pos] + thetas[src][pos + 1 :])
            out.append((SuperMonomial(mono.xs, _replace(moved, dst, merged)), (-1) ** pos * sign))
    return out


def d_x(poly: SuperPoly, i: int, batch: int = 0) -> SuperPoly:
    """Partial derivative in the i-th commuting generator of the batch."""
    _check_variable(poly.n, poly.m, i, batch)
    return poly._like(_linear_image(poly._terms, partial(_d_x_image, i, batch)))


def d_theta(poly: SuperPoly, i: int, batch: int = 0) -> SuperPoly:
    """Signed derivative striking theta_i: sign (-1)^(s-1) for position s."""
    _check_variable(poly.n, poly.p, i, batch)
    return poly._like(_linear_image(poly._terms, partial(_d_theta_image, i, batch)))


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
    if kind == "x":
        image = partial(_x_polarization_image, src, dst, j)
    else:
        image = partial(_theta_polarization_image, src, dst)

    def op(poly: SuperPoly) -> SuperPoly:
        nbatches = poly.m if kind == "x" else poly.p
        if not (0 <= src < nbatches and 0 <= dst < nbatches):
            raise ValueError(f"batch out of range for kind {kind!r}")
        return poly._like(_linear_image(poly._terms, image))

    return op


@dataclass(frozen=True)
class ClosureSpace:
    """Harmonic closure: per-multidegree echelon bases of the derivative
    span, each of rank >= 1, since :func:`harmonic_closure` creates a
    piece only by inserting a nonzero vector into it."""

    n: int
    m: int
    p: int
    k: int
    spaces: dict[Multidegree, EchelonBasis]

    def dims(self) -> dict[Multidegree, int]:
        return {md: basis.rank for md, basis in sorted(self.spaces.items())}

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


def _theta_derivatives(level, n: int):
    """(piece, d/dtheta_i row) over the reduced rows of a level, for each theta variable."""
    for (alpha, beta), basis in level.items():
        lower = [(c, (alpha, _replace(beta, c, beta[c] - 1))) for c in range(len(beta)) if beta[c]]
        for _, row in basis.primitive_rows():
            for c, target in lower:
                for i in range(n):
                    yield target, _linear_image(row, partial(_d_theta_image, i, c))


def _x_derivatives(level, above, n: int):
    """(piece, d/dx_v row_p) over the reduced rows of a level, for every x
    variable v = (batch c, index j), except those the chain criterion of
    :func:`harmonic_closure` skips, which reads the pivots of the level
    above (empty at the seed's x-degree)."""
    old = {pivot for basis in above.values() for pivot in basis.pivots()}
    for (alpha, beta), basis in level.items():
        variables = [(c, j) for c in range(len(alpha)) for j in range(n)]
        rows = basis.primitive_rows()
        parents = [
            [v for v, (c, i) in enumerate(variables) if (_bumped(xs, c, i, 1), thetas) in old]
            for (xs, thetas), _ in rows
        ]
        for v, (c, j) in enumerate(variables):
            target = (_replace(alpha, c, alpha[c] - 1), beta)
            kept = [
                row
                for ((xs, _), row), par in zip(rows, parents)
                if not par or (par[0] >= v if xs[c][j] else par == [v])
            ]
            # d/dx_j sends distinct monomials it does not kill to distinct ones
            support = {m for row in kept for m in row}
            image = {m: t[0] for m in support if (t := _d_x_image(j, c, m))}
            for row in kept:
                yield target, {t[0]: t[1] * a for m, a in row.items() if (t := image.get(m))}


def _span_level(levels: dict, a: int, b: int, images, polarizations) -> dict:
    """Span level (a, b), levels[a, b], from the (multidegree, vector) images,
    then close it under the polarizations from its reduced rows; an image of
    a lower x-degree is inserted there, to be closed at that level's turn."""
    level = levels[a, b]
    for md, vec in images:
        if vec:
            level[md].insert(vec)
    work = []
    if polarizations:  # copies: an insert into a piece rewrites its stored rows
        work = [dict(row) for basis in level.values() for _, row in basis.primitive_rows()]
    while work:
        vec = work.pop()
        for image in polarizations:
            img = _linear_image(vec, image)
            if img:
                md = next(iter(img)).multidegree()
                if levels[sum(md[0]), b][md].insert(img) and sum(md[0]) == a:
                    work.append(img)
    for basis in level.values():
        basis.release_index()
    return level


def _closure_walk(seed: dict, n: int, m: int, p: int, k: int, theta_cap: int | None):
    """The pieces of the closure of the seed, walked down level by level;
    :func:`harmonic_closure` gives the argument."""
    x_polarizations = [
        partial(_x_polarization_image, src, dst, j)
        for src, dst in permutations(range(m), 2)
        for j in range(1, max(k, 2))
    ]
    theta_polarizations = [
        partial(_theta_polarization_image, src, dst) for src, dst in permutations(range(p), 2)
    ]
    top = next(iter(seed)).multidegree()
    top_x, top_theta = top[0][0], top[1][0]
    levels: dict = defaultdict(partial(defaultdict, EchelonBasis))
    images = [(top, seed)]
    for b in range(top_theta, -1, -1):
        level = _span_level(levels, top_x, b, images, theta_polarizations)
        images = _theta_derivatives(level, n)
    last = top_theta if theta_cap is None else min(theta_cap, top_theta)
    for b in range(last + 1):
        lowest = (top_x + 1) // 2 if theta_cap is not None and 2 * b == top_theta else 0
        above, level = {}, _span_level(levels, top_x, b, (), x_polarizations)
        for a in range(top_x - 1, lowest - 1, -1):
            images = _x_derivatives(level, above, n)
            above, level = level, _span_level(levels, a, b, images, x_polarizations)
    return {md: basis for level in levels.values() for md, basis in level.items()}


def harmonic_closure(
    n: int, m: int, p: int, k: int, *, theta_cap: int | None = None
) -> ClosureSpace:
    """Smallest subspace containing the Vandermonde seed and closed under
    all partial derivatives and polarization operators.

    The seed f sits in the first commuting and first anticommuting batch;
    let it have x-degree A and theta-degree B = n - k.  Every operator
    keeps or lowers the total x-degree a and the total theta-degree b, so
    the closure splits into levels (a, b) of multidegree pieces.  The x
    operators (x-derivatives and x-polarizations of every batch) commute
    with the theta operators, which act on other variables, so the
    closure is X (Theta f): the theta operators' closure of f, all at
    x-degree A, closed under the x operators.  The walk spans f, then
    each level (A, b - 1) from the d/dtheta_i of the reduced rows of
    (A, b), each closed under the theta-polarizations; then, for each b,
    it closes (A, b) under the x-polarizations and spans each (a - 1, b)
    from the d/dx_v of the reduced rows of (a, b), over the x variables
    v, closed under the x-polarizations in turn.  A polarization keeps its
    level, except that an x-polarization of power j lowers the x-degree by
    j - 1: such an image is inserted into its lower level at once.  A
    level's closure under the polarizations starts, at its turn, from its
    reduced rows, which span its images and whatever higher levels
    inserted into it, so each level is complete before anything is
    derived from it.  Every operator that lowers a level is a derivative
    or such a polarization, applied to a level above, so by induction
    each level is the closure's.  With one batch of each kind there are no
    polarizations, and the closure is R f, the span of all derivatives
    of f.

    The walk skips x-derivatives by a chain criterion, the one of
    :func:`spanrep.oracle._ideal_piece` with differentiation in place of
    multiplication.  For a row of level (a, b) with pivot p (its smallest
    key) let par(p) be the variables v, in batch-major order, with
    p * x_v a pivot of level (a + 1, b).  d/dx_j row_p is kept when
    par(p) is empty; else, when p_j > 0, only if min par(p) >= j, and
    when p_j = 0, only if par(p) is [j].  Compare keys as nominal keys,
    with x-exponents in Z^(mn), so that d/dx_j p = p / x_j has one even
    when p_j = 0; d/dx_j keeps the order of the terms it does not kill
    and sends every term of a row above its pivot to a key above p / x_j.
    Why: for i in par(p) and q = p * x_i, d/dx_i row_q is a nonzero
    multiple of row_p plus rows s' of level (a, b) with pivots above p,
    and d/dx_j row_q is a combination of rows s of level (a, b) with
    pivots at least q / x_j.  Derivatives commute, so d/dx_j row_p is a
    combination of the d/dx_j row_s' and the d/dx_i row_s, whose nominal
    keys s' / x_j and s / x_i exceed p / x_j except for d/dx_i row_s at
    s = q / x_j, which comes first when i < j and does not exist when
    p_j = 0 and i != j.  The rule skips d/dx_j row_p only when par(p) has
    such an i: min par(p) < j, or, when p_j = 0, any i other than j.  By
    induction over (key descending, j ascending) every skipped derivative
    lies in the span of the kept ones, so each level, and each piece's
    reduced echelon basis, is the same as with every derivative.  The
    argument only needs each level to contain the derivatives of the
    level above, which the closure's levels do.

    ``theta_cap`` asks for the part of the closure that
    :func:`frobenius_of_closure` reads with m = p = 1: the theta chain at
    x-degree A, and the pieces of theta-degree b <= theta_cap, except that
    at the middle theta-degree, 2b = B, only the x-degrees a with 2a >= A
    are spanned.  The other half of that row is omega of its dual pieces
    (a, B / 2) <-> (A - a, B / 2), which the readout fills in.  A capped
    space's ``dims``, ``hilbert`` and ``theta_slice_dims`` cover only the
    spanned pieces: ``harmonic_closure(3, 1, 1, 2, theta_cap=0).hilbert()``
    is 1 + 3q + 2q^2 + q^2 z, the whole closure's
    1 + 2z + 3q + 3qz + 2q^2 + q^2 z.  A cap is refused with extra
    batches, as is a negative one.

    No variable's per-batch degree ever exceeds k - 1 (the seed's maximum,
    conserved or lowered by every operator), so polarization powers are
    enumerated only up to k - 1; higher powers annihilate the whole space.
    """
    if m < 1 or p < 1:
        raise ValueError("closure spaces need at least one batch of each kind")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if theta_cap is not None and (theta_cap < 0 or (m, p) != (1, 1)):
        raise ValueError("theta_cap must be nonnegative and needs m = p = 1")
    if n > CLOSURE_MAX_N:
        raise ScaleGuardError(f"harmonic closure limited to n <= {CLOSURE_MAX_N}, got n={n}")

    pad_x, pad_theta = ((0,) * n,) * (m - 1), ((),) * (p - 1)
    seed = _linear_image(
        superspace_vandermonde(n, k)._terms,
        lambda mono: ((SuperMonomial(mono.xs + pad_x, mono.thetas + pad_theta), 1),),
    )
    return ClosureSpace(n, m, p, k, _closure_walk(seed, n, m, p, k, theta_cap))


def frobenius_of_closure(
    n: int, m: int, p: int, k: int, *, closure: ClosureSpace | None = None
) -> dict[Multidegree, SchurExpansion]:
    """Schur decomposition of each multidegree piece of the harmonic closure.

    Traces are read off pivot coordinates of the stored echelon bases by
    :func:`~spanrep.linalg.stable_trace`, given the subscript action as a
    signed image of columns: one :func:`permuter` map per cycle type,
    shared by every piece; that is valid because the
    closure space is stable under the diagonal subscript action (the seed
    is antisymmetric and the operator family is closed under conjugation
    by permutations).

    With one batch of each kind (m = p = 1) the closure is R f, the span
    of all derivatives of the seed f, and its pieces pair off by duality.
    Let f have x-degree A and theta-degree B = n - k, and let V(a, b) be
    the piece of x-degree a and theta-degree b, spanned by D f for the
    monomial operators D of bidegree (A - a, B - b).

    - The pairing <D, E> = constant term of (D E) f is nondegenerate on
      R / Ann(f): if D f != 0, pair D with the monomial operator dual to
      one term of D f.  So dim V(a, b) = dim V(A - a, B - b).
    - f is antisymmetric, so w (D f) = sgn(w) (w D) f and
      <w D, w E> = sgn(w) <D, E>.  Hence V(a, b) is the dual of
      V(A - a, B - b) tensored with the sign character, and the Frobenius
      image of (a, b) is omega of that of (A - a, B - b).

    So, when no closure is passed, ``harmonic_closure`` with
    ``theta_cap = B // 2`` spans only the theta chain at x-degree A
    (reached from f by theta-derivatives alone) and the pieces of
    theta-degree <= floor(B / 2), walking each theta-degree down from the
    chain; at the middle theta-degree, 2b = B, it stops at the x-degrees
    a with 2a >= A.  Every other piece's table is omega of its dual's.
    Where a piece and its dual are both spanned (the chain and its duals,
    the self-dual middle piece 2a = A, 2b = B, or every piece of a passed
    closure), the two tables are compared and a mismatch raises
    ``RuntimeError``.  The ``explore`` slices pass a closure capped at
    ``theta_cap = 0``: its theta chain at x-degree A is traced too, and for
    k < n its seed piece (A, B) is compared with omega of (0, 0).

    The rule is for m = p = 1 only.  Polarizations make the closure of
    more batches larger than R f, and then the pieces do not pair off: at
    (n, m, p, k) = (3, 2, 1, 2), (3, 1, 2, 2) and (4, 2, 1, 3) the ranks
    by total bidegree are not symmetric, so those closures are spanned
    whole and every table is read off its own piece.
    """
    dual_rule = m == p == 1
    if closure is None:
        closure = harmonic_closure(n, m, p, k, theta_cap=(n - k) // 2 if dual_rule else None)
    elif (closure.n, closure.m, closure.p, closure.k) != (n, m, p, k):
        raise ValueError(
            f"closure of (n, m, p, k) = {(closure.n, closure.m, closure.p, closure.k)}, "
            f"asked for {(n, m, p, k)}"
        )
    permuters = {rho: permuter(perm_of_type(rho, n)) for rho in partitions_of(n)}
    out: dict[Multidegree, SchurExpansion] = {}
    for md, basis in sorted(closure.spaces.items()):
        out[md] = schur_from_traces(
            n, lambda rho: stable_trace(basis, lambda cols: map(permuters[rho], cols))
        )
    if not dual_rule:
        return out
    top_x, top_theta = (n - k) * (k - 1) + k * (k - 1) // 2, n - k  # the seed's bidegree
    for ((a,), (b,)), exp in list(out.items()):
        dual, flipped = ((top_x - a,), (top_theta - b,)), omega(exp)
        if out.setdefault(dual, flipped) != flipped:
            raise RuntimeError(f"closure piece {(a, b)} is not omega of its dual piece")
    return dict(sorted(out.items()))


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
