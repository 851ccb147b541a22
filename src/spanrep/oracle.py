"""Brute-force ground truth: exact linear algebra on graded quotient rings.

The spanning-line ring Q[x]/<x_i^k, e_n, ..., e_{n-k+1}> is computed as a
quotient of the truncated ring A = Q[x]/<x_i^k>, whose basis is the
monomials with every exponent below k.  The ideal piece of degree d is
spanned degree by degree, as the x_j-multiples of the degree-(d-1) piece
plus the generators of degree d, and row-reduced exactly with integer
rows -- no Groebner machinery, and nothing from the tableau formula.
The superspace coinvariant ideal is spanned the same way, each piece from
its invariants and the degree-one generators times the piece below.
Both invariant spaces, the diagonal ones and the Grassmann oracle's
within-batch ones, are signed orbit sums of monomials, one per orbit
(:func:`_orbit_sums`); disjoint supports make them independent as they are.
Traces of permutations on quotients are (signed fixed monomials) minus
the trace on the ideal subspace, the latter read off pivot coordinates
of the reduced echelon basis (valid because the ideals are stable under
the subscript action; tests exercise that stability directly).

Scale guards: the commuting oracle refuses n > 7 and any request whose
largest piece A_d has more than COMMUTING_MAX_PIECE monomials (counted
before any work), superspace quotients refuse n > 5, and the Grassmann
oracle refuses d*n > 8.  These fail loudly rather than thrash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product

from .combinat import GradedPoly, Partition, perm_of_type
from .errors import ScaleGuardError
from .linalg import EchelonBasis, stable_trace
from .superspace import SuperMonomial, apply_perm, mono_mul, subscript_coordinate
from .symfun import SchurExpansion, dimension, schur_from_traces

__all__ = [
    "GradedDecomposition",
    "character_on_quotient",
    "complete_sym",
    "decompose_coinvariants",
    "decompose_super_coinvariants",
    "decompose_superspace",
    "elementary_sym",
    "grassmann_quotient",
    "monomials_of_degree",
    "quotient_basis",
]

COMMUTING_MAX_N = 7
# Largest truncated piece A_d the commuting oracle will span, in monomials.
# It admits every (n, k) with n <= 6, including (6,6) at 4,332, and n = 7
# up to k = 5 (8,135; about 20 s and 180 MB on a 2-vCPU Xeon VM); it
# refuses (7,6) at 24,017 and (7,7) at 60,691.
COMMUTING_MAX_PIECE = 10_000
SUPER_QUOTIENT_MAX_N = 5
GRASSMANN_MAX_VARS = 8

Poly = dict  # exponent tuple -> int coefficient


def _guard(cond: bool, message: str) -> None:
    if not cond:
        raise ScaleGuardError(message)


@cache
def _bounded_monomials(nvars: int, d: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree d with every exponent below bound,
    lexicographically ascending."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    for e in range(min(d, bound - 1) + 1):
        for rest in _bounded_monomials(nvars - 1, d - e, bound):
            out.append((e,) + rest)
    return tuple(out)


def monomials_of_degree(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree d, lexicographically ascending."""
    return _bounded_monomials(nvars, d, d + 1)


def elementary_sym(d: int, indices: tuple[int, ...], nvars: int) -> Poly:
    """Elementary symmetric polynomial e_d in the given variables.

    Zero when d exceeds the number of variables.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return {(0,) * nvars: 1}
    out: Poly = {}
    for subset in combinations(indices, d):
        exps = [0] * nvars
        for i in subset:
            exps[i] = 1
        out[tuple(exps)] = 1
    return out


def complete_sym(d: int, indices: tuple[int, ...], nvars: int) -> Poly:
    """Complete homogeneous symmetric polynomial h_d in the given variables."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return {(0,) * nvars: 1}
    out: Poly = {}
    for multiset in combinations_with_replacement(indices, d):
        exps = [0] * nvars
        for i in multiset:
            exps[i] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def _ideal_step(
    prev: EchelonBasis | None, generators: list[Poly], nvars: int, d: int, bound: int
) -> EchelonBasis:
    """Degree-d piece of a homogeneous ideal of Q[x]/<x_i^bound>.

    prev is the degree-(d-1) piece (None at d = 0) and generators are the
    ideal's generators of degree d.  The piece is spanned by x_j * (rows of
    prev) and the generators, with monomials reaching the bound dropped.
    """
    basis = EchelonBasis()
    for gen in generators:
        vec = {m: c for m, c in gen.items() if max(m, default=0) < bound}
        if vec:
            basis.insert(vec)
    if prev is None or not prev.rank:
        return basis
    # interned degree-d monomials, so products share their key objects
    upper = {m: m for m in _bounded_monomials(nvars, d, bound)}
    lower = _bounded_monomials(nvars, d - 1, bound)
    rows = prev.primitive_rows()
    for j in range(nvars):
        times_xj = {}
        for m in lower:
            mm = upper.get(m[:j] + (m[j] + 1,) + m[j + 1 :])
            if mm is not None:
                times_xj[m] = mm
        for _, row in rows:
            vec = {times_xj[m]: c for m, c in row.items() if m in times_xj}
            if vec:
                basis.insert(vec)
    return basis


@cache
def _ideal_basis(n: int, k: int, d: int) -> EchelonBasis:
    """Degree-d piece of the ideal generated by e_n, ..., e_{n-k+1} in
    A = Q[x]/<x_i^k>, the image of the spanning-line ideal there."""
    prev = _ideal_basis(n, k, d - 1) if d else None
    gens = [elementary_sym(d, tuple(range(n)), n)] if n - k < d <= n else []
    return _ideal_step(prev, gens, n, d, k)


@cache
def _fixed_monomial_counts(cycles: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Entry d: the monomials of A_d fixed by a permutation with these
    cycle lengths.

    Exponents must be constant on cycles and below k, so this is the
    coefficient list of the product over cycles of length l of
    1 + q^l + ... + q^(l(k-1)).  With every cycle of length 1 it counts
    all of A_d.
    """
    counts = [1]
    for ell in cycles:
        new = [0] * (len(counts) + ell * (k - 1))
        for i, c in enumerate(counts):
            for e in range(k):
                new[i + ell * e] += c
        counts = new
    return tuple(counts)


def _count_fixed_monomials(cycles: tuple[int, ...], k: int, d: int) -> int:
    counts = _fixed_monomial_counts(cycles, k)
    return counts[d] if d < len(counts) else 0


def _check_commuting(n: int, k: int, top_degree: int | None) -> None:
    """Validate (n, k) and refuse work beyond the guards before any is done.

    top_degree is the highest degree piece the request will span (None
    for all of them).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    _guard(n <= COMMUTING_MAX_N, f"commuting oracle limited to n <= {COMMUTING_MAX_N}, got n={n}")
    sizes = _fixed_monomial_counts((1,) * n, k)
    largest = max(sizes[: None if top_degree is None else top_degree + 1], default=0)
    _guard(
        largest <= COMMUTING_MAX_PIECE,
        f"commuting oracle limited to pieces of at most {COMMUTING_MAX_PIECE} monomials,"
        f" got {largest} for n={n}, k={k}",
    )


def quotient_basis(n: int, k: int, d: int) -> tuple[int, EchelonBasis]:
    """Dimension of the degree-d quotient piece and the ideal piece of A_d
    in RREF."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    _check_commuting(n, k, d)
    basis = _ideal_basis(n, k, d)
    return _count_fixed_monomials((1,) * n, k, d) - basis.rank, basis


def character_on_quotient(n: int, k: int, d: int, rho: Partition) -> int:
    """Trace of a permutation of cycle type rho on the degree-d quotient piece."""
    if rho.size != n:
        raise ValueError(f"cycle type {rho.parts} is not a partition of {n}")
    _, basis = quotient_basis(n, k, d)
    w = perm_of_type(rho, n)
    # (w . row)[pivot] = row[w^{-1} . pivot]; exponents of the preimage
    # monomial are read through w directly.
    ideal_trace = stable_trace(basis, lambda pivot, row: row.get(tuple(pivot[i] for i in w), 0))
    return _count_fixed_monomials(rho.parts, k, d) - ideal_trace


@dataclass(frozen=True)
class GradedDecomposition:
    """Per-degree Schur decompositions plus raw dimensions."""

    by_degree: dict[int, SchurExpansion] = field(default_factory=dict)
    dims: dict[int, int] = field(default_factory=dict)
    truncated: bool = False

    def degrees(self) -> list[int]:
        return sorted(self.by_degree)

    def top_degree(self) -> int:
        return max(self.by_degree, default=-1)

    def total_dimension(self) -> int:
        return sum(self.dims.values())

    def hilbert(self) -> GradedPoly:
        out = GradedPoly.zero()
        for d, dim in sorted(self.dims.items()):
            out = out + GradedPoly.term(dim, q=d)
        return out


def decompose_coinvariants(n: int, k: int, max_degree: int | None = None) -> GradedDecomposition:
    """Schur decomposition of every graded piece of the spanning-line quotient.

    Iterates degrees until the quotient piece vanishes at a degree past
    every generator degree; the quotient ring is generated in degree one,
    so all higher pieces vanish too.  `max_degree` truncates early (the
    result is then flagged) which keeps large-n probes affordable when
    only low degrees are needed.
    """
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    _check_commuting(n, k, max_degree)
    by_degree: dict[int, SchurExpansion] = {}
    dims: dict[int, int] = {}
    d = 0
    truncated = False
    while True:
        dim, _ = quotient_basis(n, k, d)
        if dim:
            exp = schur_from_traces(n, lambda rho: character_on_quotient(n, k, d, rho))
            if int(dimension(exp).evaluate()) != dim:
                raise RuntimeError(f"decomposition dimension mismatch at degree {d}")
            by_degree[d] = exp
            dims[d] = dim
        saturated = dim == 0 and d >= n  # n is the top generator degree
        if saturated:
            break
        if max_degree is not None and d >= max_degree:
            truncated = True
            break
        d += 1
    return GradedDecomposition(by_degree=by_degree, dims=dims, truncated=truncated)


# -- superspace pieces -------------------------------------------------


def _multidegree_basis(
    n: int, alpha: tuple[int, ...], beta: tuple[int, ...]
) -> tuple[SuperMonomial, ...]:
    x_choices = [monomials_of_degree(n, a) for a in alpha]
    t_choices = [tuple(combinations(range(n), b)) for b in beta]
    return tuple(
        SuperMonomial(xs, ths)
        for xs in product(*x_choices)
        for ths in product(*t_choices)
    )


def _signed_fixed_trace(basis: tuple[SuperMonomial, ...], w: tuple[int, ...]) -> int:
    tr = 0
    for mono in basis:
        img, sign = apply_perm(mono, w)
        if img == mono:
            tr += sign
    return tr


def decompose_superspace(
    n: int, m: int, p: int, alpha: tuple[int, ...], beta: tuple[int, ...]
) -> SchurExpansion:
    """Schur decomposition of one free multidegree piece of the mixed ring.

    The diagonal subscript action permutes basis super-monomials up to the
    theta reordering sign, so traces are signed fixed-point counts.
    """
    _guard(n <= COMMUTING_MAX_N, f"superspace pieces limited to n <= {COMMUTING_MAX_N}, got n={n}")
    if len(alpha) != m or len(beta) != p:
        raise ValueError("multidegree arity must match the batch counts")
    basis = _multidegree_basis(n, alpha, beta)
    return schur_from_traces(n, lambda rho: _signed_fixed_trace(basis, perm_of_type(rho, n)))


def _orbit_sums(monomials, group, act) -> list[dict]:
    """One signed orbit sum per orbit that the monomials meet.

    act(mono, w) returns (image, sign).  A monomial whose orbit has already
    been summed is skipped, since its sum is that one up to sign.  Sums of
    different orbits have disjoint supports, so the nonzero sums are
    linearly independent; a sum cancels to zero when a stabilizer element
    acts by -1, and is dropped.
    """
    seen: set = set()
    sums = []
    for mono in monomials:
        if mono in seen:
            continue
        acc: dict = {}
        for w in group:
            img, sign = act(mono, w)
            acc[img] = acc.get(img, 0) + sign
        seen.update(acc)
        vec = {m: c for m, c in acc.items() if c}
        if vec:
            sums.append(vec)
    return sums


def _invariant_basis(n: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> list[dict]:
    """A basis of the diagonal invariants of one multidegree piece: the
    signed orbit sums of its super-monomials (Reynolds up to a scalar)."""
    group = list(permutations(range(n)))
    return _orbit_sums(_multidegree_basis(n, alpha, beta), group, apply_perm)


def _mono_times_vector(mono: SuperMonomial, vec: dict) -> dict:
    out: dict[SuperMonomial, int] = {}
    for other, c in vec.items():
        mm, sign = mono_mul(mono, other)
        if mm is None:
            continue
        out[mm] = out.get(mm, 0) + sign * c
    return {k: v for k, v in out.items() if v}


@cache
def _super_ideal_basis(
    n: int, alpha: tuple[int, ...], beta: tuple[int, ...]
) -> EchelonBasis:
    """Multidegree (alpha, beta) piece of the ideal generated by the
    positive-multidegree diagonal invariants: its invariants plus each
    degree-one generator g (an x_j or theta_j of one batch) times the piece
    one step below in g's batch.  Every positive-degree monomial is such a
    g times a monomial one step lower, so these products span the rest."""
    basis = EchelonBasis()
    md, m = alpha + beta, len(alpha)
    if not any(md):
        return basis  # the ideal has no constants
    for row in _invariant_basis(n, alpha, beta):
        basis.insert(row)
    for i, e in enumerate(md):
        if not e:
            continue
        step = tuple(int(j == i) for j in range(len(md)))
        lower = tuple(a - b for a, b in zip(md, step))
        rows = _super_ideal_basis(n, lower[:m], lower[m:]).primitive_rows()
        for g in _multidegree_basis(n, step[:m], step[m:]):
            for _, row in rows:
                vec = _mono_times_vector(g, row)
                if vec:
                    basis.insert(vec)
    return basis


def decompose_super_coinvariants(
    n: int, m: int, p: int, alpha: tuple[int, ...], beta: tuple[int, ...]
) -> SchurExpansion:
    """Schur decomposition of one multidegree piece of the quotient by the
    ideal of positive-multidegree diagonal invariants.

    The invariants of each multidegree are orbit sums, and the ideal piece
    is built from the pieces one step below it (:func:`_super_ideal_basis`).
    """
    _guard(
        n <= SUPER_QUOTIENT_MAX_N,
        f"superspace quotients limited to n <= {SUPER_QUOTIENT_MAX_N}, got n={n}",
    )
    if len(alpha) != m or len(beta) != p:
        raise ValueError("multidegree arity must match the batch counts")
    basis = _multidegree_basis(n, alpha, beta)
    ideal = _super_ideal_basis(n, alpha, beta)

    def trace(rho):
        w = perm_of_type(rho, n)
        return _signed_fixed_trace(basis, w) - stable_trace(ideal, subscript_coordinate(w))

    return schur_from_traces(n, trace)


# -- Grassmann presentation --------------------------------------------


def _apply_varperm(mono: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(mono)
    for i, e in enumerate(mono):
        out[w[i]] = e
    return tuple(out)


def grassmann_quotient(d: int, n: int, k: int) -> GradedDecomposition:
    """Per-degree dimensions and Schur decomposition for spanning d-plane
    configurations, via the batch-symmetric quotient presentation.

    The ideal in the d*n variables is generated by the top k elementary
    symmetric polynomials of all variables together with the complete
    homogeneous h_k, ..., h_{k-d+1} of each batch; invariants under the
    within-batch symmetric groups are the orbit sums of the standard
    monomials, reduced modulo the ideal, and the symmetric group character
    permutes whole batches.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if not d <= k <= d * n:
        raise ValueError(f"need d <= k <= d*n, got d={d}, n={n}, k={k}")
    nvars = d * n
    _guard(
        nvars <= GRASSMANN_MAX_VARS,
        f"Grassmann oracle limited to d*n <= {GRASSMANN_MAX_VARS}, got {nvars}",
    )
    everyone = tuple(range(nvars))
    gens: list[Poly] = [elementary_sym(j, everyone, nvars) for j in range(nvars, nvars - k, -1)]
    for i in range(n):
        batch = tuple(range(i * d, (i + 1) * d))
        gens += [complete_sym(j, batch, nvars) for j in range(k, k - d, -1)]

    # within-batch permutations as permutations of all d*n variables
    group = [
        tuple(i * d + g[t] for i, g in enumerate(gs) for t in range(d))
        for gs in product(permutations(range(d)), repeat=n)
    ]

    by_degree: dict[int, SchurExpansion] = {}
    dims: dict[int, int] = {}
    ideal = None
    deg = 0
    while True:
        # no truncation: a bound of deg + 1 keeps every monomial of degree deg
        ideal = _ideal_step(
            ideal, [g for g in gens if sum(next(iter(g))) == deg], nvars, deg, deg + 1
        )
        pivot_set = set(ideal.pivots())
        standard = [mm for mm in monomials_of_degree(nvars, deg) if mm not in pivot_set]
        if standard:
            # reduce is linear, so each orbit sum is reduced once
            invariants = EchelonBasis()
            for vec in _orbit_sums(standard, group, lambda mm, w: (_apply_varperm(mm, w), 1)):
                invariants.insert(ideal.reduce(vec))
            if invariants.rank:
                def trace(rho):
                    sigma = perm_of_type(rho, n)
                    # batch permutation: variable (i, t) -> (sigma(i), t)
                    varperm = tuple(
                        sigma[i] * d + t for i in range(n) for t in range(d)
                    )

                    def coordinate(pivot, row):
                        image = {_apply_varperm(mono, varperm): c for mono, c in row.items()}
                        return ideal.reduce(image).get(pivot, 0)

                    return stable_trace(invariants, coordinate)

                by_degree[deg] = schur_from_traces(n, trace)
                dims[deg] = invariants.rank
        if not standard and deg >= nvars:  # e_{d*n} is the top generator degree
            break
        deg += 1
    return GradedDecomposition(by_degree=by_degree, dims=dims)
