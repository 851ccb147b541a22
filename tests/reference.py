"""Slow reference implementations that the fast paths are tested against.

- :class:`FractionEchelonBasis`: reduced row echelon form kept directly in
  Fractions, every row scaled to pivot coefficient 1.
- :func:`callback_trace`: the trace on a stable span in the form the
  library used before every readout took a signed column image: a
  coordinate(pivot, row) callback per row, summed in Fractions, fed by
  :func:`subscript_coordinate` for the subscript action and by
  :func:`apply_varperm` for variable permutations.
- :func:`quotient_basis` and :func:`character_on_quotient`: the commuting
  oracle over the full polynomial ring Q[x], with x_i^k among the ideal
  generators and each degree-d ideal piece spanned by every generator
  times every monomial of the complementary degree.
- :func:`encode` and :func:`decode`: the base-k codes that key the
  columns of the line and d-plane oracles' pieces, computed digit by
  digit, and :func:`decoded_rows`, a code-keyed piece's rows keyed by
  exponent tuples again.
- :func:`_bounded_monomials`: every exponent tuple of one degree with
  each entry below a bound, listed in full, where the library reads each
  degree's standard monomials off the degree below.
- :func:`line_ideal_basis`: the line ideal's pieces in A = Q[x]/<x_i^k>,
  keyed by exponent tuples and chained through :func:`_ideal_step`, the
  step the library used before lines, d-planes and superspace shared one
  span kernel and before their columns were coded.
- :func:`invariant_basis`: the diagonal invariants of a multidegree
  piece, every super-monomial symmetrized over all n! permutations (so
  each orbit is summed once per member) and the sums row-reduced.
- :func:`super_ideal_basis`: a multidegree piece of the superspace
  coinvariant ideal spanned from scratch, as every cofactor monomial times
  every invariant (from :func:`invariant_basis`) of the complementary
  multidegree.
- :func:`super_coinvariants`: the superspace coinvariant quotient read
  off :func:`super_ideal_basis` by traces for every multidegree, with no
  shortcut for pieces that the ideal fills.
- :func:`super_ideal_step`: a superspace ideal piece by the one-step-down
  recursion with no product skipped: its invariants plus every
  degree-one generator times every row of each piece one step below,
  and the unit rows when a piece below is full.
- :func:`grassmann_ideal`: the d-plane ideal's pieces in the full ring
  Q[x], spanned by :func:`_ideal_step` with no truncation.
- :func:`grassmann_quotient`: the Grassmann oracle over
  :func:`grassmann_ideal`, with every within-batch image of every standard
  monomial reduced modulo the ideal on its own and the residuals summed in
  Fractions.
- :func:`grfrob_tableaux`: the tableau formula with every standard
  tableau enumerated and its des and maj read off one by one.
- :func:`shape_multiplicity`: the pair count with every standard tableau
  of the shape enumerated and its des and maj read off one by one.
- :func:`schur_decompose`: the character inner product summed term by
  term in Fractions.
- :func:`harmonic_closure`: the breadth-first closure search over
  :class:`SuperPoly` operators, each polarization written as a sum over i
  of x_i (or theta_i) times a derivative, with every span kept in a
  :class:`FractionEchelonBasis`.
- :class:`DataclassMonomial`: the super-monomial key as the frozen,
  ordered dataclass with a cached hash of (xs, thetas) that the library
  used before its keys became tuples.
- :func:`signed_fixed_trace`: a permutation's trace on a free superspace
  piece, as the signed count of the super-monomials it fixes, each
  monomial permuted one by one.
- :func:`apply_perm`: the subscript action on one super-monomial, one
  exponent and one theta index at a time, with the theta sign.
- :func:`_perm_sign`: the sign of a permutation, read off its cycle type.
- :func:`superspace_vandermonde`: the Vandermonde seed summed over all n!
  subscript permutations, each signed by :func:`_perm_sign` times its
  theta sign.

The first two share no code with the library beyond monomial enumeration,
the symmetric polynomials and cycle-type representatives.  The codes and
the bounded monomials share nothing with the library.  The line ideal
shares the echelon basis and the generators, and keeps its own
step.  The next three share the library's echelon basis, super-monomial
enumeration and monomial products, permute by :func:`apply_perm`, and the quotient
shares the Schur readout and traces by :func:`callback_trace`; they
differ from the library's orbit sums and one-step-down recursion in how
invariants and the ideal piece are spanned, multiply through their own
:func:`_mono_times_vector`, and trace every piece, even one the ideal
fills.  The unpruned step shares
the library's span kernel, orbit sums and monomial products, and differs
only in skipping no product and in keeping the rows of full pieces.  The
Grassmann references keep their own untruncated step, trace by
:func:`callback_trace` and share the Schur readout; they differ in the
ring the ideal is spanned in, and they form the invariants of the
quotient and trace on them, where the library averages traces on the
whole quotient piece.  The next three share the tableau enumeration,
the q-binomials, the partition counts and the characters, and differ in
how they are combined.  The closure search starts from
:func:`superspace_vandermonde` and shares the derivatives and the
polynomial product; it differs in how polarizations
are applied, in the coefficient type and in the linear algebra.  The key
shares no code with the library.  The fixed-monomial count shares the
super-monomial enumeration and permutes by :func:`apply_perm`, where the
library counts by cycle type.  The action, the sign and the seed share
only the theta sort and the cycle type with the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, permutations, product

from spanrep.combinat import (
    GradedPoly,
    Partition,
    count_partitions_bounded,
    cycle_type,
    des,
    maj,
    partitions_of,
    perm_of_type,
    q_binomial,
    syt_enumerate,
    z_lambda,
)
from spanrep.errors import NotACharacterError
from spanrep.linalg import EchelonBasis
from spanrep.oracle import (
    _invariant_basis,
    _multidegree_basis,
    _span_piece,
    complete_sym,
    elementary_sym,
    monomials_of_degree,
)
from spanrep.superspace import (
    SuperMonomial,
    SuperPoly,
    d_theta,
    d_x,
    mono_mul,
    theta_canonical,
)
from spanrep.symfun import (
    ClassFunction,
    GradedFrobenius,
    SchurExpansion,
    irr_character,
    schur_from_traces,
)

_ZERO = Fraction(0)


@dataclass(frozen=True, order=True, slots=True)
class DataclassMonomial:
    """One monomial: exponents per commuting batch, index sets per theta batch."""

    xs: tuple[tuple[int, ...], ...]
    thetas: tuple[tuple[int, ...], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.xs, self.thetas)))

    def __hash__(self) -> int:
        return self._hash

    def multidegree(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(sum(b) for b in self.xs), tuple(len(b) for b in self.thetas)


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


def apply_perm(mono: SuperMonomial, w: tuple) -> tuple[SuperMonomial, int]:
    """Permute generator subscripts by w (w[i] = image of i), one exponent
    and one theta index at a time, with the theta sign."""
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


def _perm_sign(w: tuple) -> int:
    """The sign of w, (-1)^(n - number of cycles)."""
    return -1 if (len(w) - len(cycle_type(w))) % 2 else 1


def superspace_vandermonde(n: int, k: int, *, ambient: int | None = None) -> SuperPoly:
    """The seed x_0^{k-1} ... x_r^{k-1} x_{r+1}^{k-2} ... x_{n-1}^0 *
    theta_0 ... theta_{r-1}, r = n - k, summed over all n! subscript
    permutations w with the sign sgn(w) times the theta sign, in a ring on
    `ambient` generators (n when None)."""
    amb = n if ambient is None else ambient
    r = n - k
    exps = [k - 1] * r + list(range(k - 1, -1, -1)) + [0] * (amb - n)
    seed = SuperMonomial((tuple(exps),), (tuple(range(r)),))
    fixed = tuple(range(n, amb))
    acc: dict = {}
    for w in permutations(range(n)):
        img, tsign = apply_perm(seed, w + fixed)
        acc[img] = acc.get(img, 0) + _perm_sign(w) * tsign
    return SuperPoly(amb, 1, 1, {mono: c for mono, c in acc.items() if c})


def pivot_trace(basis: FractionEchelonBasis, preimage) -> Fraction:
    """Trace of a monomial permutation on a stable span: the sum over rows
    of row[preimage(pivot)], valid because every pivot coefficient is 1."""
    return sum((row.get(preimage(p), _ZERO) for p, row in basis.rows()), _ZERO)


def callback_trace(basis: EchelonBasis, coordinate) -> int:
    """Trace of a map g on the span of basis, which g must preserve:
    coordinate(pivot, row) gives (g . row)[pivot] for each primitive row,
    and the trace is the sum of those values over the pivot coefficients,
    in Fractions."""
    total = sum(
        (Fraction(coordinate(p, row), row[p]) for p, row in basis.primitive_rows()), _ZERO
    )
    assert total.denominator == 1, total
    return int(total)


def subscript_coordinate(w: tuple):
    """The coordinate(pivot, row) of :func:`callback_trace` for the diagonal
    subscript action of w on a span of super-monomials: (w . row)[pivot]
    is row[w^{-1} . pivot] times the theta sign."""
    w_inv = tuple(sorted(range(len(w)), key=w.__getitem__))

    def coordinate(pivot, row):
        pre, sign = apply_perm(pivot, w_inv)
        return sign * row.get(pre, 0)

    return coordinate


def apply_varperm(mono: tuple, w: tuple) -> tuple:
    """The exponent tuple with variable i moved to w[i]."""
    out = [0] * len(mono)
    for i, e in enumerate(mono):
        out[w[i]] = e
    return tuple(out)


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


def encode(mono: tuple, k: int) -> int:
    """The code of an exponent vector with entries below k, as the line and
    d-plane oracles key their pieces: the entries read as the digits of a
    base-k number, the first most significant."""
    return sum(e * k ** (len(mono) - 1 - i) for i, e in enumerate(mono))


def decode(code: int, nvars: int, k: int) -> tuple:
    """The exponent vector over nvars variables whose code is code."""
    digits = []
    for _ in range(nvars):
        code, e = divmod(code, k)
        digits.append(e)
    return tuple(reversed(digits))


def _bounded_monomials(nvars: int, d: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree d with every exponent below bound,
    lexicographically ascending.  The tails are memoized for this call only,
    so nothing outlives it."""

    @cache
    def tails(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
        if nvars == 0:
            return ((),) if d == 0 else ()
        return tuple(
            (e,) + rest for e in range(min(d, bound - 1) + 1) for rest in tails(nvars - 1, d - e)
        )

    return tails(nvars, d)


def decoded_rows(basis: EchelonBasis, nvars: int, k: int) -> list:
    """basis.primitive_rows() of a code-keyed piece, keyed by exponent vectors."""
    return [
        (decode(p, nvars, k), {decode(m, nvars, k): c for m, c in row.items()})
        for p, row in basis.primitive_rows()
    ]


def _ideal_step(
    prev: EchelonBasis | None, generators: list[dict], nvars: int, d: int, bound: int
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
def line_ideal_basis(n: int, k: int, d: int) -> EchelonBasis:
    """Degree-d piece of the ideal generated by e_n, ..., e_{n-k+1} in
    A = Q[x]/<x_i^k>, chained through :func:`_ideal_step`."""
    prev = line_ideal_basis(n, k, d - 1) if d else None
    gens = [elementary_sym(d, tuple(range(n)), n)] if n - k < d <= n else []
    return _ideal_step(prev, gens, n, d, k)


def _mono_times_vector(mono: SuperMonomial, vec: dict) -> dict:
    out: dict[SuperMonomial, int] = {}
    for other, c in vec.items():
        mm, sign = mono_mul(mono, other)
        if mm is None:
            continue
        out[mm] = out.get(mm, 0) + sign * c
    return {k: v for k, v in out.items() if v}


@cache
def invariant_basis(n: int, alpha: tuple, beta: tuple) -> EchelonBasis:
    """Echelon basis of the diagonal invariants of one multidegree piece,
    from unnormalized symmetrization of every super-monomial."""
    basis = EchelonBasis()
    perms = list(permutations(range(n)))
    for mono in _multidegree_basis(n, alpha, beta):
        acc: dict = {}
        for w in perms:
            img, sign = apply_perm(mono, w)
            acc[img] = acc.get(img, 0) + sign
        basis.insert({k: v for k, v in acc.items() if v})
    return basis


@cache
def super_ideal_basis(n: int, alpha: tuple, beta: tuple) -> EchelonBasis:
    """Multidegree (alpha, beta) piece of the ideal generated by the
    positive-multidegree diagonal invariants: cofactor monomial times
    invariant, over every componentwise-smaller invariant multidegree."""
    ideal = EchelonBasis()
    for gamma in product(*(range(a + 1) for a in alpha)):
        for delta in product(*(range(b + 1) for b in beta)):
            if not any(gamma) and not any(delta):
                continue
            cof_alpha = tuple(a - g for a, g in zip(alpha, gamma))
            cof_beta = tuple(b - d for b, d in zip(beta, delta))
            for cof in _multidegree_basis(n, cof_alpha, cof_beta):
                for _, row in invariant_basis(n, gamma, delta).primitive_rows():
                    vec = _mono_times_vector(cof, row)
                    if vec:
                        ideal.insert(vec)
    return ideal


@cache
def super_ideal_step(n: int, alpha: tuple, beta: tuple) -> EchelonBasis:
    """Multidegree (alpha, beta) piece of the superspace coinvariant ideal:
    its invariants plus each degree-one generator of a batch times every
    row of the piece one step below in that batch, or its unit rows when
    one of those pieces is full."""
    md, m = alpha + beta, len(alpha)
    if not any(md):
        return EchelonBasis()
    monomials = _multidegree_basis(n, alpha, beta)
    below = []
    for i, e in enumerate(md):
        if not e:
            continue
        step = tuple(int(j == i) for j in range(len(md)))
        lower = tuple(a - b for a, b in zip(md, step))
        piece = super_ideal_step(n, lower[:m], lower[m:])
        if piece.rank == len(_multidegree_basis(n, lower[:m], lower[m:])):
            return _span_piece([{mono: 1} for mono in monomials], len(monomials))
        below.append((step, piece))

    def products():
        for step, piece in below:
            rows = piece.primitive_rows()
            support = {mono for _, row in rows for mono in row}
            for g in _multidegree_basis(n, step[:m], step[m:]):
                times = {mono: t for mono in support if (t := mono_mul(g, mono))[0] is not None}
                for _, row in rows:
                    yield {t[0]: t[1] * c for mono, c in row.items() if (t := times.get(mono))}

    return _span_piece(chain(_invariant_basis(n, alpha, beta), products()), len(monomials))


def signed_fixed_trace(n: int, alpha: tuple, beta: tuple, w: tuple) -> int:
    """Trace of w on the free piece (alpha, beta): every super-monomial of
    the piece permuted by w, and the theta sign of each fixed one summed."""
    fixed = 0
    for mono in _multidegree_basis(n, alpha, beta):
        img, sign = apply_perm(mono, w)
        if img == mono:
            fixed += sign
    return fixed


def super_coinvariants(n: int, alpha: tuple, beta: tuple) -> SchurExpansion:
    """Schur decomposition of one multidegree piece of the quotient by
    :func:`super_ideal_basis`, every cycle type traced as the signed fixed
    monomials minus the trace on the ideal, full ideal pieces included."""
    ideal = super_ideal_basis(n, alpha, beta)

    def trace(rho):
        w = perm_of_type(rho, n)
        fixed = signed_fixed_trace(n, alpha, beta, w)
        return fixed - callback_trace(ideal, subscript_coordinate(w))

    return schur_from_traces(n, trace)


def batch_group(d: int, n: int) -> list[tuple]:
    """The within-batch permutations of d*n variables, batch i being the
    variables i*d, ..., i*d + d - 1, written out index by index."""
    group = []
    for gs in product(permutations(range(d)), repeat=n):
        w = [0] * (d * n)
        for i, g in enumerate(gs):
            for t in range(d):
                w[i * d + t] = i * d + g[t]
        group.append(tuple(w))
    return group


def _grassmann_generators(d: int, n: int, k: int) -> list[dict]:
    nvars = d * n
    everyone = tuple(range(nvars))
    gens = [elementary_sym(j, everyone, nvars) for j in range(nvars, nvars - k, -1)]
    for i in range(n):
        batch = tuple(range(i * d, (i + 1) * d))
        gens += [complete_sym(j, batch, nvars) for j in range(k, k - d, -1)]
    return gens


@cache
def grassmann_ideal(d: int, n: int, k: int, deg: int) -> EchelonBasis:
    """Degree-deg piece of the d-plane ideal in the full ring Q[x] over d*n
    variables: :func:`_ideal_step` with no truncation (a bound of deg + 1
    keeps every monomial of degree deg)."""
    prev = grassmann_ideal(d, n, k, deg - 1) if deg else None
    gens = [g for g in _grassmann_generators(d, n, k) if sum(next(iter(g))) == deg]
    return _ideal_step(prev, gens, d * n, deg, deg + 1)


def grassmann_quotient(d: int, n: int, k: int) -> GradedFrobenius:
    """The batch-symmetric quotient presentation of spanning d-plane
    configurations in the full ring, its invariants formed image by image:
    for each standard monomial, the residual of every within-batch image,
    summed.  Each degree's dimension is the rank of its invariants, and it
    must equal the dimension read off that degree's expansion."""
    nvars = d * n
    group = batch_group(d, n)
    by_degree, dims = {}, {}
    deg = 0
    while True:
        ideal = grassmann_ideal(d, n, k, deg)
        pivot_set = set(ideal.pivots())
        standard = [mm for mm in monomials_of_degree(nvars, deg) if mm not in pivot_set]
        invariants = EchelonBasis()
        for mm in standard:
            acc: dict = {}
            for g in group:
                for key, c in ideal.reduce({apply_varperm(mm, g): 1}).items():
                    nc = acc.get(key, _ZERO) + c
                    if nc:
                        acc[key] = nc
                    else:
                        acc.pop(key, None)
            invariants.insert(acc)
        if invariants.rank:
            def trace(rho):
                sigma = perm_of_type(rho, n)
                varperm = tuple(sigma[i] * d + t for i in range(n) for t in range(d))

                def coordinate(pivot, row):
                    image = {apply_varperm(mono, varperm): c for mono, c in row.items()}
                    return ideal.reduce(image).get(pivot, 0)

                return callback_trace(invariants, coordinate)

            by_degree[deg] = schur_from_traces(n, trace)
            dims[deg] = invariants.rank
        if not standard and deg >= nvars:
            break
        deg += 1
    table = GradedFrobenius(n, k, by_degree)
    assert table.dims == dims, (d, n, k, dims, table.dims)
    return table


def grfrob_tableaux(n: int, k: int) -> GradedFrobenius:
    """The sum over standard tableaux T with n boxes of
    q^maj(T) * qbinom(n - des(T) - 1, n - k) * s_shape(T), one T at a time."""
    acc: dict[int, dict[Partition, int]] = {}
    for lam in partitions_of(n):
        for t in syt_enumerate(lam):
            m = maj(t)
            for (qe, _, _), c in q_binomial(n - des(t) - 1, n - k).items():
                bucket = acc.setdefault(m + qe, {})
                bucket[lam] = bucket.get(lam, 0) + c
    by_degree = {
        s: SchurExpansion(n, {lam: GradedPoly.const(c) for lam, c in bucket.items()})
        for s, bucket in acc.items()
    }
    return GradedFrobenius(n, k, by_degree)


def shape_multiplicity(lam: Partition, k: int, s: int) -> int:
    """Pairs (T, nu): T a standard tableau of shape lam, nu inside the
    (k - des(T) - 1) x (n - k) rectangle, maj(T) + |nu| = s."""
    n = lam.size
    if k < 1 or k > n or s < 0:
        return 0
    total = 0
    for t in syt_enumerate(lam):
        rows_avail = k - des(t) - 1
        if rows_avail < 0:
            continue
        total += count_partitions_bounded(s - maj(t), rows_avail, n - k)
    return total


def schur_decompose(chi: ClassFunction) -> SchurExpansion:
    """Multiplicity of each lam as sum_rho chi(rho) chi^lam(rho) / z_rho,
    accumulated in Fractions; a non-integer or negative one raises."""
    coeffs = {}
    for lam in partitions_of(chi.n):
        acc = Fraction(0)
        for rho in partitions_of(chi.n):
            acc += Fraction(chi.value(rho) * irr_character(lam, rho), z_lambda(rho))
        if acc.denominator != 1 or acc < 0:
            raise NotACharacterError(f"multiplicity of {lam.parts} came out {acc}")
        if acc:
            coeffs[lam] = int(acc)
    return SchurExpansion(chi.n, coeffs)


def x_polarization(f: SuperPoly, src: int, dst: int, j: int) -> SuperPoly:
    """sum_i x_i^(dst) * (d/dx_i^(src))^j f."""
    total = SuperPoly.zero(f.n, f.m, f.p)
    for i in range(f.n):
        piece = f
        for _ in range(j):
            piece = d_x(piece, i, src)
        total = total + SuperPoly.x(f.n, f.m, f.p, i, dst) * piece
    return total


def theta_polarization(f: SuperPoly, src: int, dst: int) -> SuperPoly:
    """sum_i theta_i^(dst) * d/dtheta_i^(src) f."""
    total = SuperPoly.zero(f.n, f.m, f.p)
    for i in range(f.n):
        total = total + SuperPoly.theta(f.n, f.m, f.p, i, dst) * d_theta(f, i, src)
    return total


def harmonic_closure(n: int, m: int, p: int, k: int) -> dict:
    """Multidegree -> FractionEchelonBasis of the span of the Vandermonde
    seed (first batch of each kind) under every derivative and every
    polarization, polarization powers up to max(k - 1, 1)."""
    pad_x, pad_theta = ((0,) * n,) * (m - 1), ((),) * (p - 1)
    seed = SuperPoly(n, m, p, {
        SuperMonomial(mono.xs + pad_x, mono.thetas + pad_theta): c
        for mono, c in superspace_vandermonde(n, k).terms().items()
    })
    ops = [lambda f, i=i, b=b: d_x(f, i, b) for b in range(m) for i in range(n)]
    ops += [lambda f, i=i, b=b: d_theta(f, i, b) for b in range(p) for i in range(n)]
    for src, dst in permutations(range(m), 2):
        for j in range(1, max(k - 1, 1) + 1):
            ops.append(lambda f, s=src, d=dst, j=j: x_polarization(f, s, d, j))
    for src, dst in permutations(range(p), 2):
        ops.append(lambda f, s=src, d=dst: theta_polarization(f, s, d))

    spaces: dict = {}

    def insert(poly: SuperPoly) -> bool:
        md = poly.items()[0][0].multidegree()
        return spaces.setdefault(md, FractionEchelonBasis()).insert(poly.terms())

    queue = [seed]
    insert(seed)
    while queue:
        vec = queue.pop()
        for op in ops:
            img = op(vec)
            if img and insert(img):
                queue.append(img)
    return spaces
