"""Brute-force ground truth: exact linear algebra on graded quotient rings.

Spanning d-plane configurations give Q[x]/I over d*n variables, with I
generated by the top k elementary symmetric polynomials of all variables
and h_k, ..., h_{k-d+1} of each batch of d; lines are d = 1.  Every x_i^k
lies in I, so the quotient is computed from the truncated ring
A = Q[x]/<x_i^k>, whose basis is the monomials with every exponent below
k.  A column of a line or d-plane piece is keyed by the code of its
monomial m over nvars variables, sum_i m_i k^(nvars-1-i), the exponents
read as the digits of a base-k number: within one degree code order is the
lexicographic order of the monomials, multiplying by x_j is one addition
(:func:`_x_steps`), and a permutation of the variables maps codes through
two digit tables (:func:`_code_image`).  The ideal's pieces are walked up
by degree (:func:`_ideal_pieces`), each built from the two below it, which
are all the walk holds; the walk hands each piece its standard monomials,
read off the degree below, and their number is the quotient dimension.
A line decomposition reads each piece it walks, once per degree and cycle
type, while the walk holds it; a standalone readout walks up to its own
piece.  Each ideal piece, these and the superspace coinvariant ones alike,
is spanned by one kernel (:func:`_span_piece`) from its generators and the
degree-one multiples of the pieces below, and row-reduced exactly with
integer rows.  A chain criterion read off the pivot sets of the pieces
below skips the products that the kept ones already span
(:func:`_ideal_piece`, and for superspace :func:`_super_ideal_basis`).
That is generic linear algebra on the ideal's own generators: nothing
from the tableau formula, and no known Groebner basis of these ideals.
A piece stops spanning once its rank is the number of monomials.  A
superspace piece is full outright when a piece one step below it is,
since every monomial is, up to sign, a degree-one generator times a
monomial one step lower; a full superspace piece holds no rows (it is
None), and its quotient is zero, read without traces.  Superspace pieces
live only as long as the table walk or standalone call that built them.
The diagonal invariants that generate the superspace coinvariant ideal
are signed orbit sums of super-monomials, one per orbit
(:func:`_invariant_basis`); disjoint supports make them independent as they
are.
Every trace of a permutation on a quotient piece is read by
:func:`~spanrep.linalg.quotient_trace`, given the permutation as a signed
image of the piece's columns, off the smaller side of the piece: over the
standard monomials, the non-pivots of the reduced echelon basis and a
basis of the quotient, when they are fewer than the ideal rows; otherwise
as the signed fixed monomials minus the trace on the ideal subspace, read
off its pivot coordinates.  Both are valid because the ideals are stable
under the action; tests exercise that stability directly.  The Grassmann
oracle's characters on within-batch invariants are means of such traces
over the within-batch group (:func:`grassmann_quotient`), so no invariant
is formed and nothing is reduced modulo the ideal.

Scale guards: one admission check (:func:`_check_commuting`), asked before
any work, serves the line and d-plane oracles; it refuses n > 7 (lines, or
batches of d: both read characters of S_n) and any request whose largest
piece A_d has more than COMMUTING_MAX_PIECE monomials (counted, the count
stopping once it passes that budget).  `frobenius --source both` asks it
before the formula builds its table.  Superspace quotients refuse n > 5.
"""

from __future__ import annotations

import threading
from functools import cache
from itertools import (
    accumulate,
    chain,
    combinations,
    combinations_with_replacement,
    islice,
    permutations,
    product,
    repeat,
)
from math import factorial, prod

from .combinat import Partition, cycle_type, partitions_of, perm_of_type, z_lambda
from .errors import ScaleGuardError
from .linalg import EchelonBasis, quotient_trace
from .superspace import SuperMonomial, mono_mul, permuter
from .symfun import GradedFrobenius, SchurExpansion, dimension, schur_from_traces

__all__ = [
    "character_on_quotient",
    "complete_sym",
    "decompose_coinvariants",
    "decompose_super_coinvariants",
    "decompose_superspace",
    "elementary_sym",
    "grassmann_quotient",
    "monomials_of_degree",
    "quotient_basis",
    "super_coinvariant_table",
]

COMMUTING_MAX_N = 7
# Largest truncated piece A_d the line and d-plane oracles will span, in
# monomials.  For lines it admits every n <= 6, (6,6) at 4,332, and n = 7
# up to k = 5 (8,135; `decompose_coinvariants(7, 5)`, the largest admitted
# request, takes about 1.5 s and 66 MB max RSS in process on a 2-vCPU Xeon
# VM, and `spanrep frobenius 7 5 --source both` about 1.8 s and 71 MB); it
# refuses (7,6) at 24,017 and (7,7) at 60,691.  For d-planes it admits
# (2,4,4) at 8,092 and refuses (2,4,5) at 38,165.
COMMUTING_MAX_PIECE = 10_000
# Superspace quotients admit n <= 5 and refuse n = 6.  The largest admitted
# request, `spanrep explore --problem zabrocki-t0 --n 5`, takes about 4 s
# and 51 MB max RSS on a 2-vCPU Xeon VM.
SUPER_QUOTIENT_MAX_N = 5

Poly = dict  # exponent tuple -> int coefficient


@cache
def monomials_of_degree(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree d, lexicographically ascending."""
    if nvars < 0:
        raise ValueError("n must be nonnegative")
    if nvars == 0:
        return ((),) if d == 0 else ()
    return tuple(
        (e,) + rest for e in range(d + 1) for rest in monomials_of_degree(nvars - 1, d - e)
    )


def elementary_sym(d: int, indices: tuple[int, ...], nvars: int) -> Poly:
    """Elementary symmetric polynomial e_d in the given variables.

    Zero when d exceeds the number of variables.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
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
    out: Poly = {}
    for multiset in combinations_with_replacement(indices, d):
        exps = [0] * nvars
        for i in multiset:
            exps[i] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def _encode(poly: Poly, k: int) -> dict[int, int]:
    """poly's image in A = Q[x]/<x_i^k>, keyed by monomial codes: the terms
    with an exponent of k or more drop."""
    out = {}
    for m, c in poly.items():
        if max(m) < k:
            code = 0
            for e in m:
                code = code * k + e
            out[code] = c
    return out


def _generators(d: int, n: int, k: int, deg: int) -> list[Poly]:
    """Degree-deg generators of the spanning d-plane ideal in d*n variables:
    e_deg of all variables when deg > d*n - k, and h_deg of each batch of d
    when k - d < deg <= k.  At d = 1 the h_k are the x_i^k themselves."""
    nvars = d * n
    gens = [elementary_sym(deg, tuple(range(nvars)), nvars)] if nvars - k < deg <= nvars else []
    if k - d < deg <= k:
        gens += [complete_sym(deg, tuple(range(i * d, (i + 1) * d)), nvars) for i in range(n)]
    return gens


def _x_steps(nvars: int, k: int) -> list[tuple[int, int, int]]:
    """(step, wrap, top) for each of nvars variables x_j, j ascending.  On
    codes x_j * m is m + step with step = k^(nvars-1-j), and it vanishes in
    A exactly when digit j of m is k - 1, that is when m % wrap >= top,
    with wrap = k*step and top = (k-1)*step."""
    return [(step, k * step, (k - 1) * step) for step in (k**i for i in reversed(range(nvars)))]


def _span_piece(vectors, dim: int) -> EchelonBasis:
    """One ideal piece: the span of vectors, its generators and then
    degree-one multiples of lower pieces, in a space of dim monomials.
    Line and d-plane vectors are keyed by monomial codes, superspace ones
    by super-monomials.  The finished basis keeps no insertion index.

    Spanning stops once the rank reaches dim: the piece is then the whole
    space, whose reduced echelon basis is the unit rows whatever else is
    inserted, so the rest of vectors is never drawn.
    """
    basis = EchelonBasis()
    for vec in vectors:
        if vec and basis.insert(vec) and basis.rank == dim:
            break
    basis.release_index()
    return basis


def _ideal_piece(
    d: int, n: int, k: int, deg: int, below: EchelonBasis | None, two_below: EchelonBasis | None
) -> EchelonBasis:
    """Degree-deg piece of the spanning d-plane ideal in A = Q[x]/<x_i^k>
    over d*n variables: its generators (:func:`_generators`) plus x_j times
    the rows of below, the piece one degree lower (None at degree 0).  Every
    x_i^k lies in the ideal, since x_d^k = sum_{j<d} (-1)^j e_j(x_1..x_{d-1})
    h_{k-j}(x_1..x_d) within a batch, so the quotient by the ideal is the
    quotient of A by this image.

    A product is skipped when the pivots of two_below, the piece two
    degrees down, show it to be redundant (a chain criterion).  For the row
    of below with pivot p let par(p) be the i with p_i > 0 and p/x_i a
    pivot of two_below.  x_j * row_p is kept when par(p) is empty; else,
    when x_j * p survives in A (p_j < k - 1), only if min par(p) >= j, and
    when it vanishes, only if par(p) is {j}.  Why: for i in par(p) and
    q = p/x_i, x_i * row_q is row_p (up to a scalar) plus rows with larger
    pivots, and x_j * row_q is a combination of rows s of below whose
    pivots are at least x_j * q.  So x_j * row_p is a combination of
    products x_j * row_s' and x_i * row_s, whose keys x_j * s' and x_i * s,
    taken untruncated, exceed x_j * p except for x_i * row_s at
    s = x_j * q, which comes first when i < j and does not exist when
    x_j * q vanishes.  By induction over (key descending, j ascending)
    every skipped product lies in the span of the kept ones, so the piece,
    and its reduced echelon basis, is the same as with every product.

    The keys are the monomials' codes, whose order within one degree is
    that of the monomials, and x_j multiplies them by one addition
    (:func:`_x_steps`).  So par(p) is read as the i with p - step_i in
    two_below's pivots.  That difference is the code of p/x_i exactly when
    p_i > 0: otherwise the subtraction borrows, and each borrow adds k - 1
    to the digit sum deg - 2, or the difference is negative, so it is the
    code of no monomial of two_below's degree.
    """
    nvars = d * n
    gens = [_encode(g, k) for g in _generators(d, n, k, deg)]
    rows = below.primitive_rows() if below is not None else []
    steps = _x_steps(nvars, k)

    def products():
        old = set(two_below.pivots()) if two_below is not None else set()
        parents = [[i for i, (step, _, _) in enumerate(steps) if p - step in old] for p, _ in rows]
        for j, (step, wrap, top) in enumerate(steps):
            for (p, row), par in zip(rows, parents):
                if not par or (par[0] >= j if p % wrap < top else par == [j]):
                    yield {m + step: c for m, c in row.items() if m % wrap < top}

    sizes = _fixed_monomial_counts((1,) * nvars, k)  # of every A_deg
    return _span_piece(chain(gens, products()), sizes[deg] if deg < len(sizes) else 0)


def _ideal_pieces(d: int, n: int, k: int):
    """Yield (deg, piece, standard) for the spanning d-plane ideal in A,
    deg ascending up to A's top degree d*n*(k - 1): each piece
    (:func:`_ideal_piece`) with its standard monomials, the monomials of
    A_deg that are not its pivots, a basis of the degree-deg quotient.
    Columns, pivots and standard monomials are all monomial codes.  Only
    the two pieces that the next one reads are held.

    The standard monomials of degree deg are read off those of deg - 1:
    the candidates are every x_j * s that survives in A (:func:`_x_steps`),
    and the standard ones are the candidates that are not pivots.  No
    other monomial can be standard, because the standard monomials form an
    order ideal (Macaulay's basis theorem): a pivot p is the least key of
    row_p, and x_j * row_p lies in the next piece, so when x_j * p survives
    in A it is the least key of x_j * row_p, since multiplying by x_j
    preserves the order, and so a pivot.  Every divisor of a standard
    monomial is then standard, and every standard monomial of positive
    degree is some x_j times a standard monomial one degree lower."""
    steps = _x_steps(d * n, k)
    below = ideal = None
    candidates = [0]  # A_0 is spanned by the monomial 1
    for deg in range(d * n * (k - 1) + 1):
        below, ideal = ideal, _ideal_piece(d, n, k, deg, ideal, below)
        standard = ideal.non_pivots(candidates)
        yield deg, ideal, standard
        candidates = sorted(
            {s + step for s in standard for step, wrap, top in steps if s % wrap < top}
        )


class _Reading(threading.local):
    """What a walk is reading, per thread, or None outside one: the line
    piece, as ((n, k, deg), piece, standard), and a superspace table
    walk's pieces, as (n, {(alpha, beta): piece})."""

    piece = None
    super_pieces = None


_reading = _Reading()


def _line_piece(n: int, k: int, deg: int) -> tuple[EchelonBasis, list[int]]:
    """The line ideal's degree-deg piece and its standard monomials: the
    one a decomposition is reading, or else, once the request is checked,
    walked up to from degree 0 and kept by nothing.  Past A's top degree
    n(k - 1) the piece has no monomials, so it is empty."""
    slot = _reading.piece
    if slot is not None and slot[0] == (n, k, deg):
        return slot[1:]
    _check_commuting(1, n, k, deg)
    _, piece, standard = next(islice(_ideal_pieces(1, n, k), deg, None), (deg, EchelonBasis(), []))
    return piece, standard


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


def _digit_table(weights: list[int], k: int) -> list[int]:
    """Entry v: the sum over t of digit t of v, read in base k with
    len(weights) digits, the first most significant, times weights[t]."""
    table = [0]
    for weight in weights:
        table = [t + e * weight for t in table for e in range(k)]
    return table


@cache
def _code_image(w: tuple[int, ...], k: int):
    """image(codes) for :func:`~spanrep.linalg.quotient_trace`: each code
    of a monomial m over len(w) variables mapped to the code of m read
    through w, (m_w[0], m_w[1], ...), with sign 1.

    Digit w[i] of a code moves to digit i, so the image is a sum of one
    weight per digit, read off two digit tables, one for the high digits
    and one for the low.  A walk traces each permutation once per degree,
    so the map is kept."""
    nvars = len(w)
    weights = [0] * nvars
    for i, j in enumerate(w):
        weights[j] = k ** (nvars - 1 - i)
    low = nvars // 2
    base = k**low
    hi = _digit_table(weights[: nvars - low], k)
    lo = _digit_table(weights[nvars - low :], k)
    return lambda codes: zip([hi[c // base] + lo[c % base] for c in codes], repeat(1))


def _permuted_trace(piece: EchelonBasis, standard, w, cycles, k: int, deg: int) -> int:
    """Trace of the variable permutation w, of these cycle lengths, on the
    quotient of A_deg by piece, whose standard monomials are standard, both
    keyed by codes.  A permuted monomial's exponents are read through w
    (:func:`_code_image`), and an empty piece needs none: its quotient is
    all of A_deg.  The trace of w^{-1} is that of w."""
    counts = _fixed_monomial_counts(cycles, k)
    whole = counts[deg] if deg < len(counts) else 0
    if not piece.rank:  # nothing is divided out: no image is needed
        return whole
    return quotient_trace(piece, standard, _code_image(tuple(w), k), whole)


def _check_pieces(nvars: int, k: int, top_degree: int | None) -> None:
    """Refuse a span whose largest truncated piece A_d over nvars variables
    (exponents below k, d up to top_degree, or all d when None) has more
    than COMMUTING_MAX_PIECE monomials; counted, not built.  Each variable
    multiplies the sizes by 1 + q + ... + q^(k-1), which lowers none, so
    counting stops once one passes the budget or a variable changes nothing.
    """
    cut = None if top_degree is None else top_degree + 1
    largest = k if cut is None and nvars >= 2 else 1  # two variables: k in degree k - 1
    sizes = [1]
    for _ in range(nvars if largest <= COMMUTING_MAX_PIECE else 0):
        prefix = [0, *accumulate(sizes)]
        grown = [
            prefix[min(i + 1, len(sizes))] - prefix[max(i - k + 1, 0)]
            for i in range(len(sizes) + k - 1)
        ][:cut]
        if grown == sizes or (largest := max(grown)) > COMMUTING_MAX_PIECE:
            break
        sizes = grown
    if largest > COMMUTING_MAX_PIECE:
        raise ScaleGuardError(
            f"oracle limited to pieces of at most {COMMUTING_MAX_PIECE} monomials,"
            f" got at least {largest} over {nvars} variables with exponents below {k}"
        )


def _check_commuting(d: int, n: int, k: int, top_degree: int | None) -> None:
    """The one admission check of the line (d = 1) and d-plane oracles,
    before any work: ValueError unless 1 <= d <= k <= d*n and top_degree,
    the highest degree the request spans (None for all), is nonnegative;
    then ScaleGuardError for n > COMMUTING_MAX_N or a piece over budget."""
    if not 1 <= d <= k <= d * n:
        need = "1 <= k <= n, got" if d == 1 else f"1 <= d <= k <= d*n, got d={d},"
        raise ValueError(f"need {need} n={n}, k={k}")
    if top_degree is not None and top_degree < 0:
        raise ValueError(f"degree must be nonnegative, got {top_degree}")
    if n > COMMUTING_MAX_N:
        raise ScaleGuardError(f"commuting oracle limited to n <= {COMMUTING_MAX_N}, got n={n}")
    _check_pieces(d * n, k, top_degree)


def quotient_basis(n: int, k: int, d: int) -> tuple[int, EchelonBasis]:
    """Dimension of the degree-d quotient piece, the number of its standard
    monomials, and the ideal piece of A_d in RREF, its columns keyed by the
    codes of their monomials, not by exponent tuples.

    A standalone read walks the ideal up from degree 0;
    :func:`decompose_coinvariants` reads every degree in one walk."""
    basis, standard = _line_piece(n, k, d)
    return len(standard), basis


def character_on_quotient(n: int, k: int, d: int, rho: Partition) -> int:
    """Trace of a permutation of cycle type rho on the degree-d quotient piece.

    A standalone read walks the ideal up from degree 0;
    :func:`decompose_coinvariants` reads every degree in one walk."""
    w = perm_of_type(rho, n)  # refuses a rho of another size before any walk
    basis, standard = _line_piece(n, k, d)
    return _permuted_trace(basis, standard, w, rho.parts, k, d)


def decompose_coinvariants(n: int, k: int, max_degree: int | None = None) -> GradedFrobenius:
    """Schur decomposition of every graded piece of the spanning-line quotient.

    Walks the ideal pieces up by degree (:func:`_ideal_pieces`) and reads
    each one through :func:`quotient_basis` and :func:`character_on_quotient`
    while it is recorded as the piece being read, until the quotient piece
    vanishes; the quotient ring is generated in degree one, so all higher
    pieces vanish too.  `max_degree` stops the walk early, which keeps
    large-n probes affordable when only low degrees are needed.
    """
    _check_commuting(1, n, k, max_degree)
    by_degree: dict[int, SchurExpansion] = {}
    try:
        for d, piece, standard in _ideal_pieces(1, n, k):
            _reading.piece = (n, k, d), piece, standard
            if not (dim := quotient_basis(n, k, d)[0]):
                break
            exp = schur_from_traces(n, lambda rho: character_on_quotient(n, k, d, rho))
            if int(dimension(exp).evaluate()) != dim:
                raise RuntimeError(f"decomposition dimension mismatch at degree {d}")
            by_degree[d] = exp
            if d == max_degree:
                break
    finally:
        _reading.piece = None
    return GradedFrobenius(n, k, by_degree)


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


def _check_multidegree(alpha: tuple[int, ...], beta: tuple[int, ...]) -> None:
    if any(e < 0 for e in alpha + beta):
        raise ValueError(f"multidegree entries must be nonnegative, got {alpha}, {beta}")


def _check_super_quotient(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > SUPER_QUOTIENT_MAX_N:
        raise ScaleGuardError(
            f"superspace quotients limited to n <= {SUPER_QUOTIENT_MAX_N}, got n={n}"
        )


def _signed_fixed_trace(
    cycles: tuple[int, ...], alpha: tuple[int, ...], beta: tuple[int, ...]
) -> int:
    """Trace of a permutation with these cycle lengths on the free piece
    (alpha, beta): its signed count of fixed super-monomials, counted by
    cycle type.

    A fixed monomial has, in each x batch, exponents constant on every
    cycle, and in each theta batch an index set that is a union of cycles;
    w turns the thetas of a cycle of length l by the sign (-1)^(l-1).  So
    an x batch of degree a contributes the number of solutions of
    sum_c e_c l_c = a, a theta batch of degree b the t^b coefficient of
    the product over cycles of 1 + (-1)^(l_c-1) t^(l_c), and the trace is
    the product over batches.
    """
    top_x, top_theta = max(alpha, default=0), max(beta, default=0)
    x_counts = [1] + [0] * top_x  # coefficients of prod_c 1 / (1 - q^l_c)
    theta_counts = [1] + [0] * top_theta
    for ell in cycles:
        for d in range(ell, top_x + 1):
            x_counts[d] += x_counts[d - ell]
        sign = -1 if ell % 2 == 0 else 1
        for d in range(top_theta, ell - 1, -1):
            theta_counts[d] += sign * theta_counts[d - ell]
    return prod(x_counts[a] for a in alpha) * prod(theta_counts[b] for b in beta)


def decompose_superspace(n: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> SchurExpansion:
    """Schur decomposition of one free multidegree piece of the mixed ring.

    The diagonal subscript action permutes basis super-monomials up to the
    theta reordering sign, so traces are signed fixed-point counts, read
    off the cycle type (:func:`_signed_fixed_trace`).
    """
    _check_multidegree(alpha, beta)
    if n > COMMUTING_MAX_N:
        raise ScaleGuardError(f"superspace pieces limited to n <= {COMMUTING_MAX_N}, got n={n}")
    return schur_from_traces(n, lambda rho: _signed_fixed_trace(rho.parts, alpha, beta))


def _invariant_basis(n: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> list[dict]:
    """A basis of the diagonal invariants of one multidegree piece: one
    signed orbit sum (Reynolds up to a scalar) per orbit of its
    super-monomials.

    A monomial whose orbit has already been summed is skipped, since its
    sum is that one up to sign.  Sums of different orbits have disjoint
    supports, so the nonzero sums are linearly independent; a sum cancels
    to zero when a stabilizer element acts by -1, and is dropped.
    """
    group = list(map(permuter, permutations(range(n))))
    seen: set = set()
    sums = []
    for mono in _multidegree_basis(n, alpha, beta):
        if mono in seen:
            continue
        acc: dict = {}
        for image in group:
            img, sign = image(mono)
            acc[img] = acc.get(img, 0) + sign
        seen.update(acc)
        if vec := {m: c for m, c in acc.items() if c}:
            sums.append(vec)
    return sums


def _quotients(mono: SuperMonomial, batch: int, m: int):
    """(l, mono / g_l) for each degree-one generator g_l (x_l or theta_l)
    of one batch, x batches first, that divides mono, l ascending; theta
    quotients are up to sign."""
    xs, thetas = mono
    if batch < m:
        b = xs[batch]
        for l, e in enumerate(b):
            if e:
                lower = b[:l] + (e - 1,) + b[l + 1 :]
                yield l, SuperMonomial(xs[:batch] + (lower,) + xs[batch + 1 :], thetas)
    else:
        c = batch - m
        t = thetas[c]
        for pos, l in enumerate(t):
            yield l, SuperMonomial(xs, thetas[:c] + (t[:pos] + t[pos + 1 :],) + thetas[c + 1 :])


def _super_ideal_basis(
    n: int, alpha: tuple[int, ...], beta: tuple[int, ...], pieces: dict
) -> EchelonBasis | None:
    """Multidegree (alpha, beta) piece of the ideal generated by the
    positive-multidegree diagonal invariants, or None when the ideal fills
    the multidegree: its invariants plus each degree-one generator g (an
    x_j or theta_j of one batch) times the piece one step below in g's
    batch.  Every positive-degree monomial is such a g times a monomial
    one step lower, so these products span the rest.  Each piece built
    goes into pieces, keyed (alpha, beta), a dict that the caller owns.

    For the same reason the piece is full as soon as one piece below it
    is: each monomial is then, up to sign, a generator times an ideal
    element.  A full piece, whether made full so or by spanning, holds no
    rows: no piece above reads them, and its quotient is zero.

    Two kinds of piece are full before any recursion.  One with an x batch
    of degree above n(n-1)/2: the symmetric polynomials of that batch alone
    are diagonal invariants, and they generate its classical coinvariant
    ideal, whose quotient vanishes above n(n-1)/2; so each monomial of the
    batch lies in the ideal, and so does its product with any monomial of
    the other batches.  One with a theta batch of degree above n has no
    monomials.  So no recursion runs deeper than those degrees.

    Three rules skip products that the kept ones span, so the piece, and
    its reduced echelon basis, is the same as with every product.  Keys
    are ordered as tuples (xs, thetas).  Multiplying by x_j adds one to an
    exponent, and the order of two same-size theta sets A, B is that of
    their sorted tuples: A < B when min(A ^ B) lies in A.  Read on
    exponent vectors, that is "larger exponent at the first difference",
    which extends to a total order on every multidegree of the commuting
    ring Q[x, theta-as-commuting] that multiplication preserves strictly.
    Products are compared by their nominal key g * p in that ring, even
    when theta_j * p vanishes (p already holds theta_j).  Signs from
    anticommuting thetas only rescale products: left multiplications by
    two thetas of one batch anticommute, and any other two commute.  For
    the row of the piece below with pivot p, let par(p) be the l with
    p / g_l a pivot of the piece two steps down in g's batch.

    1. Within an x batch, keep x_j * row_p only if par(p) is empty or
       min par(p) >= j: the chain criterion of :func:`_ideal_piece`, whose
       argument carries over unchanged, since multiplying by x_j is
       injective on keys and strictly preserves their order.  For i in
       par(p) and q = p / x_i, x_i * row_q is c * row_p plus rows with
       larger pivots, and x_j * row_q is a combination of rows s of the
       piece below with s >= x_j * q; so x_j * row_p is a combination of
       products with larger keys and of x_i * row_(x_j q), of the same key
       and an earlier index when i < j.
    2. Within a theta batch, theta_j^2 = 0 plays the part of x_j^k = 0 in
       :func:`_ideal_piece` at k = 2.  When j is not in p, keep
       theta_j * row_p only if par(p) is empty or min par(p) >= j, by the
       argument of rule 1.  When j is in p, so that theta_j * p vanishes,
       keep it only if par(p) is empty or is [j]: for i in par(p) other
       than j, q = p / theta_i holds j, so every key of theta_j * row_q
       lies above the nominal theta_j * q, and every product in the
       expansion has a larger nominal key than theta_j * p.
    3. Across batches, an x product is skipped when p = theta_l * q for a
       theta_l of some theta batch and q a pivot of the piece one x step
       and one theta step down.  theta_l * row_q lies in the piece below
       and has least key p, so row_p = (theta_l * row_q - sum_(s > p)
       c_s row_s) / c, and x_j * row_p = (theta_l * (x_j * row_q) -
       sum_(s > p) c_s x_j * row_s) / c.  x_j * row_q lies in the piece
       one theta step below this one, so theta_l times it is a combination
       of that batch's theta products, which rule 2 keeps in the span; the
       rest are x products with larger keys.  Theta products are never
       pruned against x products, which would be circular.

    By induction over (key descending, j ascending), separately in each
    batch and with the theta batches first, every skipped product lies in
    the span of the kept ones.
    """
    if (alpha, beta) in pieces:
        return pieces[alpha, beta]
    md, m = alpha + beta, len(alpha)
    if not any(md):
        return EchelonBasis()  # the ideal has no constants
    if max(alpha, default=0) > n * (n - 1) // 2 or max(beta, default=0) > n:
        return None

    def down(*batches):
        lower = list(md)
        for i in batches:
            lower[i] -= 1
        if min(lower) < 0:
            return EchelonBasis()  # no such multidegree: nothing to skip against
        return _super_ideal_basis(n, tuple(lower[:m]), tuple(lower[m:]), pieces)

    below = []
    for i, e in enumerate(md):
        if e:
            if (piece := down(i)) is None:
                pieces[alpha, beta] = None
                return None
            below.append((i, piece))

    # The pieces two steps down read here lie one step below a piece in
    # below, so none of them is full.
    def products():
        for i, piece in below:
            two_below = set(down(i, i).pivots())
            # rule 3: for an x batch, the pivots one x step and one theta step down
            across = [(c, set(down(i, c).pivots())) for c in range(m, len(md)) if i < m and md[c]]
            rows = [
                (p, row, [l for l, q in _quotients(p, i, m) if q in two_below])
                for p, row in piece.primitive_rows()
                if not any(q in pivots for c, pivots in across for _, q in _quotients(p, c, m))
            ]
            step = tuple(int(b == i) for b in range(len(md)))
            for g in _multidegree_basis(n, step[:m], step[m:]):
                j = g.xs[i].index(1) if i < m else g.thetas[i - m][0]
                kept = [
                    (p, row)
                    for p, row, par in rows
                    if not par or (par == [j] if i >= m and j in p.thetas[i - m] else par[0] >= j)
                ]
                support = {mono for _, row in kept for mono in row}
                times = {mono: t for mono in support if (t := mono_mul(g, mono))[0] is not None}
                for _, row in kept:
                    # g is a monomial: distinct monomials have distinct
                    # products, so a row's image needs no accumulation
                    yield {t[0]: t[1] * c for mono, c in row.items() if (t := times.get(mono))}

    dim = len(_multidegree_basis(n, alpha, beta))
    basis = _span_piece(chain(_invariant_basis(n, alpha, beta), products()), dim)
    pieces[alpha, beta] = None if basis.rank == dim else basis
    return pieces[alpha, beta]


def decompose_super_coinvariants(
    n: int, alpha: tuple[int, ...], beta: tuple[int, ...]
) -> SchurExpansion:
    """Schur decomposition of one multidegree piece of the quotient by the
    ideal of positive-multidegree diagonal invariants.

    The invariants of each multidegree are orbit sums, and the ideal piece
    is built from the pieces one step below it (:func:`_super_ideal_basis`).
    A piece the ideal fills has the zero quotient, read without traces.
    A table walk (:func:`super_coinvariant_table`) lends this call its
    pieces; a standalone call keeps none.
    """
    _check_multidegree(alpha, beta)
    _check_super_quotient(n)
    slot = _reading.super_pieces
    ideal = _super_ideal_basis(n, alpha, beta, slot[1] if slot and slot[0] == n else {})
    if ideal is None:
        return SchurExpansion(n)
    standard = ideal.non_pivots(_multidegree_basis(n, alpha, beta))

    def trace(rho):
        image = permuter(perm_of_type(rho, n))
        whole = _signed_fixed_trace(rho.parts, alpha, beta)
        return quotient_trace(ideal, standard, lambda monos: map(image, monos), whole)

    return schur_from_traces(n, trace)


def super_coinvariant_table(n: int) -> dict[tuple[int, int], SchurExpansion]:
    """The nonzero quotient pieces in one x and one theta batch, keyed
    (x-degree, theta-degree), theta-degree outer, up to the degrees
    n(n-1)/2 and n past which every piece is zero.  Each is read through
    :func:`decompose_super_coinvariants` from this walk's own ideal pieces,
    recorded per thread, so each is built once and none outlives the walk."""
    _check_super_quotient(n)
    _reading.super_pieces = n, {}
    try:
        table = {}
        for b in range(n + 1):
            for a in range(n * (n - 1) // 2 + 1):
                if exp := decompose_super_coinvariants(n, (a,), (b,)):
                    table[a, b] = exp
        return table
    finally:
        _reading.super_pieces = None


# -- Grassmann presentation --------------------------------------------


def grassmann_quotient(d: int, n: int, k: int) -> GradedFrobenius:
    """Per-degree Schur decomposition for spanning d-plane configurations,
    via the batch-symmetric quotient presentation.

    The ideal in the d*n variables is generated by the top k elementary
    symmetric polynomials of all variables together with the complete
    homogeneous h_k, ..., h_{k-d+1} of each batch, and its pieces are
    spanned in the truncated ring (:func:`_ideal_piece`).  A piece's
    invariants under G = S_d^n, the within-batch symmetric groups, carry
    the S_n character, S_n permuting whole batches.

    S_n normalizes G, so a batch permutation sigma commutes with the
    projection onto the invariants, the mean over G, and its trace there
    is the mean over g in G of the trace of sigma g on the quotient piece,
    each read by :func:`~spanrep.linalg.quotient_trace`.  Fewer g are
    needed.  Write sigma g as (i, t) -> (sigma(i), g_i(t)) on variable t
    of batch i; conjugating by h in G makes g_i into h_sigma(i) g_i h_i^-1.
    Along a cycle i_0 -> ... -> i_(l-1) of sigma, h can clear every g_i
    but one, which becomes the product of the cycle's g_i, and that one
    can be moved to the cycle's first batch.  As g runs over G every tuple
    of cycle products comes up equally often, so the mean over G is the
    mean over the (d!)^(number of cycles) elements with one permutation of
    S_d on each cycle's first batch.  Conjugating by the h that is one u
    in S_d on every batch of a cycle turns that cycle's product into
    u h u^-1 and leaves the rest, so only the S_d class of each cycle
    product matters: each class is traced once, at one representative,
    and weighted by its size.  A mean that is not an integer is no
    character value, and raises RuntimeError.
    """
    _check_commuting(d, n, k, None)
    classes = [(perm_of_type(mu, d), factorial(d) // z_lambda(mu)) for mu in partitions_of(d)]

    by_degree: dict[int, SchurExpansion] = {}
    for deg, ideal, standard in _ideal_pieces(d, n, k):
        if not standard:  # generated in degree one, so every higher piece vanishes too
            break

        def trace(rho):
            sigma = perm_of_type(rho, n)
            # perm_of_type lays the cycles out on consecutive batches
            firsts = [0, *accumulate(rho.parts)][:-1]
            total = 0
            for reps in product(classes, repeat=len(firsts)):
                # variable (i, t) -> (sigma(i), t), or (sigma(i), h(t)) on a first batch
                w = [sigma[i] * d + t for i in range(n) for t in range(d)]
                for i, (h, _) in zip(firsts, reps):
                    w[i * d : (i + 1) * d] = [sigma[i] * d + t for t in h]
                total += prod(size for _, size in reps) * _permuted_trace(
                    ideal, standard, w, cycle_type(w), k, deg
                )
            mean, rest = divmod(total, factorial(d) ** len(firsts))
            if rest:
                raise RuntimeError(f"non-integer mean trace {total}/{factorial(d)}^{len(firsts)}")
            return mean

        if exp := schur_from_traces(n, trace):
            by_degree[deg] = exp
    return GradedFrobenius(n, k, by_degree)
