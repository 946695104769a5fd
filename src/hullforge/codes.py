"""Linear codes over GF(p^m): duals, hulls, hull predicates, distances.

A LinearCode is held as its canonical generator matrix (reduced row
echelon form with zero rows removed), so two equal codes compare equal.
The zero code is never a LinearCode; operations that can produce it
(duals of the full space, hulls of complementary-dual codes) return
None instead.  The hull is read off the k x k Gramian S = G G^T
(G G^dagger, hermitian) of the generator G as {xG : xS = 0}.

G is in reduced row echelon form, so G = [I | A] up to a column
permutation, with A the k x (n - k) block on its non-pivot columns,
and the kernel basis H of `matfq.kernel` is [-B | I] for B = A^T
(conj(A)^T, hermitian).  Both Gramians come from this free block:
S = I + A B, and H H^T (H H^dagger) = I + B A, which `hull` ranks
as its independent check.  Their products run over n - k and k, not
n, and the hull path forms no kernel of G.

Every hull fact of a code is a fact of S, so a LinearCode keeps, per
form and from first use, S itself, rank S, the hull's coefficient rows
and `diag.diagonalize_odd`'s generator and diagonal: asking a code
several questions forms S once.  The hull's rows come from one
Gauss-Jordan elimination of S^T, and the code keeps its pivot columns
with them: they index the greedy complement of the hull, which
`diag.diagonalize_maximal_hull` reads, so S is reduced once per form.
rank S comes from `S.rank` when it is asked for before the hull; once
`hull` has found the hull's rows, it is the number of those pivots and
S is not ranked again.  (The acceptance test of the Gramian rank law,
`test_criterion_01_gramian_rank_law`, ranks S on its own.)  A code
also keeps its exact minimum distance, under no form, from the first
`min_distance` call that the budget admits; the budget is checked on
every call.  The kept facts are matrices, ints and tuples, never
objects that point back at the code, and they take no part in
equality, hashing or repr.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .gf import FieldSpec
from .matfq import MatrixFq, _kernel, _matrix, _stack, check_form

# Cap on q^k for any codeword enumeration; shared by the brute-force
# reference module.
DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(Exception):
    """An enumeration would visit more codewords than the budget allows."""

    def __init__(self, needed: int, budget: int, what: str = "enumeration"):
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what} needs {needed} codewords, budget is {budget}")


def resolve_budget(budget) -> int:
    if budget is None:
        return DEFAULT_BUDGET
    if type(budget) is not int or budget < 1:
        raise ValueError(f"bad enumeration budget {budget!r}")
    return budget


def _check_budget(c: LinearCode, budget, what: str) -> None:
    """Refuse a walk over the q^k codewords of c that the budget does
    not admit."""
    cap = resolve_budget(budget)
    total = c.spec.q ** c.k
    if total > cap:
        raise BudgetExceeded(total, cap, what)


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] code over spec, generated by the rows of gen (canonical rref).

    _facts holds what the module functions read off the Gramian of gen,
    and the minimum distance, keyed by (name, form) and filled on first
    use (the distance under form None); it is invisible to
    ==, hash and repr, so a code that has answered questions equals a
    fresh one.
    """
    spec: FieldSpec
    n: int
    k: int
    gen: MatrixFq
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}]_{self.spec.q})"


@dataclass(frozen=True)
class HullReport:
    """The hull of a code together with the Gramian-rank cross-check.

    ell is the hull dimension, hull None when ell == 0, and gramian_rank_g
    = rank(G G^T) = k - ell.  consistent checks rank(H H^T) == n - k - ell
    for a generator H of the dual (conjugate transposes for the hermitian form).
    """
    form: str
    hull: LinearCode | None
    ell: int
    gramian_rank_g: int
    gramian_rank_h: int
    consistent: bool


def make_code(spec: FieldSpec, g: MatrixFq) -> LinearCode:
    """Canonicalize a generator matrix into a LinearCode."""
    if g.spec != spec:
        raise ValueError("generator matrix belongs to a different field")
    if g.cols == 0:
        raise ValueError("codes of length 0 are not supported")
    r, _, rank = g.rref()
    if rank == 0:
        raise ValueError("zero generator matrix: the zero code is not a LinearCode")
    gen = _matrix(spec, rank, g.cols, r.entries[:rank * g.cols])
    return LinearCode(spec, g.cols, rank, gen)


def dual(c: LinearCode, form: str = "euclidean") -> LinearCode | None:
    """The dual code under the given form, or None for the zero dual.

    The euclidean dual is the kernel of the generator matrix.  The
    hermitian dual is the kernel of the entrywise-conjugated generator,
    which is exactly the set of v with <c, v>_H = 0 for every codeword c.
    """
    ker = _parity_rows(c, form)
    return make_code(c.spec, ker) if ker.rows else None


def _parity_rows(c: LinearCode, form: str) -> MatrixFq:
    """A basis of the dual, not canonical: the kernel of G (of the
    conjugated G, hermitian); it has no rows when the dual is zero."""
    check_form(c.spec, form)
    g = c.gen if form == "euclidean" else c.gen.conjugate()
    return g.kernel()


def _fact(c: LinearCode, name: str, form: str, compute):
    """The fact `name` of c under form: compute() on first use, then
    the stored value."""
    key = (name, form)
    facts = c._facts
    if key not in facts:
        facts[key] = compute()
    return facts[key]


def _free_block(c: LinearCode, form: str):
    """(A, B) for G = [I | A] up to a column permutation: A is the k x (n-k)
    block of the canonical G on its non-pivot columns, and B = A^T
    (conj(A)^T, hermitian).  Then S = I + A B, and the kernel basis
    H = [-B | I] of `_parity_rows` has H H^T (H H^dagger) = I + B A."""
    check_form(c.spec, form)
    n, e = c.n, c.gen.entries
    pivots = {next(j for j, x in enumerate(row) if x) for row in c.gen.row_list()}
    b = _stack(c.spec, [e[j::n] for j in range(n) if j not in pivots], c.k)
    a = b.transpose()
    return a, b if form == "euclidean" else b.conjugate()


def _plus_identity(s: MatrixFq) -> MatrixFq:
    """I + s, for a square s."""
    add, e = s.spec._core.add, list(s.entries)
    for i in range(0, len(e), s.rows + 1):
        e[i] = add(e[i], 1)
    return _matrix(s.spec, s.rows, s.cols, tuple(e))


def _gramian(c: LinearCode, form: str) -> MatrixFq:
    """S = G G^T (G G^dagger, hermitian), formed once per code and form
    from the free block, as I + A B."""
    def compute():
        a, b = _free_block(c, form)
        return _plus_identity(a @ b)
    return _fact(c, "gramian", form, compute)


def _gramian_rank(c: LinearCode, form: str) -> int:
    """rank S, which is k minus the hull dimension."""
    return _fact(c, "rank", form, lambda: _gramian(c, form).rank)


def _hull_rows(c: LinearCode, form: str):
    """(X, complement) from one Gauss-Jordan elimination of S^T.

    X is the hull's coefficient rows over G, in rref: the kernel of S^T,
    the x with xS = 0.  complement is the elimination's pivot columns:
    the indices of the rows of S independent of the rows of S before
    them, which are the generator rows independent of the hull and of
    the rows before them, since xS = 0 exactly on the hull's x.  So
    they index the greedy complement of the hull, and their number is
    rank S, which is stored with them.
    """
    def compute():
        r, pivots, rank = _gramian(c, form).transpose().rref()
        c._facts.setdefault(("rank", form), rank)
        return _kernel(r, pivots).rref()[0], pivots
    return _fact(c, "hull_rows", form, compute)


def hull(c: LinearCode, form: str = "euclidean") -> HullReport:
    """The hull C intersect dual(C), read off the Gramian S: {xG : xS = 0}."""
    check_form(c.spec, form)
    x = _hull_rows(c, form)[0]
    ell = x.rows
    # G is in rref, so X @ G is too: the hull's canonical generator.
    hull_code = LinearCode(c.spec, c.n, ell, x @ c.gen) if ell else None
    parity_gramian_rank = _dual_gramian_rank(c, form)
    return HullReport(form, hull_code, ell, c.k - ell, parity_gramian_rank,
                      parity_gramian_rank == c.n - c.k - ell)


def _dual_gramian_rank(c: LinearCode, form: str) -> int:
    """rank(H H^T) (H H^dagger, hermitian) for a generator H of the dual;
    0 when the dual is zero.  It equals n - k - ell.

    The rank does not depend on the basis: another generator is EH with
    E invertible, and (EH)(EH)^dagger = E (H H^dagger) E^dagger.  So H is
    the kernel basis of `_parity_rows`, with no elimination to the
    canonical dual.  It is formed afresh on every call, never stored:
    `hull` checks it against the stored rank of S.
    """
    return _dual_gramian(c, form).rank


def _dual_gramian(c: LinearCode, form: str) -> MatrixFq:
    """H H^T (H H^dagger, hermitian) for the kernel basis H = [-B | I] of
    `_parity_rows`: I + B A off the free block, so no kernel is formed
    and the product runs over k, not n."""
    a, b = _free_block(c, form)
    return _plus_identity(b @ a)


def hull_dimension_via_gramian(c: LinearCode, form: str = "euclidean") -> int:
    """k - rank(G G^T), which equals the hull dimension."""
    check_form(c.spec, form)
    return c.k - _gramian_rank(c, form)


def is_self_orthogonal(c: LinearCode, form: str = "euclidean") -> bool:
    """Whether C is contained in its dual, i.e. the Gramian is zero."""
    return _gramian(c, form).is_zero()


def is_lcd(c: LinearCode, form: str = "euclidean") -> bool:
    """Whether C meets its dual trivially, i.e. the Gramian is non-singular."""
    return _gramian_rank(c, form) == c.k


def is_hull_maximal_so_in(c: LinearCode, form: str = "euclidean") -> bool:
    """Whether hull(C) is maximal self-orthogonal in C.

    hull(C) is also the hull of the dual, so `is_hull_maximal_so_in(
    dual(c, form), form)` asks whether it is maximal in a nonzero dual.

    The hull is maximal exactly when the form that C induces on C/hull
    is anisotropic.  That form is nondegenerate of dimension r = rank S,
    where S = G G^T (G G^dagger for the hermitian form), and over a
    finite field it is anisotropic exactly when r <= 1, or when the form
    is euclidean, q is odd, r = 2 and -det of the first nonsingular 2x2
    principal block of S is a non-square.  Every other form has an
    isotropic vector: a hermitian form of dimension 2 or more (the norm
    onto the subfield is onto), a euclidean one in characteristic 2 of
    dimension 2 or more (<x, x> is the square of the coordinate sum, so
    additive) and any form of dimension 3 or more in odd characteristic
    (Chevalley-Warning).  See Lidl and Niederreiter, Finite Fields,
    chapter 6.
    """
    check_form(c.spec, form)
    return _is_maximal(_gramian(c, form), _gramian_rank(c, form), form)


def _is_maximal(s: MatrixFq, r: int, form: str) -> bool:
    """`is_hull_maximal_so_in` on the Gramian s, of rank r, of a generator."""
    if r <= 1:
        return True
    spec = s.spec
    if r > 2 or form == "hermitian" or spec.p == 2:
        return False
    mul, k = spec.mul, s.rows
    det = next(d for i in range(k) for j in range(i + 1, k)
               if (d := spec.sub(mul(s[i, i], s[j, j]), mul(s[i, j], s[i, j]))))
    return not spec.is_square(spec.neg(det))


def min_distance(c: LinearCode, budget=None) -> int:
    """Exact minimum Hamming weight by full message-space enumeration.

    The refusal is decided on every call, against this call's budget;
    the walk runs once per code, and later calls read its answer."""
    _check_budget(c, budget, "minimum distance")
    return _fact(c, "distance", None, lambda: _min_weight(c))


def _min_weight(c: LinearCode) -> int:
    """The least weight of a nonzero codeword, over one codeword walk."""
    stream = _iter_codewords(c.spec, c.gen.row_list())
    next(stream)                       # zero word
    best = n = c.n
    for w in stream:
        weight = n - w.count(0)
        if weight < best:
            best = weight
            if best == 1:
                break
    return best


def random_code(spec: FieldSpec, n: int, k: int, seed: int) -> LinearCode:
    """A deterministic pseudo-random [n, k] code; resamples until full rank."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return make_code(spec, _full_rank(spec, k, n, random.Random(seed)))


def random_invertible(spec: FieldSpec, n: int, rng: random.Random) -> MatrixFq:
    """A random invertible n x n matrix, resampled until non-singular."""
    return _full_rank(spec, n, n, rng)


def _full_rank(spec: FieldSpec, rows: int, cols: int, rng: random.Random) -> MatrixFq:
    """A rows x cols matrix of rank rows: entries drawn by rng.randrange(q)
    row-major, the whole matrix drawn again until its rank is full."""
    q = spec.q
    while True:
        m = _matrix(spec, rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)))
        if m.rank == rows:
            return m


# ----------------------------------------------------------------------
# Streaming codeword enumeration
# ----------------------------------------------------------------------

def _iter_codewords(spec: FieldSpec, rows):
    """Yield every codeword of the span of rows exactly once.

    The walk is a modular p-ary Gray code over the GF(p)-basis
    x^s g_t (s < m) of the span, its k m rows built once with the core's
    `scale` (the code p^s is x^s).  Step i adds basis row v_p(i), the
    number of trailing zero base-p digits of i, with one `add_into`: it
    adds 1 to one GF(p) coordinate of the message, so the q^k messages
    come once each, zero first, in Gray order.  The yielded list is a
    reused internal buffer: read it, never keep it.
    """
    p, core = spec.p, spec._core
    add_into = core.add_into
    basis = [core.scale(p ** s, core.pack(row)) for row in rows for s in range(spec.m)]
    c = [0] * len(rows[0])
    yield c
    for i in range(1, p ** len(basis)):
        t = 0
        while not i % p:
            i //= p
            t += 1
        add_into(c, basis[t])
        yield c
