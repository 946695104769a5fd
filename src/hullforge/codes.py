"""Linear codes over GF(p^m): duals, hulls, hull predicates, distances.

A LinearCode is held as its canonical generator matrix (reduced row
echelon form with zero rows removed), so two equal codes compare equal.
The zero code is never a LinearCode; operations that can produce it
(duals of the full space, hulls of complementary-dual codes) return
None instead.  The hull is read off the k x k Gramian S = G G^T
(G G^dagger, hermitian) of the generator G as {xG : xS = 0}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gf import FieldSpec
from .matfq import MatrixFq, _matrix, check_form

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
    max_codewords = getattr(budget, "max_codewords", budget)
    if not isinstance(max_codewords, int) or max_codewords < 1:
        raise ValueError(f"bad enumeration budget {budget!r}")
    return max_codewords


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] code over spec, generated by the rows of gen (canonical rref)."""
    spec: FieldSpec
    n: int
    k: int
    gen: MatrixFq

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}]_{self.spec.q})"


@dataclass(frozen=True)
class HullReport:
    """The hull of a code together with the Gramian-rank cross-check.

    ell is the hull dimension, hull None when ell == 0, and gramian_rank_g
    = rank(G G^T) = k - ell.  consistent checks rank(H H^T) == n - k - ell
    for the dual's generator H (conjugate transposes for the hermitian form).
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
    check_form(c.spec, form)
    g = c.gen if form == "euclidean" else c.gen.conjugate()
    ker = g.kernel()
    if ker.rows == 0:
        return None
    return make_code(c.spec, ker)


def hull(c: LinearCode, form: str = "euclidean") -> HullReport:
    """The hull C intersect dual(C), read off the Gramian S: {xG : xS = 0}."""
    return _hull_and_dual(c, form)[0]


def _hull_rows(s: MatrixFq) -> MatrixFq:
    """The hull's coefficient rows over G, in rref: the x with xS = 0."""
    return s.transpose().kernel().rref()[0]


def _hull_and_dual(c: LinearCode, form: str):
    """`hull(c, form)` together with the dual code it computed on the way
    (None for the zero dual), for callers that need both."""
    check_form(c.spec, form)
    x = _hull_rows(c.gen.gramian(form))
    ell = x.rows
    # G is in rref, so X @ G is too: the hull's canonical generator.
    hull_code = LinearCode(c.spec, c.n, ell, x @ c.gen) if ell else None
    d = dual(c, form)
    parity_gramian_rank = 0 if d is None else d.gen.gramian(form).rank
    return HullReport(form, hull_code, ell, c.k - ell, parity_gramian_rank,
                      parity_gramian_rank == c.n - c.k - ell), d


def hull_dimension_via_gramian(c: LinearCode, form: str = "euclidean") -> int:
    """k - rank(G G^T), which equals the hull dimension."""
    check_form(c.spec, form)
    return c.k - c.gen.gramian(form).rank


def is_self_orthogonal(c: LinearCode, form: str = "euclidean") -> bool:
    """Whether C is contained in its dual, i.e. the Gramian is zero."""
    return c.gen.gramian(form).is_zero()


def is_lcd(c: LinearCode, form: str = "euclidean") -> bool:
    """Whether C meets its dual trivially, i.e. the Gramian is non-singular."""
    return c.gen.gramian(form).rank == c.k


def is_hull_maximal_so_in(c: LinearCode, form: str = "euclidean",
                          side: str = "code") -> bool:
    """Whether hull(C) is maximal self-orthogonal in C (side="code") or
    in the dual (side="dual").

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
    if side not in ("code", "dual"):
        raise ValueError(f"side must be 'code' or 'dual', got {side!r}")
    check_form(c.spec, form)
    if side == "dual":
        c = dual(c, form)
        if c is None:
            return True
    s = c.gen.gramian(form)
    return _is_maximal(s, s.rank, form)


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
    """Exact minimum Hamming weight by full message-space enumeration."""
    cap = resolve_budget(budget)
    total = c.spec.q ** c.k
    if total > cap:
        raise BudgetExceeded(total, cap, "minimum distance")
    stream = _iter_codewords(c.spec, c.gen.row_list())
    next(stream)                       # zero word
    best = c.n
    for w in stream:
        weight = 0
        for x in w:
            if x:
                weight += 1
        if weight < best:
            best = weight
            if best == 1:
                break
    return best


def random_code(spec: FieldSpec, n: int, k: int, seed: int) -> LinearCode:
    """A deterministic pseudo-random [n, k] code; resamples until full rank."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    q = spec.q
    while True:
        m = _matrix(spec, k, n, tuple(rng.randrange(q) for _ in range(k * n)))
        if m.rank == k:
            return make_code(spec, m)


def random_invertible(spec: FieldSpec, n: int, rng: random.Random) -> MatrixFq:
    """A random invertible n x n matrix, resampled until non-singular."""
    q = spec.q
    while True:
        m = _matrix(spec, n, n, tuple(rng.randrange(q) for _ in range(n * n)))
        if m.rank == n:
            return m


# ----------------------------------------------------------------------
# Streaming codeword enumeration
# ----------------------------------------------------------------------

def _iter_codewords(spec: FieldSpec, rows):
    """Yield every codeword of the span of rows exactly once.

    Messages run in ascending base-q order (first row most significant).
    The yielded list is a reused internal buffer: read it, never keep it.
    Each step applies the one message-digit change as a precomputed
    scaled-row delta, so the amortized cost per codeword is O(n).
    """
    k = len(rows)
    if k == 0:
        yield []
        return
    n = len(rows[0])
    q = spec.q
    c = [0] * n
    yield c

    mul, sub = spec.mul, spec.sub
    scaled = [[tuple(mul(v, x) for x in row) for v in range(q)] for row in rows]
    # delta[r][v]: change to c when row r's message digit moves v -> v+1;
    # roll[r]: change when it wraps q-1 -> 0.
    delta = [[tuple(sub(s[v + 1][t], s[v][t]) for t in range(n))
              for v in range(q - 1)] for s in scaled]
    roll = [tuple(sub(0, s[q - 1][t]) for t in range(n)) for s in scaled]

    add_t = spec.add_table
    digits = [0] * k                  # digits[j] drives row k-1-j
    for _ in range(q ** k - 1):
        j = 0
        while digits[j] == q - 1:
            digits[j] = 0
            dr = roll[k - 1 - j]
            if add_t is not None:
                for t in range(n):
                    x = dr[t]
                    if x:
                        c[t] = add_t[c[t]][x]
            else:
                for t in range(n):
                    if dr[t]:
                        c[t] = spec.add(c[t], dr[t])
            j += 1
        dr = delta[k - 1 - j][digits[j]]
        digits[j] += 1
        if add_t is not None:
            for t in range(n):
                x = dr[t]
                if x:
                    c[t] = add_t[c[t]][x]
        else:
            for t in range(n):
                if dr[t]:
                    c[t] = spec.add(c[t], dr[t])
        yield c

