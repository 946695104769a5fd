"""Brute-force reference implementations for cross-checking.

Everything here decides questions by walking codewords and taking
explicit inner products, deliberately not reusing the elimination-based
paths in matfq/codes.  These routines may be orders of magnitude slower
than the main paths; they exist to be obviously correct.

The hull and maximality referees share one odometer, `_walk`, which
steps a buffer with the core's `add_into` and nothing else.  The naive
product walk, `enumerate_codewords`, stays the reference that both
`_walk` and the distance walk of `codes` are held to.
"""

from __future__ import annotations

from itertools import product

from .codes import LinearCode, _check_budget
from .gf import FieldSpec
from .matfq import check_form


def _form_dot(spec: FieldSpec, u, v, form: str) -> int:
    # Local re-implementation on purpose; see module docstring.
    add, mul = spec.add, spec.mul
    acc = 0
    if form == "euclidean":
        for x, y in zip(u, v):
            if x and y:
                acc = add(acc, mul(x, y))
    else:
        conj = spec.conjugate
        for x, y in zip(u, v):
            if x and y:
                acc = add(acc, mul(x, conj(y)))
    return acc


def enumerate_codewords(c: LinearCode, budget=None):
    """Yield all q^k codewords, messages in ascending base-q order
    (first generator row most significant)."""
    _check_budget(c, budget, "codeword enumeration")
    spec = c.spec
    add, mul = spec.add, spec.mul
    rows = c.gen.row_list()
    n = c.n
    for message in product(range(spec.q), repeat=c.k):
        w = [0] * n
        for digit, row in zip(message, rows):
            if digit:
                for t in range(n):
                    if row[t]:
                        w[t] = add(w[t], mul(digit, row[t]))
        yield tuple(w)


def _walk(spec: FieldSpec, rows):
    """Yield every vector of the span of rows exactly once, messages in
    ascending base-q order (first row most significant).

    The yielded list is one reused buffer: read it, never keep it.
    Moving row r's digit from v to v+1 mod q adds s x to each entry x of
    the row, where s = (v+1 mod q) - v; that is (v+1)x - vx, or -(q-1)x
    when the digit wraps.  The steps s take few distinct values, so each
    row is scaled once per distinct step.  Each move is one `add_into`
    of the core, and the walk uses no other core row operation.
    """
    q, k, mul, sub = spec.q, len(rows), spec.mul, spec.sub
    steps = [sub((v + 1) % q, v) for v in range(q)]
    scaled = [{s: tuple(mul(s, x) for x in row) for s in set(steps)} for row in rows]
    add_into = spec._core.add_into
    buf = [0] * len(rows[0])
    yield buf
    digits = [0] * k                  # digits[j] drives row k-1-j
    for _ in range(q ** k - 1):
        j = 0
        while digits[j] == q - 1:
            digits[j] = 0
            add_into(buf, scaled[k - 1 - j][steps[q - 1]])
            j += 1
        add_into(buf, scaled[k - 1 - j][steps[digits[j]]])
        digits[j] += 1
        yield buf


def _hull_walk(c: LinearCode, form: str):
    """Yield (word, in_hull) for every codeword of c, in the order of
    `enumerate_codewords`.

    The walk runs over the generator rows, each extended by its inner
    products with every generator row.  The form is linear in its first
    argument, so the extended tail of a word w holds <w, g_j> for every
    row g_j, and w is in the hull exactly when that tail is zero.
    """
    spec, n, rows = c.spec, c.n, c.gen.row_list()
    extended = [row + tuple(_form_dot(spec, row, g, form) for g in rows)
                for row in rows]
    for buf in _walk(spec, extended):
        yield buf[:n], not any(buf[n:])


def hull_by_enumeration(c: LinearCode, form: str = "euclidean", budget=None):
    """The hull as an explicit codeword set, plus its dimension.

    Walks every codeword of C and keeps those orthogonal to every
    generator row under the requested form.  The result is checked to
    be a subspace before the dimension is read off its size.
    """
    check_form(c.spec, form)
    _check_budget(c, budget, "hull enumeration")
    members = frozenset(tuple(w) for w, in_hull in _hull_walk(c, form) if in_hull)
    return members, _subspace_dimension(c.spec, members, c.n)


def _subspace_dimension(spec: FieldSpec, members, n: int) -> int:
    """Dimension of a set of distinct vectors, verified to be a subspace.

    Each member is reduced once against the echelon basis built so far:
    it either reduces to zero, and so lies in that span, or it joins the
    basis.  Every member therefore lies in the span of the final basis,
    which holds q^dim vectors, and distinct members are closed under
    addition and scaling exactly when they fill it, that is when there
    are q^dim of them.  So the count is the whole closure test.
    """
    sub, mul, inv = spec.sub, spec.mul, spec.inv
    echelon = []                      # (pivot position, reduced vector)
    for w in members:
        vec = list(w)
        for pos, basis_vec in echelon:
            f = vec[pos]
            if f:
                for t in range(pos, n):
                    if basis_vec[t]:
                        vec[t] = sub(vec[t], mul(f, basis_vec[t]))
        for pos in range(n):
            if vec[pos]:
                piv_inv = inv(vec[pos])
                echelon.append((pos, [mul(piv_inv, x) for x in vec]))
                echelon.sort(key=lambda e: e[0])
                break

    dim = len(echelon)
    if len(members) != spec.q ** dim:
        raise RuntimeError("enumerated hull is not closed: "
                           f"{len(members)} words but rank {dim}")
    return dim


def min_distance_by_enumeration(c: LinearCode, budget=None) -> int:
    """Minimum weight of the nonzero codewords, taken as they stream past,
    so memory stays O(n) whatever q^k is."""
    _check_budget(c, budget, "distance enumeration")
    return min(wt for w in enumerate_codewords(c, budget)
               if (wt := sum(1 for x in w if x)))


def maximal_so_by_enumeration(c: LinearCode, form: str = "euclidean",
                              budget=None) -> bool:
    """Whether no codeword outside the hull is self-orthogonal.

    Because the hull is orthogonal to all of C this is exactly the
    statement that the hull is maximal self-orthogonal in C.  One walk
    answers it: each word carries its own hull flag, so no hull set is
    kept, and memory does not grow with q^k.
    """
    check_form(c.spec, form)
    _check_budget(c, budget, "maximality enumeration")
    return all(in_hull or _form_dot(c.spec, w, w, form) != 0
               for w, in_hull in _hull_walk(c, form))
