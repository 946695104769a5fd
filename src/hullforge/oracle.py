"""Brute-force reference implementations for cross-checking.

Everything here decides questions by walking codewords and taking
explicit inner products, deliberately not reusing the elimination-based
paths in matfq/codes.  These routines may be orders of magnitude slower
than the main paths; they exist to be obviously correct.
"""

from __future__ import annotations

from itertools import product

from .codes import BudgetExceeded, LinearCode, resolve_budget
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


def _check_budget(c: LinearCode, budget, what: str) -> int:
    cap = resolve_budget(budget)
    total = c.spec.q ** c.k
    if total > cap:
        raise BudgetExceeded(total, cap, what)
    return total


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


def hull_by_enumeration(c: LinearCode, form: str = "euclidean", budget=None):
    """The hull as an explicit codeword set, plus its dimension.

    Walks every codeword of C and keeps those orthogonal to every
    generator row under the requested form.  The result is checked to
    be a subspace before the dimension is read off its size.
    """
    check_form(c.spec, form)
    _check_budget(c, budget, "hull enumeration")
    spec = c.spec
    q = spec.q
    rows = c.gen.row_list()
    k, n = c.k, c.n

    # Inner products of generator rows, used to update the constraint
    # values incrementally as the message odometer ticks.
    t_mat = [[_form_dot(spec, ri, rj, form) for rj in rows] for ri in rows]

    mul, sub = spec.mul, spec.sub
    scaled_rows = [[tuple(mul(v, x) for x in row) for v in range(q)]
                   for row in rows]
    delta_rows = [[tuple(sub(s[v + 1][t], s[v][t]) for t in range(n))
                   for v in range(q - 1)] for s in scaled_rows]
    roll_rows = [tuple(sub(0, s[q - 1][t]) for t in range(n))
                 for s in scaled_rows]
    dcodes = [sub(v + 1, v) for v in range(q - 1)]
    rollcode = sub(0, q - 1)
    delta_t = [[tuple(mul(d, t_mat[i][j]) for j in range(k)) for d in dcodes]
               for i in range(k)]
    roll_t = [tuple(mul(rollcode, t_mat[i][j]) for j in range(k))
              for i in range(k)]

    add_into = spec._core.add_into
    c_buf = [0] * n
    s_buf = [0] * k
    members = [tuple(c_buf)]          # the zero word is always in the hull
    digits = [0] * k
    for _ in range(q ** k - 1):
        j = 0
        while digits[j] == q - 1:
            digits[j] = 0
            i = k - 1 - j
            add_into(c_buf, roll_rows[i])
            add_into(s_buf, roll_t[i])
            j += 1
        i = k - 1 - j
        v = digits[j]
        digits[j] += 1
        add_into(c_buf, delta_rows[i][v])
        add_into(s_buf, delta_t[i][v])
        if not any(s_buf):
            members.append(tuple(c_buf))

    ell = _subspace_dimension(spec, members, n)
    return frozenset(members), ell


def _subspace_dimension(spec: FieldSpec, members, n: int) -> int:
    """Dimension of a codeword set, verifying it really is a subspace."""
    sub, mul, inv = spec.sub, spec.mul, spec.inv
    echelon = []                      # (pivot position, reduced vector)

    def reduce(vec):
        vec = list(vec)
        for pos, basis_vec in echelon:
            f = vec[pos]
            if f:
                for t in range(pos, n):
                    if basis_vec[t]:
                        vec[t] = sub(vec[t], mul(f, basis_vec[t]))
        return vec

    for w in members:
        vec = reduce(w)
        for pos in range(n):
            if vec[pos]:
                piv_inv = inv(vec[pos])
                vec = [mul(piv_inv, x) for x in vec]
                echelon.append((pos, vec))
                echelon.sort(key=lambda e: e[0])
                break

    dim = len(echelon)
    if len(members) != spec.q ** dim:
        raise RuntimeError("enumerated hull is not closed: "
                           f"{len(members)} words but rank {dim}")
    for w in members:
        if any(reduce(w)):
            raise RuntimeError("enumerated hull is not closed under addition")
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
    statement that the hull is maximal self-orthogonal in C.
    """
    check_form(c.spec, form)
    _check_budget(c, budget, "maximality enumeration")
    hull_set, _ = hull_by_enumeration(c, form, budget)
    spec = c.spec
    for w in enumerate_codewords(c, budget):
        if _form_dot(spec, w, w, form) == 0 and w not in hull_set:
            return False
    return True
