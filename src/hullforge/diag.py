"""Constructive diagonalization of code Gramians.

Three routes produce a generator matrix of the same code whose Gramian
is diagonal with all nonzero entries first:

* ``diagonalize_odd``       - works for every code over a field of odd
  characteristic, by repeatedly splitting off a vector of nonzero
  self-inner-product and projecting the rest onto its orthogonal
  complement inside the code.
* ``diagonalize_maximal_hull`` - works in any characteristic provided
  the hull is maximal self-orthogonal in the code; the complement of
  the hull is orthogonalized Gram-Schmidt style (divisions are safe
  because maximality makes every complement vector anisotropic).
* ``pair_diagonal_generators`` - always available; relaxes the problem
  to two generator matrices G1, G2 of the code with G1 G2^T diagonal.

The first two routes share one engine that never touches a row of
length n: it works on coefficient rows e over G, each carried with eS,
S the Gramian of G computed once per code and form, so that
<eG, fG> = <eS, f>; it forms E @ G once at the end.  The
hull, {xG : xS = 0}, and its maximality are read off the same S, and
the code keeps the generator and diagonal of `diagonalize_odd`, so
`orthogonal_basis_lcd` and the EAQECC extensions reuse one run of it
(see `codes`).

Dual-side variants are obtained by applying the same operations to the
dual code rather than through separate code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import LinearCode, _fact, _gramian, _gramian_rank, _hull_rows, _is_maximal
# hull and dot have no use here, but bench/test_bench.py reads them as
# diag.hull and diag.dot.
from .codes import hull  # noqa: F401
from .matfq import MatrixFq, _inner, _stack, check_form, pair_reduce_diagonal
from .matfq import dot  # noqa: F401


class NotLcdError(Exception):
    """Refusal: an orthogonal basis was requested for a non-LCD code."""

    def __init__(self, hull_dim: int):
        self.hull_dim = hull_dim
        super().__init__(f"code is not complementary dual: hull dimension {hull_dim} > 0")


class HullNotMaximalError(Exception):
    """Refusal: the hull is not maximal self-orthogonal in the code."""


@dataclass(frozen=True)
class DiagonalizationResult:
    """A new generator matrix of `code` whose Gramian is diagonal.

    `diagonal` lists the Gramian diagonal of new_gen, nonzero entries
    first; nonzero_count is the length of that nonzero prefix, which
    always equals k minus the hull dimension.
    """
    code: LinearCode
    new_gen: MatrixFq
    diagonal: tuple
    nonzero_count: int
    method: str


def _congruence(c: LinearCode, form: str, indices):
    """The engine of `diagonalize_odd` and `diagonalize_maximal_hull`:
    the paper's induction on the generator rows with the given indices.

    A row e stands for the codeword eG and is carried with its image eS,
    S the Gramian of G under the form, so <eG, fG> is the inner product
    of eS and f.  Each step takes as pivot v the first row of nonzero
    self-product or, in odd characteristic, the first pair i < j of
    nonzero cross product t, combined as r_i + r_j (euclidean) or
    r_i + t r_j (hermitian), which is anisotropic there.  It records v
    and <v, v>, projects the other rows onto the orthogonal complement
    of v and drops the row that became dependent, the pivot row or row
    j of a pair, so the rows stay independent with no span tracking.

    Every row left is orthogonal to the pivots, so once none is
    anisotropic, some pair has a nonzero product exactly when some image
    eS is nonzero.  The induction stops when every image is zero, the
    base case: those rows are orthogonal to the whole code.  In
    characteristic 2, which has no pair step, it stops at the first step
    with no anisotropic row.

    Returns (E, diagonal): the pivots followed by the rows left, and the
    self-products of the pivots.
    """
    spec = c.spec
    core = spec._core
    inner = _inner(spec, form)
    axpy, neg, mul, inv, pack = core.axpy, core.neg, core.mul, core.inv, core.pack
    gram = _gramian(c, form)
    rows = [(pack([int(t == i) for t in range(c.k)]), pack(gram.row(i)))
            for i in indices]
    pivots = []
    diagonal = []
    while rows:
        dependent = next((i for i, (e, image) in enumerate(rows) if inner(image, e)), None)
        if dependent is not None:
            v, v_image = rows[dependent]
        elif spec.p == 2 or not any(any(image) for _, image in rows):
            break
        else:
            m = len(rows)
            i, dependent, t = next((i, j, t) for i in range(m) for j in range(i + 1, m)
                                   if (t := inner(rows[i][1], rows[j][0])))
            s = 1 if form == "euclidean" else t
            (e, image), (f, f_image) = rows[i], rows[dependent]
            v, v_image = axpy(e, s, f), axpy(image, s, f_image)
        nv = inner(v_image, v)
        pivots.append(v)
        diagonal.append(nv)
        inv_nv = inv(nv)
        projected = []
        for i, (e, image) in enumerate(rows):
            if i != dependent:
                coef = neg(mul(inner(image, v), inv_nv))
                if coef:
                    e, image = axpy(e, coef, v), axpy(image, coef, v_image)
                projected.append((e, image))
        rows = projected
    return pivots + [e for e, _ in rows], diagonal


def _diagonal_generator(c: LinearCode, coefficients, diagonal):
    """(E @ G, the diagonal, its nonzero count) for E the coefficient
    rows; rows past the diagonal given have self-product zero."""
    new_gen = _stack(c.spec, coefficients, c.k) @ c.gen
    zeros = (0,) * (c.k - len(diagonal))
    return new_gen, tuple(diagonal) + zeros, len(diagonal)


def diagonalize_odd(c: LinearCode, form: str = "euclidean") -> DiagonalizationResult:
    """Diagonal-Gramian generator matrix over odd characteristic.

    Repeatedly takes an anisotropic v, records <v, v> on the diagonal,
    and replaces the working rows with their projections onto
    {w : <w, v> = 0}, less the one that became dependent; the loop ends
    when every row left is orthogonal to the whole code: those rows span
    the hull and contribute the zero tail of the diagonal.  The first
    anisotropic v is the first generator row of nonzero self-product
    or, failing that, the first isotropic pair u, w with nonzero cross
    product, combined into u + w (euclidean) or u + <u, w>_H w
    (hermitian), either of which is anisotropic in odd characteristic;
    it is row 0 of the new generator.
    """
    check_form(c.spec, form)
    if c.spec.p == 2:
        raise ValueError("this construction needs odd characteristic; "
                         "2 = 0 would break it")

    def compute():
        rows, diagonal = _congruence(c, form, range(c.k))
        return _diagonal_generator(c, rows, diagonal)
    # The result itself is not kept: its `code` field would make a cycle.
    return DiagonalizationResult(c, *_fact(c, "odd", form, compute), "odd-induction")


def orthogonal_basis_lcd(c: LinearCode, form: str = "euclidean"):
    """Pairwise-orthogonal anisotropic basis of an LCD code.

    Raises NotLcdError carrying the hull dimension when the code is not
    complementary dual; such a basis cannot exist then.
    """
    result = diagonalize_odd(c, form)
    if result.nonzero_count < c.k:
        raise NotLcdError(c.k - result.nonzero_count)
    return result.new_gen.row_list()


def diagonalize_maximal_hull(c: LinearCode, form: str = "euclidean") -> DiagonalizationResult:
    """Diagonal-Gramian generator when the hull is maximal in the code.

    The generator is a Gram-Schmidt orthogonalization of a complement of
    the hull followed by the hull basis; maximality guarantees every
    complement vector has nonzero self-product, so each division is
    defined.  The complement is the greedy one: the generator rows, in
    order, that are independent of the hull and of the rows taken before
    them.  This is the route available in characteristic 2.

    Maximality is decided from rank S alone, so a refusal forms no hull
    rows.  The complement and the hull rows are the two halves of the
    one elimination of S^T that `hull` keeps, so this route runs no
    elimination of its own once the hull is known.
    """
    check_form(c.spec, form)
    if not _is_maximal(_gramian(c, form), _gramian_rank(c, form), form):
        raise HullNotMaximalError(
            "hull is not maximal self-orthogonal in the code; "
            "no diagonal Gramian is certified")
    # The pivot columns of S^T, kept with the hull rows, index the
    # complement: see `codes._hull_rows`.
    hull_rows, complement = _hull_rows(c, form)
    rows, diagonal = _congruence(c, form, complement)
    if len(diagonal) < len(rows):
        raise RuntimeError("complement vector became isotropic despite "
                           "a maximal hull; this should be impossible")
    return DiagonalizationResult(
        c, *_diagonal_generator(c, rows + hull_rows.row_list(), diagonal), "maximal-hull-gs")


def pair_diagonal_generators(c: LinearCode, form: str = "euclidean"):
    """Two generator matrices of C with a diagonal cross-Gramian.

    Returns (G1, G2, diagonal) with G1 G2^T (euclidean) or G1 G2^dagger
    (hermitian) equal to diag(diagonal), nonzero entries first; the
    number of nonzeros is k minus the hull dimension.  Available in any
    characteristic.
    """
    spec = c.spec
    check_form(spec, form)
    p, q, d = pair_reduce_diagonal(_gramian(c, form))
    g1 = p @ c.gen
    right = q if form == "euclidean" else q.conjugate()
    g2 = right @ c.gen
    diagonal = tuple(d[i, i] for i in range(d.rows))
    return g1, g2, diagonal
