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

The first two routes, and `find_anisotropic`, share one engine that
never touches a row of length n: it works on coefficient rows e over
G, each carried with eS, S the Gramian of G computed once per code and
form, so that <eG, fG> = <eS, f>; it forms E @ G once at the end.  The
hull, {xG : xS = 0}, and its maximality are read off the same S, and
the code keeps the generator and diagonal of `diagonalize_odd`, so
`find_anisotropic`, `orthogonal_basis_lcd` and the EAQECC extensions
reuse one run of it (see `codes`).

Dual-side variants are obtained by applying the same operations to the
dual code rather than through separate code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import LinearCode, _fact, _gramian, _hull_rows, _is_maximal
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


def _congruence(c: LinearCode, form: str, indices, pairs: bool):
    """The engine of `diagonalize_odd` and `diagonalize_maximal_hull`.

    Works on the coefficient rows of the generator rows with the given
    indices: a row e stands for the codeword eG and is carried with its
    image eS, S the Gramian of G under the form, so <eG, fG> is the
    inner product of eS and f.  Each step takes as pivot v the first row
    of nonzero self-product or, failing that and when pairs is true, the
    first pair i < j of nonzero cross product t, combined as r_i + r_j
    (euclidean) or r_i + t r_j (hermitian), both anisotropic in odd
    characteristic.  It records v and <v, v>, projects the other rows
    onto the orthogonal complement of v and drops the row that became
    dependent, the pivot row or row j of a pair, so the rows stay
    independent with no span tracking.

    Returns (E, diagonal): the pivots followed by the rows left when no
    pivot is found, and the self-products of the pivots.
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
        else:
            pair = next(((i, j, t) for i in range(len(rows)) for j in range(i + 1, len(rows))
                         if (t := inner(rows[i][1], rows[j][0]))), None) if pairs else None
            if pair is None:
                break
            i, dependent, t = pair
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


def find_anisotropic(c: LinearCode, form: str = "euclidean"):
    """A codeword v with <v, v> != 0, or None when C is self-orthogonal.

    Deterministic: scans generator rows by index, then row pairs
    lexicographically, combining an isotropic pair u, w with nonzero
    cross product into u + w (euclidean) or u + <u, w>_H w (hermitian),
    either of which is anisotropic in odd characteristic.  This is the
    first pivot of `diagonalize_odd`, whose first row it returns.
    """
    res = diagonalize_odd(c, form)
    return res.new_gen.row(0) if res.nonzero_count else None


def diagonalize_odd(c: LinearCode, form: str = "euclidean") -> DiagonalizationResult:
    """Diagonal-Gramian generator matrix over odd characteristic.

    Repeatedly takes an anisotropic v (`find_anisotropic`'s rule on the
    working rows), records <v, v> on the diagonal, and replaces the
    working rows with their projections onto {w : <w, v> = 0}, less the
    one that became dependent; the loop ends when the residue is
    self-orthogonal, contributing the zero tail of the diagonal.
    """
    check_form(c.spec, form)
    if c.spec.p == 2:
        raise ValueError("this construction needs odd characteristic; "
                         "2 = 0 would break it")

    def compute():
        rows, diagonal = _congruence(c, form, range(c.k), True)
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
    """
    check_form(c.spec, form)
    gram = _gramian(c, form)
    hull_rows = _hull_rows(c, form).row_list()
    if not _is_maximal(gram, c.k - len(hull_rows), form):
        raise HullNotMaximalError(
            "hull is not maximal self-orthogonal in the code; "
            "no diagonal Gramian is certified")
    # Row i of G is independent of the hull and of the rows before it
    # exactly when row i of S is independent of the rows of S before it:
    # the hull's coefficient rows are the kernel of x -> xS.  So the
    # complement is the pivot columns of S^T.
    rows, diagonal = _congruence(c, form, gram.transpose().rref()[1], False)
    if len(diagonal) < len(rows):
        raise RuntimeError("complement vector became isotropic despite "
                           "a maximal hull; this should be impossible")
    return DiagonalizationResult(c, *_diagonal_generator(c, rows + hull_rows, diagonal),
                                 "maximal-hull-gs")


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
