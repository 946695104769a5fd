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

Dual-side variants are obtained by applying the same operations to the
dual code rather than through separate code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rows import SpanTracker, row_kernels
from .codes import LinearCode, hull, is_hull_maximal_so_in
from .gf import FieldSpec
from .matfq import MatrixFq, _stack, check_form, dot, pair_reduce_diagonal


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


def _require_odd(spec: FieldSpec):
    if spec.p == 2:
        raise ValueError("this construction needs odd characteristic; "
                         "2 = 0 would break it")


def _find_anisotropic_rows(kz, rows, form):
    """First basis row with nonzero self-product, then first pair
    combination; None when every Gramian entry is zero.  Rows are
    kernel rows of kz."""
    inner = kz.inner(form)
    for r in rows:
        if inner(r, r):
            return r
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            t = inner(rows[i], rows[j])
            if t:
                return kz.axpy(rows[i], 1 if form == "euclidean" else t, rows[j])
    return None


def find_anisotropic(c: LinearCode, form: str = "euclidean"):
    """A codeword v with <v, v> != 0, or None when C is self-orthogonal.

    Deterministic: scans generator rows by index, then row pairs
    lexicographically, combining an isotropic pair u, w with nonzero
    cross product into u + w (euclidean) or u + <u, w>_H w (hermitian),
    either of which is anisotropic in odd characteristic.
    """
    check_form(c.spec, form)
    _require_odd(c.spec)
    kz = row_kernels(c.spec)
    v = _find_anisotropic_rows(kz, [kz.pack(r) for r in c.gen.row_list()], form)
    return None if v is None else tuple(v)


def _independent_subset(spec, rows, expected):
    """Greedy maximal independent subset of rows, in order."""
    tracker = SpanTracker(spec)
    kept = [row for row in rows if tracker.absorb(row)]
    if len(kept) != expected:
        raise RuntimeError(f"projection produced rank {len(kept)}, "
                           f"expected {expected}")
    return kept


def diagonalize_odd(c: LinearCode, form: str = "euclidean") -> DiagonalizationResult:
    """Diagonal-Gramian generator matrix over odd characteristic.

    Repeatedly takes an anisotropic v, records <v, v> on the diagonal,
    and replaces the working basis with its projection onto
    {w : <w, v> = 0}; the loop ends when the residue is self-orthogonal,
    contributing the zero tail of the diagonal.
    """
    spec = c.spec
    check_form(spec, form)
    _require_odd(spec)
    kz = row_kernels(spec)
    inner, axpy, neg, mul = kz.inner(form), kz.axpy, kz.neg, spec.mul
    rows = [kz.pack(r) for r in c.gen.row_list()]
    aniso = []
    diagonal = []
    while rows:
        v = _find_anisotropic_rows(kz, rows, form)
        if v is None:
            break
        nv = dot(spec, v, v, form)
        aniso.append(v)
        diagonal.append(nv)
        inv_nv = spec.inv(nv)
        projected = []
        for w in rows:
            coef = mul(inner(w, v), inv_nv)
            p = axpy(w, neg(coef), v) if coef else w
            if any(p):
                projected.append(p)
        rows = _independent_subset(spec, projected, len(rows) - 1)
    new_rows = aniso + rows
    diagonal += [0] * len(rows)
    new_gen = _stack(spec, new_rows, c.n)
    return DiagonalizationResult(c, new_gen, tuple(diagonal), len(aniso),
                                 "odd-induction")


def orthogonal_basis_lcd(c: LinearCode, form: str = "euclidean"):
    """Pairwise-orthogonal anisotropic basis of an LCD code.

    Raises NotLcdError carrying the hull dimension when the code is not
    complementary dual; such a basis cannot exist then.
    """
    spec = c.spec
    check_form(spec, form)
    _require_odd(spec)
    ell = c.k - c.gen.gramian(form).rank
    if ell:
        raise NotLcdError(ell)
    result = diagonalize_odd(c, form)
    return result.new_gen.row_list()


def diagonalize_maximal_hull(c: LinearCode, form: str = "euclidean",
                             budget=None) -> DiagonalizationResult:
    """Diagonal-Gramian generator when the hull is maximal in the code.

    The generator is the hull basis preceded by a Gram-Schmidt
    orthogonalization of a complement; maximality guarantees every
    complement vector has nonzero self-product, so each division is
    defined.  This is the route available in characteristic 2.
    """
    spec = c.spec
    check_form(spec, form)
    if not is_hull_maximal_so_in(c, form, "code", budget):
        raise HullNotMaximalError(
            "hull is not maximal self-orthogonal in the code; "
            "no diagonal Gramian is certified")
    report = hull(c, form)
    kz = row_kernels(spec)
    hull_rows = [] if report.hull is None else [kz.pack(r) for r in report.hull.gen.row_list()]

    inner, axpy, neg = kz.inner(form), kz.axpy, kz.neg
    mul, inv = spec.mul, spec.inv
    # Extend the hull basis to a basis of C, greedily and in row order.
    tracker = SpanTracker(spec)
    for row in hull_rows:
        tracker.absorb(row)
    complement = []
    for row in c.gen.row_list():
        if tracker.absorb(row):
            complement.append(kz.pack(row))
        if tracker.rank == c.k:
            break
    if len(hull_rows) + len(complement) != c.k:
        raise RuntimeError("failed to extend the hull basis to the code")

    ortho = []
    diagonal = []
    for t in complement:
        u = t
        for r, rr in zip(ortho, diagonal):
            coef = mul(inner(u, r), inv(rr))
            if coef:
                u = axpy(u, neg(coef), r)
        selfdot = dot(spec, u, u, form)
        if selfdot == 0:
            raise RuntimeError("complement vector became isotropic despite "
                               "a maximal hull; this should be impossible")
        ortho.append(u)
        diagonal.append(selfdot)

    new_rows = ortho + hull_rows
    diagonal += [0] * len(hull_rows)
    new_gen = _stack(spec, new_rows, c.n)
    return DiagonalizationResult(c, new_gen, tuple(diagonal), len(ortho),
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
    s = c.gen.gramian(form)
    p, q, d = pair_reduce_diagonal(s)
    g1 = p @ c.gen
    right = q if form == "euclidean" else q.conjugate()
    g2 = right @ c.gen
    diagonal = tuple(d[i, i] for i in range(d.rows))
    return g1, g2, diagonal
