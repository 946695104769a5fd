"""Dense exact linear algebra over a FieldSpec.

Matrices are immutable value types: every operation returns a new
matrix, entries are a flat row-major tuple of element codes, and
equality is structural.  All algorithms are deterministic (leftmost
pivot column, topmost nonzero row), which the rest of the package
relies on for reproducible fixtures.

Elimination, products, the pair reduction and `dot` run on the row
operations of the field's arithmetic core (`gf`), bound when the field
is built: bytes rows with translate tables for q <= 256, lists on the
core's lanes or on integers mod p above that.  `rref` is one call of
the core's `rref`, and `rank` one call of its forward half,
``rref(rows, False)``, which forms no reduced rows.  A product, and
with it every Gramian, is one call of the core's `matmul`.

Entries are checked where they enter from outside: `MatrixFq(...)`,
`MatrixFq.from_rows` and `dot` reject an entry that is not an int in
[0, q), a bool included.
Matrices the package computes itself are built by `_matrix`, which
skips that per-entry check.
"""

from __future__ import annotations

from itertools import chain

from .gf import FieldSpec

FORMS = ("euclidean", "hermitian")


def check_form(spec: FieldSpec, form: str) -> str:
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {FORMS}")
    if form == "hermitian" and spec.subfield_order is None:
        raise ValueError(
            "the hermitian form needs a field of square order "
            f"(even extension degree); got {spec!r}")
    return form


class MatrixFq:
    """A rows x cols matrix of field element codes bound to a FieldSpec."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"shape ({rows}, {cols}) does not match "
                             f"{len(entries)} entries")
        _check_entries(spec, entries)
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows, cols: int | None = None) -> "MatrixFq":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError(f"rows must all have length {cols}")
        flat = [e for r in rows for e in r]
        return cls(spec, len(rows), cols, flat)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "MatrixFq":
        return _matrix(spec, n, n, tuple(1 if i == j else 0
                                         for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "MatrixFq":
        return _matrix(spec, rows, cols, (0,) * (rows * cols))

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> tuple:
        c = self.cols
        return self.entries[i * c:(i + 1) * c]

    def row_list(self) -> list:
        c, e = self.cols, self.entries
        return [e[i * c:(i + 1) * c] for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def is_zero(self) -> bool:
        return not any(self.entries)

    # -- basic operations ---------------------------------------------------

    def transpose(self) -> "MatrixFq":
        r, c, e = self.rows, self.cols, self.entries
        return _matrix(self.spec, c, r,
                       tuple(chain.from_iterable(e[j::c] for j in range(c))))

    def conjugate(self) -> "MatrixFq":
        """Entrywise x -> x^(p^(m/2)); requires a square-order field."""
        spec = self.spec
        if spec.subfield_order is None:
            raise ValueError("conjugation requires a field of square order")
        return _matrix(spec, self.rows, self.cols, tuple(map(spec._core.conj, self.entries)))

    def conj_transpose(self) -> "MatrixFq":
        return self.conjugate().transpose()

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if not isinstance(other, MatrixFq):
            return NotImplemented
        if self.spec != other.spec:
            raise ValueError("matrices over different fields")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: ({self.rows}x{self.cols}) @ "
                             f"({other.rows}x{other.cols})")
        spec = self.spec
        n, k, m = self.rows, self.cols, other.cols
        if not k:
            return MatrixFq.zeros(spec, n, m)
        a, b = self.entries, other.entries
        return _stack(spec, spec._core.matmul([a[i * k:(i + 1) * k] for i in range(n)],
                                              [b[t * m:(t + 1) * m] for t in range(k)]), m)

    def gramian(self, form: str = "euclidean") -> "MatrixFq":
        """G @ G^T for the euclidean form, G @ G^dagger for the hermitian."""
        check_form(self.spec, form)
        if form == "euclidean":
            return self @ self.transpose()
        return self @ self.conj_transpose()

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns:
            (R, pivot_columns, rank) where R is row-equivalent to self
            with leading ones and zeros above and below each pivot.
        """
        rows, pivots = self.spec._core.rref(self.row_list())
        return _stack(self.spec, rows, self.cols), tuple(pivots), len(pivots)

    @property
    def rank(self) -> int:
        return len(self.spec._core.rref(self.row_list(), False)[1])

    def kernel(self) -> "MatrixFq":
        """Basis of the right null space, one basis vector per row.

        The basis is canonical: free columns are taken in ascending
        order and each basis vector carries a 1 in its own free slot.
        """
        r, pivots, _ = self.rref()
        return _kernel(r, pivots)

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MatrixFq)
                and self.spec == other.spec
                and self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.spec, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"MatrixFq({self.spec.q}, {self.rows}x{self.cols})"


def _check_entries(spec: FieldSpec, entries) -> None:
    q = spec.q
    for e in entries:
        # type, not isinstance: a bool is an int but not a code
        if type(e) is not int or not 0 <= e < q:
            raise ValueError(f"entry {e!r} out of range for {spec!r}")


def _matrix(spec: FieldSpec, rows: int, cols: int, entries: tuple) -> MatrixFq:
    """A MatrixFq from a tuple of entries the package computed itself.

    Skips the per-entry check of `MatrixFq.__init__`: entries produced
    by field arithmetic on valid entries are valid.
    """
    m = object.__new__(MatrixFq)
    m.spec = spec
    m.rows = rows
    m.cols = cols
    m.entries = entries
    return m


def _stack(spec: FieldSpec, rows, cols: int) -> MatrixFq:
    """`from_rows` without the per-entry check, for rows of codes the
    package computed itself (kernel rows, lists or tuples)."""
    return _matrix(spec, len(rows), cols, tuple(chain.from_iterable(rows)))


def _kernel(r: MatrixFq, pivots) -> MatrixFq:
    """`MatrixFq.kernel` of a matrix from its rref r and pivot columns,
    for a caller that keeps the elimination's pivots as well."""
    n, pivot_set = r.cols, set(pivots)
    neg, top = r.spec._core.neg, r.entries[:len(pivots) * n]
    basis = []
    for f in (c for c in range(n) if c not in pivot_set):
        v = [0] * n
        v[f] = 1
        for pc, x in zip(pivots, top[f::n]):
            if x:
                v[pc] = neg(x)
        basis.extend(v)
    return _matrix(r.spec, n - len(pivots), n, tuple(basis))


def vstack(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    if a.spec != b.spec or a.cols != b.cols:
        raise ValueError("vstack needs matching fields and column counts")
    return _matrix(a.spec, a.rows + b.rows, a.cols, a.entries + b.entries)


def dot(spec: FieldSpec, u, v, form: str = "euclidean") -> int:
    """<u, v> = sum u_i v_i, or sum u_i v_i^(p^(m/2)) for the hermitian form."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    check_form(spec, form)
    _check_entries(spec, chain(u, v))
    return _inner(spec, form)(u, v)


def _inner(spec: FieldSpec, form: str):
    """The row product of the form: the core's `dot` or `dot_conj`."""
    core = spec._core
    return core.dot if form == "euclidean" else core.dot_conj


def pair_reduce_diagonal(s: MatrixFq):
    """Reduce a square matrix to diagonal form by independent row and
    column operations.

    Returns:
        (P, Q, D) with P and Q invertible and P @ S @ Q^T = D, where D
        is diagonal with exactly rank(S) nonzero entries placed first.
    """
    if s.rows != s.cols:
        raise ValueError("pair reduction needs a square matrix")
    spec = s.spec
    k = s.rows
    core = spec._core
    axpy, neg, mul, inv, pack = core.axpy, core.neg, core.mul, core.inv, core.pack
    e = s.entries
    a = [pack(e[i * k:(i + 1) * k]) for i in range(k)]
    unit = [pack([1 if j == i else 0 for j in range(k)]) for i in range(k)]
    left = unit[:]
    # right[j] is column j of the column-operation matrix, so column
    # operations on S become row operations on right, and Q is right.
    right = unit[:]
    # Columns of S are swapped through col instead of in a: the t-th
    # column of the reduction is column col[t] of every row of a.
    col = list(range(k))
    diagonal = []

    for t in range(k):
        # first nonzero entry of the trailing block, row-major scan
        pivot = next(((i, j) for i in range(t, k) for j in range(t, k)
                      if a[i][col[j]]), None)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            left[t], left[pi] = left[pi], left[t]
        if pj != t:
            col[t], col[pj] = col[pj], col[t]
            right[t], right[pj] = right[pj], right[t]
        row = a[t]
        d = row[col[t]]
        piv_inv = inv(d)
        for i in range(t + 1, k):
            f = a[i][col[t]]
            if f:
                f = neg(mul(f, piv_inv))
                a[i] = axpy(a[i], f, row)
                left[i] = axpy(left[i], f, left[t])
        # Column t of a is now zero below row t and, by the earlier
        # steps, above it, so clearing row t right of the pivot changes
        # no other entry of a; row t is not read again.
        for j in range(t + 1, k):
            f = row[col[j]]
            if f:
                right[j] = axpy(right[j], neg(mul(f, piv_inv)), right[t])
        diagonal.append(d)

    dd = [0] * (k * k)
    for t, d in enumerate(diagonal):
        dd[t * k + t] = d
    return _stack(spec, left, k), _stack(spec, right, k), _matrix(spec, k, k, tuple(dd))


def row_space_equal(a: MatrixFq, b: MatrixFq) -> bool:
    """Whether two matrices generate the same row space."""
    if a.spec != b.spec or a.cols != b.cols:
        raise ValueError("row spaces live in different ambient spaces")
    ra, _, ka = a.rref()
    rb, _, kb = b.rref()
    if ka != kb:
        return False
    return ra.entries[:ka * a.cols] == rb.entries[:kb * b.cols]
