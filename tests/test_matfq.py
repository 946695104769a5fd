import random

import pytest

from hullforge.gf import make_field
from hullforge.matfq import (MatrixFq, dot, pair_reduce_diagonal,
                             row_space_equal, vstack)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F7 = make_field(7, 1)
F9 = make_field(3, 2)


def rand_matrix(spec, rows, cols, rng):
    return MatrixFq.from_rows(
        spec, [[rng.randrange(spec.q) for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------
# rref / rank / kernel
# ---------------------------------------------------------------

# A bool is an int subclass, and True and False would pass a range
# check as 1 and 0, but they are not codes: `json.dumps` writes them
# as true and false.
@pytest.mark.parametrize("bad", [2, -1, 1.0, "1", None, True, False])
def test_constructors_reject_bad_entries(bad):
    with pytest.raises(ValueError):
        MatrixFq(F2, 1, 2, [0, bad])
    with pytest.raises(ValueError):
        MatrixFq.from_rows(F2, [[0, 1], [bad, 0]])


def test_from_rows_holds_rows_to_the_given_width():
    """cols, when given, is the length of every row, not only of an
    empty matrix's."""
    with pytest.raises(ValueError):
        MatrixFq.from_rows(F2, [[1, 1]], cols=7)
    with pytest.raises(ValueError):
        MatrixFq.from_rows(F2, [[1, 1], [0, 1, 1]], cols=2)
    assert MatrixFq.from_rows(F2, [[1, 1]], cols=2) == MatrixFq.from_rows(F2, [[1, 1]])
    empty = MatrixFq.from_rows(F2, [], cols=0)
    assert (empty.rows, empty.cols) == (0, 0)


@pytest.mark.parametrize("spec", [F7, F4], ids=repr)
@pytest.mark.parametrize("bad", [9, -1, 1.0, True, False])
def test_dot_rejects_bad_entries(spec, bad):
    """`dot` makes the entry check of `MatrixFq(...)`: out of range an
    entry would be reduced mod p (GF(7)) or index past a table (GF(4))."""
    with pytest.raises(ValueError):
        dot(spec, [bad], [1])
    with pytest.raises(ValueError):
        dot(spec, [1, 0], [0, bad])


def test_rref_identity():
    m = MatrixFq.identity(F2, 3)
    r, piv, rank = m.rref()
    assert r == m and piv == (0, 1, 2) and rank == 3


def test_rref_zero():
    m = MatrixFq.zeros(F2, 2, 4)
    r, piv, rank = m.rref()
    assert r == m and piv == () and rank == 0


def test_rref_duplicate_rows():
    m = MatrixFq.from_rows(F2, [[1, 1], [1, 1]])
    r, _, rank = m.rref()
    assert r.row_list() == [(1, 1), (0, 0)] and rank == 1


def test_kernel_identity_is_empty():
    k = MatrixFq.identity(F3, 4).kernel()
    assert k.rows == 0 and k.cols == 4


def test_kernel_zero_row():
    k = MatrixFq.zeros(F2, 1, 3).kernel()
    assert k.rows == 3
    assert k == MatrixFq.identity(F2, 3)


def test_kernel_orthogonality_by_multiplication():
    m = MatrixFq.from_rows(F2, [[1, 1, 1]])
    k = m.kernel()
    assert k.rows == 2
    assert (m @ k.transpose()).is_zero()


def test_kernel_canonical_unit_in_free_slot():
    m = MatrixFq.from_rows(F3, [[1, 2, 0, 1]])
    k = m.kernel()
    _, pivots, _ = m.rref()
    free = [c for c in range(4) if c not in pivots]
    for i, f in enumerate(free):
        assert k[i, f] == 1


@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_rank_nullity_and_transpose_rank(spec):
    rng = random.Random(spec.q)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(spec, rows, cols, rng)
        _, _, rank = m.rref()
        assert m.kernel().rows + rank == cols
        assert m.transpose().rref()[2] == rank


# ---------------------------------------------------------------
# products, transposes, gramians
# ---------------------------------------------------------------

def test_product_identity():
    rng = random.Random(1)
    m = rand_matrix(F9, 3, 5, rng)
    assert m @ MatrixFq.identity(F9, 5) == m
    assert MatrixFq.identity(F9, 3) @ m == m


def test_product_shape_mismatch():
    with pytest.raises(ValueError):
        MatrixFq.identity(F2, 3) @ MatrixFq.identity(F2, 4)


def test_conj_transpose_involution_and_pinned_value():
    assert MatrixFq.from_rows(F4, [[2]]).conj_transpose() == \
        MatrixFq.from_rows(F4, [[3]])
    rng = random.Random(2)
    m = rand_matrix(F4, 3, 4, rng)
    assert m.conj_transpose().conj_transpose() == m


def test_conj_transpose_requires_square_order():
    with pytest.raises(ValueError):
        MatrixFq.identity(F3, 2).conj_transpose()


def test_gramian_pinned():
    assert MatrixFq.identity(F2, 3).gramian() == MatrixFq.identity(F2, 3)
    assert MatrixFq.from_rows(F2, [[1, 1, 1]]).gramian().row_list() == [(1,)]
    assert MatrixFq.from_rows(F2, [[1, 1, 1, 1]]).gramian().row_list() == [(0,)]


@pytest.mark.parametrize("spec,form", [(F3, "euclidean"), (F9, "euclidean"),
                                       (F9, "hermitian"), (F4, "hermitian")])
def test_gramian_self_adjoint(spec, form):
    rng = random.Random(3)
    for _ in range(10):
        m = rand_matrix(spec, rng.randint(1, 4), rng.randint(1, 6), rng)
        g = m.gramian(form)
        if form == "euclidean":
            assert g == g.transpose()
        else:
            assert g == g.conj_transpose()


def test_dot_forms():
    assert dot(F2, (1, 1, 1), (1, 1, 0)) == 0
    assert dot(F9, (2,), (2,), "hermitian") == F9.mul(2, F9.conjugate(2))
    with pytest.raises(ValueError):
        dot(F2, (1,), (1, 0))


# ---------------------------------------------------------------
# pair reduction
# ---------------------------------------------------------------

def check_pair_reduction(s):
    p, q, d = pair_reduce_diagonal(s)
    k = s.rows
    assert p.rref()[2] == k and q.rref()[2] == k
    assert p @ s @ q.transpose() == d
    nz = [d[i, i] for i in range(k) if d[i, i]]
    for i in range(k):
        for j in range(k):
            if i != j:
                assert d[i, j] == 0
    assert [d[i, i] for i in range(len(nz))] == nz  # nonzeros lead
    assert len(nz) == s.rref()[2]
    return p, q, d


def test_pair_reduce_pinned_antidiagonal():
    s = MatrixFq.from_rows(F2, [[0, 1], [1, 0]])
    _, _, d = check_pair_reduction(s)
    assert [d[0, 0], d[1, 1]] == [1, 1]


def test_pair_reduce_zero():
    s = MatrixFq.zeros(F3, 3, 3)
    p, q, d = pair_reduce_diagonal(s)
    assert d == s
    assert p == MatrixFq.identity(F3, 3)
    assert q == MatrixFq.identity(F3, 3)


def test_pair_reduce_already_diagonal():
    s = MatrixFq.from_rows(F5 := make_field(5, 1), [[0, 0], [0, 3]])
    _, _, d = check_pair_reduction(s)
    assert [d[0, 0], d[1, 1]] == [3, 0]


@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_pair_reduce_random(spec):
    rng = random.Random(spec.q + 17)
    for _ in range(20):
        k = rng.randint(1, 5)
        check_pair_reduction(rand_matrix(spec, k, k, rng))


# ---------------------------------------------------------------
# row space comparison
# ---------------------------------------------------------------

def test_row_space_equal_cases():
    a = MatrixFq.from_rows(F3, [[1, 2, 0], [0, 1, 1]])
    swapped = MatrixFq.from_rows(F3, [[0, 1, 1], [1, 2, 0]])
    scaled = MatrixFq.from_rows(F3, [[2, 4 % 3, 0], [0, 1, 1]])
    assert row_space_equal(a, swapped)
    assert row_space_equal(a, scaled)
    assert not row_space_equal(MatrixFq.from_rows(F2, [[1, 0]]),
                               MatrixFq.from_rows(F2, [[0, 1]]))
    with pytest.raises(ValueError):
        row_space_equal(a, MatrixFq.from_rows(F3, [[1, 1]]))


def test_vstack():
    a = MatrixFq.from_rows(F2, [[1, 0]])
    b = MatrixFq.from_rows(F2, [[0, 1]])
    assert vstack(a, b).row_list() == [(1, 0), (0, 1)]


# ---------------------------------------------------------------
# refusals
# ---------------------------------------------------------------

def test_refusals():
    m = MatrixFq.identity(F2, 2)
    with pytest.raises(ValueError, match="unknown form"):
        m.gramian("symplectic")
    with pytest.raises(ValueError, match="does not match"):
        MatrixFq(F2, 2, 2, [0, 1, 1])
    with pytest.raises(ValueError, match="cols is required"):
        MatrixFq.from_rows(F2, [])
    with pytest.raises(ValueError, match="different fields"):
        m @ MatrixFq.identity(F3, 2)
    with pytest.raises(TypeError):
        m @ [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="vstack"):
        vstack(m, MatrixFq.identity(F2, 3))
    with pytest.raises(ValueError, match="vstack"):
        vstack(m, MatrixFq.identity(F3, 2))
    with pytest.raises(ValueError, match="square"):
        pair_reduce_diagonal(MatrixFq.zeros(F2, 2, 3))


def test_row_space_equal_on_different_ranks():
    a = MatrixFq.from_rows(F3, [[1, 2, 0], [0, 1, 1]])
    assert not row_space_equal(a, MatrixFq.from_rows(F3, [[1, 2, 0], [2, 1, 0]]))
