import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullforge.codes import (hull, is_hull_maximal_so_in, is_lcd, make_code,
                             random_code)
from hullforge.diag import (HullNotMaximalError, NotLcdError,
                            diagonalize_maximal_hull, diagonalize_odd,
                            orthogonal_basis_lcd, pair_diagonal_generators)
from hullforge.gf import make_field
from hullforge.matfq import MatrixFq, dot, row_space_equal

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F9 = make_field(3, 2)


def code(spec, rows):
    return make_code(spec, MatrixFq.from_rows(spec, rows))


def assert_diagonal_result(res, form):
    c = res.code
    gram = res.new_gen.gramian(form)
    for i in range(c.k):
        for j in range(c.k):
            assert gram[i, j] == (res.diagonal[i] if i == j else 0)
    assert row_space_equal(res.new_gen, c.gen)
    ell = hull(c, form).ell
    assert res.nonzero_count == c.k - ell
    assert all(res.diagonal[:res.nonzero_count])
    assert not any(res.diagonal[res.nonzero_count:])


# ---------------------------------------------------------------
# the first anisotropic pivot of diagonalize_odd
# ---------------------------------------------------------------

def test_anisotropic_absent_for_self_orthogonal():
    assert diagonalize_odd(code(F3, [[1, 1, 1]])).nonzero_count == 0


def test_anisotropic_single_row_hit():
    assert diagonalize_odd(code(F3, [[1, 0], [0, 1]])).new_gen.row(0) == (1, 0)


def test_anisotropic_pair_combination_euclidean():
    # both canonical rows are isotropic, the pair is not
    c = code(F5, [[1, 0, 0, 2], [0, 1, 0, 2]])
    assert c.gen.row_list() == [(1, 0, 0, 2), (0, 1, 0, 2)]
    v = diagonalize_odd(c).new_gen.row(0)
    assert v == (1, 1, 0, 4)
    assert dot(F5, v, v) == 3  # = 2 <r1, r2>


def test_anisotropic_pair_combination_hermitian():
    c = code(F9, [[1, 0, 0, 4], [0, 1, 0, 4]])
    r1, r2 = c.gen.row_list()
    assert dot(F9, r1, r1, "hermitian") == 0
    assert dot(F9, r2, r2, "hermitian") == 0
    t = dot(F9, r1, r2, "hermitian")
    v = diagonalize_odd(c, "hermitian").new_gen.row(0)
    assert v == tuple(F9.add(x, F9.mul(t, y)) for x, y in zip(r1, r2))
    expected = F9.mul(2, F9.mul(F9.conjugate(t), t))
    assert dot(F9, v, v, "hermitian") == expected != 0


def test_anisotropic_refuses_even_characteristic():
    with pytest.raises(ValueError):
        diagonalize_odd(code(F2, [[1, 1]]))


# ---------------------------------------------------------------
# odd-characteristic diagonalization
# ---------------------------------------------------------------

def test_diagonalize_odd_self_orthogonal():
    res = diagonalize_odd(code(F3, [[1, 1, 1]]))
    assert res.diagonal == (0,) and res.nonzero_count == 0
    assert res.method == "odd-induction"
    assert_diagonal_result(res, "euclidean")


def test_diagonalize_odd_identity():
    res = diagonalize_odd(code(F3, [[1, 0], [0, 1]]))
    assert res.diagonal == (1, 1)
    assert_diagonal_result(res, "euclidean")


def test_diagonalize_odd_fixture_635():
    c = random_code(F5, 6, 3, 0)
    assert hull(c).ell == 1
    res = diagonalize_odd(c)
    assert res.nonzero_count == 2
    assert_diagonal_result(res, "euclidean")


@pytest.mark.parametrize("spec,form,n,k", [
    (F3, "euclidean", 7, 4), (F5, "euclidean", 8, 3), (F7, "euclidean", 6, 4),
    (F9, "euclidean", 7, 3), (F9, "hermitian", 7, 3),
    (make_field(7, 2), "hermitian", 5, 3),
])
def test_diagonalize_odd_random(spec, form, n, k):
    for seed in range(8):
        res = diagonalize_odd(random_code(spec, n, k, seed), form)
        assert_diagonal_result(res, form)


def test_diagonalize_odd_pair_pivots_pinned():
    # every generator row is isotropic, so each step combines a pair
    # r_i + s r_j; the projection of r_j is the row dropped, so these
    # exact rows pin which one
    c = code(F5, [[1, 0, 0, 2], [0, 1, 0, 2], [0, 0, 1, 2]])
    res = diagonalize_odd(c)
    assert res.new_gen.row_list() == [(1, 1, 0, 4), (3, 2, 0, 0), (4, 4, 1, 3)]
    assert res.diagonal == (3, 3, 2)
    c = code(F9, [[1, 0, 0, 4], [0, 1, 0, 4], [0, 0, 1, 4]])
    res = diagonalize_odd(c, "hermitian")
    assert res.new_gen.row_list() == [(1, 2, 0, 0), (2, 2, 0, 4), (2, 2, 1, 8)]
    assert res.diagonal == (2, 1, 2)


def test_diagonalize_odd_refuses_even_characteristic():
    with pytest.raises(ValueError):
        diagonalize_odd(code(F2, [[1, 1]]))
    with pytest.raises(ValueError):
        diagonalize_odd(code(F4, [[1, 1]]), "hermitian")


# ---------------------------------------------------------------
# LCD orthogonal basis
# ---------------------------------------------------------------

def test_orthogonal_basis_identity():
    rows = orthogonal_basis_lcd(code(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert rows == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_orthogonal_basis_refusal_self_dual():
    c = code(F5, [[1, 2]])  # <v, v> = 1 + 4 = 0
    with pytest.raises(NotLcdError) as err:
        orthogonal_basis_lcd(c)
    assert err.value.hull_dim == 1 == c.k


def test_orthogonal_basis_lcd_fixture():
    c = random_code(F7, 5, 2, 0)
    assert is_lcd(c)
    rows = orthogonal_basis_lcd(c)
    assert len(rows) == 2
    assert dot(F7, rows[0], rows[1]) == 0
    assert all(dot(F7, r, r) != 0 for r in rows)


def test_orthogonal_basis_biconditional_sampled():
    lcd_seen = refused = 0
    for seed in range(20):
        c = random_code(F5, 6, 3, seed)
        if is_lcd(c):
            rows = orthogonal_basis_lcd(c)
            for i in range(3):
                assert dot(F5, rows[i], rows[i]) != 0
                for j in range(i + 1, 3):
                    assert dot(F5, rows[i], rows[j]) == 0
            lcd_seen += 1
        else:
            with pytest.raises(NotLcdError):
                orthogonal_basis_lcd(c)
            refused += 1
    assert lcd_seen and refused


# ---------------------------------------------------------------
# maximal-hull diagonalization
# ---------------------------------------------------------------

def test_maximal_hull_self_orthogonal_returned_as_is():
    c = code(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    res = diagonalize_maximal_hull(c)
    assert res.new_gen == c.gen
    assert res.diagonal == (0, 0)
    assert res.method == "maximal-hull-gs"


def test_maximal_hull_single_nonzero_gf2():
    c = code(F2, [[1, 1, 1]])  # LCD with k = 1, so k - ell = 1
    res = diagonalize_maximal_hull(c)
    assert res.nonzero_count == 1
    assert_diagonal_result(res, "euclidean")


def test_maximal_hull_hermitian_gf4_fixture():
    c = random_code(F4, 4, 2, 4)
    rep = hull(c, "hermitian")
    assert rep.ell == 1
    res = diagonalize_maximal_hull(c, "hermitian")
    assert res.nonzero_count == 1
    assert_diagonal_result(res, "hermitian")


def test_maximal_hull_refuses_non_maximal():
    with pytest.raises(HullNotMaximalError):
        diagonalize_maximal_hull(code(F2, [[1, 0], [0, 1]]))


# ---------------------------------------------------------------
# pair-diagonal generators
# ---------------------------------------------------------------

def check_pair(c, form):
    g1, g2, diagonal = pair_diagonal_generators(c, form)
    cross = g1 @ (g2.transpose() if form == "euclidean" else g2.conj_transpose())
    for i in range(c.k):
        for j in range(c.k):
            assert cross[i, j] == (diagonal[i] if i == j else 0)
    ell = hull(c, form).ell
    nz = sum(1 for d in diagonal if d)
    assert nz == c.k - ell
    assert all(diagonal[:nz]) and not any(diagonal[nz:])
    assert row_space_equal(g1, c.gen) and row_space_equal(g2, c.gen)


def test_pair_diagonal_antidiagonal_gramian():
    c = code(F2, [[1, 0, 0, 1], [0, 1, 0, 1]])
    assert c.gen.gramian().row_list() == [(0, 1), (1, 0)]
    g1, g2, diagonal = pair_diagonal_generators(c)
    assert diagonal == (1, 1)
    check_pair(c, "euclidean")


def test_pair_diagonal_self_orthogonal():
    c = code(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    _, _, diagonal = pair_diagonal_generators(c)
    assert diagonal == (0, 0)


def test_pair_diagonal_already_diagonal():
    c = code(F3, [[1, 0], [0, 1]])
    check_pair(c, "euclidean")


@pytest.mark.parametrize("spec,form", [(F2, "euclidean"), (F4, "euclidean"),
                                       (F4, "hermitian"), (F5, "euclidean"),
                                       (F9, "hermitian")])
def test_pair_diagonal_random(spec, form):
    for seed in range(8):
        check_pair(random_code(spec, 6, 3, seed), form)


# ---------------------------------------------------------------
# properties beyond the small fields: lane-core and prime-list rows
# ---------------------------------------------------------------

def _field_forms(pms):
    return [(spec, form) for spec in (make_field(p, m) for p, m in pms)
            for form in ("euclidean", "hermitian")
            if form == "euclidean" or spec.subfield_order is not None]


# GF(3), GF(49), GF(3^6), GF(251^2) and GF(257); GF(2), GF(256), GF(2^9)
ODD_CASES = _field_forms([(3, 1), (7, 2), (3, 6), (251, 2), (257, 1)])
EVEN_CASES = _field_forms([(2, 1), (2, 8), (2, 9)])
SHAPES = ("random", "k=1", "k=n", "self-orthogonal", "pair", "hull+1")
PROPERTY = settings(max_examples=150, deadline=None)


@lru_cache(maxsize=None)
def isotropic_scalars(spec, form):
    """(b, c) with 1 + <b, b> + <c, c> = 0 in one coordinate, so that
    rows [a | b*a | c*a] span a self-orthogonal code for any rows a."""
    if form == "euclidean":
        def norm(x):
            return spec.mul(x, x)
    else:
        def norm(x):
            return spec.mul(x, spec.conjugate(x))
    first = {}
    for x in range(min(spec.q, 4096)):
        first.setdefault(norm(x), x)
    for b in range(spec.q):
        c = first.get(spec.sub(spec.neg(1), norm(b)))
        if c is not None:
            return b, c
    raise AssertionError("no isotropic scalars found")


def shaped_code(spec, form, shape, rng):
    """A small code of the given shape:

    * random: a random [n, k] code;
    * k=1 and k=n: one random row, or the whole space;
    * self-orthogonal: rows [a | b*a | c*a] (see `isotropic_scalars`);
    * pair: rows [e_i | b | c], each isotropic, with cross products -1,
      so the first pivot of `diagonalize_odd` is a pair;
    * hull+1: the hull of a random code plus one of its rows, whose
      Gramian has rank at most 1, so the hull is maximal.
    """
    n = rng.randint(1, 6)
    if shape == "random":
        return random_code(spec, n, rng.randint(1, n), rng.randrange(2 ** 30))
    if shape == "k=1":
        row = [rng.randrange(spec.q) for _ in range(n)]
        row[rng.randrange(n)] = rng.randrange(1, spec.q)
        return code(spec, [row])
    if shape == "k=n":
        return make_code(spec, MatrixFq.identity(spec, n))
    b, c = isotropic_scalars(spec, form)
    if shape == "self-orthogonal":
        h = rng.randint(1, 3)
        a = [[rng.randrange(spec.q) for _ in range(h)] for _ in range(rng.randint(1, h))]
        a[0][0] = 1
        return code(spec, [r + [spec.mul(b, x) for x in r] + [spec.mul(c, x) for x in r]
                           for r in a])
    if shape == "pair":
        k = rng.randint(2, 5)
        return code(spec, [[int(t == i) for t in range(k)] + [b, c] for i in range(k)])
    base = random_code(spec, n, rng.randint(1, n), rng.randrange(2 ** 30))
    rep = hull(base, form)
    rows = [] if rep.hull is None else rep.hull.gen.row_list()
    return code(spec, rows + [base.gen.row(rng.randrange(base.k))])


@PROPERTY
@given(st.sampled_from(ODD_CASES), st.sampled_from(SHAPES), st.integers(0, 2 ** 32))
def test_diagonalize_odd_property(case, shape, seed):
    spec, form = case
    c = shaped_code(spec, form, shape, random.Random(seed))
    res = diagonalize_odd(c, form)
    assert_diagonal_result(res, form)
    if shape == "self-orthogonal":
        assert res.nonzero_count == 0 and res.new_gen == c.gen
    if shape == "k=n":
        assert res.nonzero_count == c.k
    if shape == "pair":
        v = res.new_gen.row(0)
        rows = c.gen.row_list()
        assert all(not dot(spec, r, r, form) for r in rows)
        assert v not in rows and dot(spec, v, v, form)


@PROPERTY
@given(st.sampled_from(EVEN_CASES), st.sampled_from(SHAPES), st.integers(0, 2 ** 32))
def test_diagonalize_maximal_hull_property(case, shape, seed):
    spec, form = case
    c = shaped_code(spec, form, shape, random.Random(seed))
    maximal = is_hull_maximal_so_in(c, form)
    # characteristic 2: maximal exactly when k - ell <= 1
    assert maximal == (c.k - hull(c, form).ell <= 1)
    if shape in ("k=1", "self-orthogonal", "hull+1"):
        assert maximal
    if not maximal:
        with pytest.raises(HullNotMaximalError):
            diagonalize_maximal_hull(c, form)
        return
    res = diagonalize_maximal_hull(c, form)
    assert res.method == "maximal-hull-gs"
    assert_diagonal_result(res, form)
    # the hull basis closes the new generator, unchanged
    rep = hull(c, form)
    if rep.hull is not None:
        assert res.new_gen.row_list()[res.nonzero_count:] == rep.hull.gen.row_list()
