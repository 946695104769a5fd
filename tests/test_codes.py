import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diag import shaped_code
from test_rows import FIELDS

from hullforge import oracle
from hullforge.codes import (DEFAULT_BUDGET, BudgetExceeded, LinearCode,
                             _iter_codewords, dual, hull,
                             hull_dimension_via_gramian, is_hull_maximal_so_in,
                             is_lcd, is_self_orthogonal, make_code,
                             min_distance, random_code, resolve_budget)
from hullforge.gf import make_field
from hullforge.matfq import MatrixFq, vstack

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F9 = make_field(3, 2)

HAMMING_ROWS = [[1, 0, 0, 0, 1, 1, 0],
                [0, 1, 0, 0, 1, 0, 1],
                [0, 0, 1, 0, 0, 1, 1],
                [0, 0, 0, 1, 1, 1, 1]]


def code(spec, rows):
    return make_code(spec, MatrixFq.from_rows(spec, rows))


@pytest.fixture(scope="module")
def hamming():
    return code(F2, HAMMING_ROWS)


# ---------------------------------------------------------------
# construction
# ---------------------------------------------------------------

def test_make_code_canonicalizes():
    c = code(F2, [[1, 1], [1, 1]])
    assert (c.n, c.k) == (2, 1)
    assert c.gen.row_list() == [(1, 1)]


def test_make_code_full_space():
    c = code(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (c.n, c.k) == (3, 3)


def test_row_equivalent_inputs_give_equal_codes():
    a = code(F3, [[1, 2, 0], [0, 1, 1]])
    b = code(F3, [[2, 1, 0], [1, 0, 1]])  # 2*r1 and r1 + r2
    assert a == b


def test_make_code_rejects_zero_and_empty():
    with pytest.raises(ValueError):
        code(F2, [[0, 0, 0]])
    with pytest.raises(ValueError):
        make_code(F2, MatrixFq.from_rows(F2, [], cols=0))


# ---------------------------------------------------------------
# duals
# ---------------------------------------------------------------

def test_dual_of_full_space_is_zero():
    assert dual(code(F2, [[1, 0], [0, 1]])) is None


def test_self_dual_two_bit_code():
    c = code(F2, [[1, 1]])
    assert dual(c) == c


def test_hamming_dual_orthogonality(hamming):
    d = dual(hamming)
    assert (d.n, d.k) == (7, 3)
    assert (hamming.gen @ d.gen.transpose()).is_zero()
    assert dual(d) == hamming


def test_hermitian_dual_roundtrip():
    for seed in range(5):
        c = random_code(F9, 6, 3, seed)
        d = dual(c, "hermitian")
        assert d.k == 3
        assert dual(d, "hermitian") == c
        # orthogonality under the hermitian pairing, checked literally
        conj_rows = d.gen.conjugate()
        assert (c.gen @ conj_rows.transpose()).is_zero()


# ---------------------------------------------------------------
# hulls
# ---------------------------------------------------------------

def test_hull_self_dual():
    c = code(F2, [[1, 1]])
    rep = hull(c)
    assert rep.ell == 1 and rep.hull == c and rep.consistent


def test_hull_repetition_lcd():
    rep = hull(code(F2, [[1, 1, 1]]))
    assert rep.ell == 0 and rep.hull is None and rep.consistent


def test_hull_hamming(hamming):
    rep = hull(hamming)
    assert rep.ell == 3
    assert rep.hull == dual(hamming)
    assert rep.gramian_rank_g == 1 and rep.gramian_rank_h == 0
    assert rep.consistent


def test_hull_dimension_via_gramian(hamming):
    assert hull_dimension_via_gramian(code(F2, [[1, 1]])) == 1
    assert hull_dimension_via_gramian(code(F2, [[1, 1, 1]])) == 0
    assert hull_dimension_via_gramian(hamming) == 3


@pytest.mark.parametrize("spec,form", [(F2, "euclidean"), (F5, "euclidean"),
                                       (F9, "euclidean"), (F9, "hermitian"),
                                       (F4, "hermitian")])
def test_hull_invariants_random(spec, form):
    for seed in range(12):
        c = random_code(spec, 7, 3, seed)
        rep = hull(c, form)
        assert rep.consistent
        assert 0 <= rep.ell <= min(c.k, c.n - c.k)
        # `hull` keeps rank S on c; a fresh copy ranks S on its own.
        assert hull_dimension_via_gramian(fresh(c), form) == rep.ell
        d = dual(c, form)
        assert hull(d, form).ell == rep.ell
        assert is_self_orthogonal(fresh(c), form) == (rep.hull == c)
        assert is_lcd(fresh(c), form) == (rep.ell == 0)
        if rep.hull is not None:
            # hull is inside both the code and its dual
            assert row_space_contains(c, rep.hull)
            assert row_space_contains(d, rep.hull)


def fresh(c):
    """An equal code that has not answered any question yet."""
    return LinearCode(c.spec, c.n, c.k, c.gen)


def row_space_contains(outer, inner):
    stacked = vstack(outer.gen, inner.gen)
    return stacked.rref()[2] == outer.k


# The fields of the row-kernel properties, in both forms where defined.
FORM_CASES = [(spec, form) for spec in FIELDS for form in ("euclidean", "hermitian")
              if form == "euclidean" or spec.subfield_order is not None]


def hull_by_sum(c, form):
    """Reference hull: the dual of C + dual(C), which never forms the
    Gramian."""
    d = dual(c, form)
    return None if d is None else dual(make_code(c.spec, vstack(c.gen, d.gen)), form)


def lcd_code(spec, form, rng):
    """A random code with a nonsingular Gramian, or failing that the
    coordinate code spanned by the first k unit vectors."""
    n = rng.randint(1, 6)
    k = rng.randint(1, n)
    for _ in range(20):
        c = random_code(spec, n, k, rng.randrange(2 ** 30))
        if is_lcd(c, form):
            return c
    return code(spec, [[int(t == i) for t in range(n)] for i in range(k)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FORM_CASES),
       st.sampled_from(("random", "k=n", "self-orthogonal", "lcd", "hull+1")),
       st.integers(0, 2 ** 32))
def test_gramian_hull_is_the_dual_of_the_sum(case, shape, seed):
    spec, form = case
    rng = random.Random(seed)
    c = lcd_code(spec, form, rng) if shape == "lcd" else shaped_code(spec, form, shape, rng)
    rep = hull(c, form)
    assert rep.hull == hull_by_sum(c, form)
    assert rep.consistent and rep.gramian_rank_g == c.k - rep.ell
    if rep.hull is not None:
        assert make_code(spec, rep.hull.gen) == rep.hull
    assert rep.ell <= min(c.k, c.n - c.k)
    d = dual(c, form)
    if d is None:
        assert rep.ell == 0
    else:
        assert dual(d, form) == c
        assert hull(d, form).hull == rep.hull
    if shape == "self-orthogonal":
        assert rep.hull == c
    if shape in ("k=n", "lcd"):
        assert rep.hull is None


# ---------------------------------------------------------------
# predicates
# ---------------------------------------------------------------

def test_predicates_pinned():
    sd = code(F2, [[1, 1]])
    assert is_self_orthogonal(sd) and not is_lcd(sd)
    rep3 = code(F2, [[1, 1, 1]])
    assert is_lcd(rep3) and not is_self_orthogonal(rep3)
    full = code(F5, [[1, 0], [0, 1]])
    assert is_lcd(full)


def test_maximality_pinned():
    assert is_hull_maximal_so_in(code(F2, [[1, 1, 1]]))        # LCD, k = 1
    assert is_hull_maximal_so_in(code(F2, [[1, 1]]))           # self-orthogonal
    assert is_hull_maximal_so_in(code(F2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert not is_hull_maximal_so_in(code(F2, [[1, 0], [0, 1]]))


def test_maximality_dual_side():
    # hull(C) = hull(dual(C)), so the dual side is the same question
    # asked of the dual code
    c = code(F2, [[1, 1]])
    assert is_hull_maximal_so_in(dual(c))
    full = code(F2, [[1, 0], [0, 1]])
    assert dual(full) is None          # a zero dual has nothing to ask


def test_maximality_exact_where_a_budget_once_refused():
    # odd characteristic with k - ell >= 2, once refused out of budget
    c = random_code(F3, 6, 3, 0)
    assert c.k - hull(c).ell >= 2
    assert is_hull_maximal_so_in(c) == oracle.maximal_so_by_enumeration(c)
    # even characteristic, once answered by the k - ell <= 1 fallback
    big = code(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert is_hull_maximal_so_in(big) is oracle.maximal_so_by_enumeration(big) is False


# ---------------------------------------------------------------
# distance and generators
# ---------------------------------------------------------------

def test_min_distance_pinned(hamming):
    assert min_distance(code(F2, [[1, 1, 1]])) == 3
    assert min_distance(code(F2, [[1, 0], [0, 1]])) == 1
    assert min_distance(hamming) == 3


@pytest.mark.parametrize("spec", [make_field(257, 1), make_field(17, 2)], ids=repr)
def test_walk_without_tables_against_oracle(spec):
    """The walk on the integers mod p and on the lanes core, which step
    with the core's `add`: with k = 2 the last digit wraps, so the roll
    rows run too.  Both walks visit the messages in the same order, which
    also catches a wrong roll row that only permutes the words."""
    c = random_code(spec, 3, 2, 0)
    words = [tuple(w) for w in _iter_codewords(spec, c.gen.row_list())]
    assert words == list(oracle.enumerate_codewords(c))
    assert min_distance(c) == oracle.min_distance_by_enumeration(c)


def test_min_distance_refuses_on_every_call_after_its_walk(hamming):
    """The distance is kept on the code, but each call checks its own budget."""
    assert min_distance(hamming, budget=16) == 3
    with pytest.raises(BudgetExceeded):
        min_distance(hamming, budget=15)
    assert min_distance(hamming) == 3 == oracle.min_distance_by_enumeration(hamming)


def test_min_distance_budget():
    with pytest.raises(BudgetExceeded):
        min_distance(code(F2, [[1, 0], [0, 1]]), budget=3)


@pytest.mark.parametrize("budget", [True, False, 0, -1, 2.0, "10"])
def test_bad_budget_is_refused(budget):
    with pytest.raises(ValueError, match="bad enumeration budget"):
        resolve_budget(budget)
    with pytest.raises(ValueError, match="bad enumeration budget"):
        min_distance(code(F2, [[1, 1]]), budget=budget)
    assert resolve_budget(None) == DEFAULT_BUDGET and resolve_budget(1) == 1


def test_random_code_deterministic():
    a = random_code(F3, 6, 3, 1)
    assert a == random_code(F3, 6, 3, 1)
    # frozen fixture, generated once and pinned
    assert a.gen.row_list() == [(1, 0, 0, 0, 1, 2),
                                (0, 1, 0, 2, 0, 2),
                                (0, 0, 1, 1, 1, 1)]


def test_random_code_full_dimension_is_identity():
    c = random_code(F5, 4, 4, 9)
    assert c.gen == MatrixFq.identity(F5, 4)


def test_random_code_bad_dims():
    with pytest.raises(ValueError):
        random_code(F2, 3, 4, 0)


def test_cross_gramian_rank_invariant_both_forms():
    import random as _random

    from hullforge.codes import random_invertible
    rng = _random.Random(7)
    for form, spec in (("euclidean", F5), ("hermitian", F9), ("hermitian", F4)):
        for seed in range(8):
            c = random_code(spec, 6, 3, seed)
            ell = hull(c, form).ell
            e1 = random_invertible(spec, c.k, rng)
            e2 = random_invertible(spec, c.k, rng)
            g2 = e2 @ c.gen
            adjoint = g2.transpose() if form == "euclidean" else g2.conj_transpose()
            assert ((e1 @ c.gen) @ adjoint).rank == c.k - ell
