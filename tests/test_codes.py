import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diag import shaped_code
from test_rows import FIELDS

from hullforge import codes, oracle
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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FORM_CASES), st.sampled_from(("random", "k=n", "k=1", "n-k=1")),
       st.integers(1, 8), st.integers(0, 2 ** 32))
def test_gramians_off_the_free_block_match_the_full_products(case, shape, n, seed):
    """S and the parity-side Gramian come from the free block A of the
    canonical G; they equal G G^T and H H^T for the kernel basis H
    (conjugate transposes, hermitian), entry for entry.  The columns of
    a random code are shuffled, so the pivots fall anywhere."""
    spec, form = case
    rng = random.Random(seed)
    k = {"random": rng.randint(1, n), "k=n": n, "k=1": 1, "n-k=1": max(n - 1, 1)}[shape]
    perm = rng.sample(range(n), n)
    g = random_code(spec, n, k, rng.randrange(2 ** 30)).gen
    c = code(spec, [[row[j] for j in perm] for row in g.row_list()])
    assert c.k == k
    assert codes._gramian(c, form) == c.gen.gramian(form)
    parity = codes._parity_rows(c, form)
    assert codes._dual_gramian(c, form) == parity.gramian(form)
    assert parity.rows == n - k


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


def assert_walk_matches_oracle(c):
    """The Gray walk starts at the zero word and visits the same words
    as the oracle's ascending product walk, each once."""
    words = [tuple(w) for w in _iter_codewords(c.spec, c.gen.row_list())]
    assert words[0] == (0,) * c.n
    assert sorted(words) == sorted(oracle.enumerate_codewords(c))


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_walk_without_tables_against_oracle(spec):
    """The walk on every field, with k = 2 where q^2 <= 20000 and k = 1
    elsewhere; GF(257) and GF(17^2) keep the k = 2 they were first
    tested with, so the mod-p and lane cores walk more than one row."""
    k = 2 if spec.q ** 2 <= 20_000 or spec.q in (257, 289) else 1
    c = random_code(spec, 3, k, 0)
    assert_walk_matches_oracle(c)
    assert min_distance(c) == oracle.min_distance_by_enumeration(c)


@pytest.mark.parametrize("c", [
    random_code(make_field(2, 16), 2, 1, 0),          # 65536 words, m = 16
    code(F5, [[3]]),                                   # length 1
    random_code(F2, 70, 3, 0),                         # rows longer than 64 entries
    random_code(make_field(2, 3), 5, 2, 0),            # GF(8), m = 3
    random_code(F9, 5, 2, 0),                          # GF(9), m = 2
], ids=["gf65536-k1", "n1", "gf2-n70", "gf8", "gf9"])
def test_walk_edge_cases_against_oracle(c):
    assert_walk_matches_oracle(c)


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=repr)
def test_walk_makes_one_step_per_word(spec, monkeypatch):
    """One `add_into` per nonzero codeword, and one `scale` per row of
    the GF(p)-basis, k m of them, whatever q is."""
    c = random_code(spec, 6, 3, 0)
    core = spec._core
    calls = Counter()
    for name in ("add_into", "scale"):
        def counted(*args, op=getattr(core, name), name=name):
            calls[name] += 1
            return op(*args)
        monkeypatch.setattr(core, name, counted)
    assert sum(1 for _ in _iter_codewords(spec, c.gen.row_list())) == spec.q ** 3
    assert calls == {"add_into": spec.q ** 3 - 1, "scale": 3 * spec.m}


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_min_distance_against_the_oracle(spec):
    """The distance walk of `codes` against the naive product walk of
    the oracle on every kind of field, with q^k <= 2000; GF(251^2) has
    no such k, so it runs k = 1, 63001 words, once."""
    kmax = max([1] + [k for k in range(1, 11) if spec.q ** k <= 2000])

    @settings(max_examples=25 if spec.q <= 2000 else 1, deadline=None)
    @given(k=st.integers(1, kmax), extra=st.integers(0, 3), seed=st.integers(0, 2 ** 30))
    def check(k, extra, seed):
        c = random_code(spec, k + extra, k, seed)
        assert min_distance(c) == oracle.min_distance_by_enumeration(c)

    check()


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
