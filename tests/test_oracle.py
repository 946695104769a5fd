import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rows import FIELDS

from hullforge import oracle
from hullforge.codes import (BudgetExceeded, is_hull_maximal_so_in, make_code,
                             min_distance, random_code)
from hullforge.gf import make_field
from hullforge.matfq import MatrixFq

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F9 = make_field(3, 2)


def code(spec, rows):
    return make_code(spec, MatrixFq.from_rows(spec, rows))


def test_enumerate_codewords_pinned():
    assert set(oracle.enumerate_codewords(code(F2, [[1, 1]]))) == {(0, 0), (1, 1)}
    rep3 = code(F3, [[1, 1, 1]])
    words = list(oracle.enumerate_codewords(rep3))
    assert words == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]  # ascending messages
    ham = code(F2, [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
                    [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
    assert sum(1 for _ in oracle.enumerate_codewords(ham)) == 16


def test_min_distance_by_enumeration_keeps_no_codeword_table():
    """The referee streams the codewords: on q^k = 63001 words a table of
    them peaks near 8 MiB, the stream under 1 MiB."""
    c = random_code(make_field(251, 1), 6, 2, 0)
    tracemalloc.start()
    try:
        d = oracle.min_distance_by_enumeration(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert d == min_distance(c) == 5             # an MDS [6, 2] code


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        list(oracle.enumerate_codewords(code(F2, [[1, 0], [0, 1]]), budget=3))


def _largest_k(q: int, words: int) -> int:
    """The largest k <= 4 with q^k <= words, and at least 1."""
    return max([1] + [k for k in range(1, 5) if q ** k <= words])


def _examples(spec) -> int:
    """Hypothesis examples per field: one where a single walk over
    q > 256 takes a good part of a second, several elsewhere."""
    return 8 if spec.q <= 256 else 1


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_walk_against_the_product_walk(spec):
    """The odometer visits the words of the naive product walk in its
    order.  Over q > 256, k is as large as 10^5 words allow, which is 2 on
    GF(17^2) and GF(257), so the roll rows run on the lanes core and on
    the integers mod p."""
    kmax = _largest_k(spec.q, 3000 if spec.q <= 256 else 10 ** 5)

    @settings(max_examples=_examples(spec), deadline=None)
    @given(k=st.integers(1, kmax) if spec.q <= 256 else st.just(kmax),
           extra=st.integers(0, 2), seed=st.integers(0, 2 ** 30))
    def check(k, extra, seed):
        c = random_code(spec, k + extra, k, seed)
        assert ([tuple(w) for w in oracle._walk(spec, c.gen.row_list())]
                == list(oracle.enumerate_codewords(c)))

    check()


FIELD_FORMS = [(spec, form) for spec in FIELDS for form in ("euclidean", "hermitian")
               if form == "euclidean" or spec.subfield_order]


@pytest.mark.parametrize("spec,form", FIELD_FORMS,
                         ids=[f"GF({spec.q})-{form}" for spec, form in FIELD_FORMS])
def test_hull_walk_flags_the_words_orthogonal_to_every_row(spec, form):
    """A word's in_hull flag, read off the extended tail of the walk, is
    the statement that the word is orthogonal to every generator row."""

    @settings(max_examples=_examples(spec), deadline=None)
    @given(k=st.integers(1, _largest_k(spec.q, 3000)), extra=st.integers(0, 2),
           seed=st.integers(0, 2 ** 30))
    def check(k, extra, seed):
        c = random_code(spec, k + extra, k, seed)
        rows = c.gen.row_list()
        for w, in_hull in oracle._hull_walk(c, form):
            assert len(w) == c.n
            assert in_hull == all(oracle._form_dot(spec, w, g, form) == 0 for g in rows)

    check()


def tetracodes(blocks: int):
    """The self-dual [4 blocks, 2 blocks]_3 code: the tetracode, rows
    1 0 1 1 and 0 1 1 2, on the block diagonal."""
    rows = []
    for b in range(blocks):
        for tetra in ([1, 0, 1, 1], [0, 1, 1, 2]):
            rows.append([0] * 4 * b + tetra + [0] * 4 * (blocks - 1 - b))
    return code(F3, rows)


def test_maximality_keeps_no_hull_set():
    """One walk answers maximality: on the 3^8 = 6561 hull words of a
    self-dual [16,8]_3 code a hull set peaks near 1.7 MiB, the walk
    under 0.25 MiB."""
    c = tetracodes(4)
    tracemalloc.start()
    try:
        maximal = oracle.maximal_so_by_enumeration(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
    assert maximal is True


def test_subspace_dimension_checks_closure():
    members = {(0, 0, 0), (1, 0, 0), (0, 1, 0)}
    with pytest.raises(RuntimeError):
        oracle._subspace_dimension(F2, members, 3)
    assert oracle._subspace_dimension(F2, members | {(1, 1, 0)}, 3) == 2


def test_hull_by_enumeration_pinned(fixtures_dir):
    sd = code(F2, [[1, 1]])
    members, ell = oracle.hull_by_enumeration(sd)
    assert ell == 1 and members == {(0, 0), (1, 1)}

    members, ell = oracle.hull_by_enumeration(code(F2, [[1, 1, 1]]))
    assert ell == 0 and members == {(0, 0, 0)}

    ham = code(F2, [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
                    [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
    members, ell = oracle.hull_by_enumeration(ham)
    assert ell == 3 and len(members) == 8
    golden = (fixtures_dir / "golden" / "hamming74.hull.euclidean.golden").read_text()
    rows = [tuple(int(t) for t in line.split())
            for line in golden.splitlines()
            if line and not line.startswith("#")][1:]
    assert members == set(rows)


def test_hull_by_enumeration_hermitian():
    for seed in range(6):
        c = random_code(F9, 5, 2, seed)
        from hullforge.codes import hull
        _, ell = oracle.hull_by_enumeration(c, "hermitian")
        assert ell == hull(c, "hermitian").ell


def test_min_distance_by_enumeration_agrees():
    cases = [code(F2, [[1, 1, 1]]),
             code(F2, [[1, 0], [0, 1]]),
             code(F2, [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
                       [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])]
    for c in cases:
        assert oracle.min_distance_by_enumeration(c) == min_distance(c)


def test_maximal_so_by_enumeration_pinned():
    assert oracle.maximal_so_by_enumeration(code(F2, [[1, 1]]))
    assert not oracle.maximal_so_by_enumeration(code(F2, [[1, 0], [0, 1]]))


def test_maximal_so_cross_validation():
    for seed in range(10):
        c = random_code(F3, 5, 2, seed)
        assert (oracle.maximal_so_by_enumeration(c)
                == is_hull_maximal_so_in(c))


def test_oracle_hull_size_is_power(fixtures_dir):
    for seed in range(8):
        c = random_code(F3, 6, 3, seed)
        members, ell = oracle.hull_by_enumeration(c)
        assert len(members) == 3 ** ell


def test_hermitian_hull_golden(fixtures_dir):
    f4 = make_field(2, 2)
    c = random_code(f4, 4, 2, 4)       # the committed herm42gf4 fixture
    members, ell = oracle.hull_by_enumeration(c, "hermitian")
    golden = (fixtures_dir / "golden" / "herm42gf4.hull.hermitian.golden").read_text()
    lines = [line for line in golden.splitlines()
             if line and not line.startswith("#")]
    header = tuple(int(t) for t in lines[0].split())
    assert header == (2, 2, 4, ell)
    assert members == {tuple(int(t) for t in line.split()) for line in lines[1:]}


def test_budget_object_accepted():
    c = code(F2, [[1, 1]])
    assert oracle.min_distance_by_enumeration(c, 100) == 2
    with pytest.raises(BudgetExceeded):
        oracle.min_distance_by_enumeration(c, 1)
