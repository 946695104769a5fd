"""The row operations of each field's arithmetic core (`gf`) against a
naive reference that makes one FieldSpec call per entry, over every
kind of field the cores and their row operations tell apart."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullforge.gf import _prime_lanes, make_field
from hullforge.matfq import MatrixFq, dot, pair_reduce_diagonal

# GF(2), GF(3), GF(7), GF(4), GF(9), GF(49), GF(256) as named; GF(81),
# GF(127) and GF(131) sit on either side of the one-byte digit packing
# of the table core, and GF(251) is its largest prime field, with the
# widest product lanes; GF(2^9), GF(3^6), GF(17^2) and GF(251^2) run on
# the lanes core, GF(257) on the integers mod p.
FIELDS = [make_field(p, m) for p, m in
          [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (7, 2), (2, 8),
           (3, 4), (127, 1), (131, 1), (251, 1), (2, 9), (3, 6), (17, 2),
           (251, 2), (257, 1)]]

fields = st.sampled_from(FIELDS)
PROPERTY = settings(max_examples=80, deadline=None)


# ---------------------------------------------------------------
# naive reference: one FieldSpec call per entry
# ---------------------------------------------------------------

def naive_rref(m):
    spec = m.spec
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        iv = spec.inv(rows[r][c])
        rows[r] = [spec.mul(iv, x) for x in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [e for row in rows for e in row], tuple(pivots), r


def naive_kernel(m):
    spec = m.spec
    flat, pivots, _ = naive_rref(m)
    n = m.cols
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = spec.neg(flat[i * n + f])
        basis.append(v)
    return basis


def naive_matmul(a, b):
    spec = a.spec
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for t in range(a.cols):
                acc = spec.add(acc, spec.mul(a[i, t], b[t, j]))
            out.append(acc)
    return out


def naive_gramian(m, form):
    """S[i][j] = sum_t g_it conj(g_jt), conj the identity for the euclidean form."""
    spec = m.spec
    conj = spec.conjugate if form == "hermitian" else (lambda y: y)
    out = []
    for i in range(m.rows):
        for j in range(m.rows):
            acc = 0
            for t in range(m.cols):
                acc = spec.add(acc, spec.mul(m[i, t], conj(m[j, t])))
            out.append(acc)
    return out


def naive_dot(spec, u, v, form):
    acc = 0
    for x, y in zip(u, v):
        if form == "hermitian":
            y = spec.conjugate(y)
        acc = spec.add(acc, spec.mul(x, y))
    return acc


def naive_pair_reduce(s):
    """P, Q, D as row lists, with explicit row and column operations."""
    spec, k = s.spec, s.rows
    a = [list(s.row(i)) for i in range(k)]
    left = [[int(i == j) for j in range(k)] for i in range(k)]
    right = [[int(i == j) for j in range(k)] for i in range(k)]
    for t in range(k):
        pivot = next(((i, j) for i in range(t, k) for j in range(t, k) if a[i][j]), None)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        left[t], left[pi] = left[pi], left[t]
        for row in a + right:
            row[t], row[pj] = row[pj], row[t]
        piv_inv = spec.inv(a[t][t])
        for i in range(t + 1, k):
            f = spec.mul(a[i][t], piv_inv)
            a[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(a[i], a[t])]
            left[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(left[i], left[t])]
        for j in range(t + 1, k):
            f = spec.mul(a[t][j], piv_inv)
            for row in a + right:
                row[j] = spec.sub(row[j], spec.mul(f, row[t]))
    q = [[right[j][i] for j in range(k)] for i in range(k)]
    return left, q, a


# ---------------------------------------------------------------
# strategies
# ---------------------------------------------------------------

def entries(spec):
    return st.one_of(st.sampled_from([0, 1, spec.q - 1]), st.integers(0, spec.q - 1))


@st.composite
def matrices(draw, spec, rows=None, cols=None):
    """Small matrices, often sparse, sometimes with a row that is a
    combination of the rows above it."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(1, 8)) if cols is None else cols
    entry = entries(spec)
    body = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        i = draw(st.integers(1, rows - 1))
        combo = [0] * cols
        for row in body[:i]:
            c = draw(entry)
            combo = [spec.add(x, spec.mul(c, y)) for x, y in zip(combo, row)]
        body[i] = combo
    return MatrixFq.from_rows(spec, body, cols=cols)


@st.composite
def field_and_matrix(draw, rows=None, cols=None):
    spec = draw(fields)
    return spec, draw(matrices(spec, rows, cols))


# ---------------------------------------------------------------
# properties
# ---------------------------------------------------------------

@PROPERTY
@given(field_and_matrix())
def test_rref_matches_reference(case):
    _, m = case
    r, pivots, rank = m.rref()
    assert (list(r.entries), pivots, rank) == naive_rref(m)


@PROPERTY
@given(field_and_matrix())
def test_kernel_matches_reference(case):
    _, m = case
    ker = m.kernel()
    assert [list(row) for row in ker.row_list()] == naive_kernel(m)
    assert ker.cols == m.cols


@PROPERTY
@given(st.data())
def test_matmul_matches_reference(data):
    spec = data.draw(fields)
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(matrices(spec, n, k)) if k else MatrixFq.zeros(spec, n, 0)
    b = data.draw(matrices(spec, k, m)) if m else MatrixFq.zeros(spec, k, 0)
    prod = a @ b
    assert (prod.rows, prod.cols) == (n, m)
    assert list(prod.entries) == naive_matmul(a, b)


@PROPERTY
@given(st.data())
def test_gramian_matches_reference(data):
    spec = data.draw(fields)
    n, k = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 8))
    g = data.draw(matrices(spec, n, k)) if k else MatrixFq.zeros(spec, n, 0)
    forms = ["euclidean"] + (["hermitian"] if spec.subfield_order else [])
    for form in forms:
        s = g.gramian(form)
        assert (s.rows, s.cols) == (n, n)
        assert list(s.entries) == naive_gramian(g, form)


@PROPERTY
@given(st.data())
def test_pair_reduce_matches_reference(data):
    spec = data.draw(fields)
    k = data.draw(st.integers(0, 6))
    s = data.draw(matrices(spec, k, k)) if k else MatrixFq.zeros(spec, 0, 0)
    p, q, d = pair_reduce_diagonal(s)
    ref = naive_pair_reduce(s)
    assert [[list(r) for r in m.row_list()] for m in (p, q, d)] == list(ref)
    assert p @ s @ q.transpose() == d


@PROPERTY
@given(st.data())
def test_dot_matches_reference(data):
    spec = data.draw(fields)
    n = data.draw(st.integers(0, 10))
    u, v = (data.draw(st.lists(entries(spec), min_size=n, max_size=n)) for _ in range(2))
    forms = ["euclidean"] + (["hermitian"] if spec.subfield_order else [])
    for form in forms:
        want = naive_dot(spec, u, v, form)
        assert dot(spec, u, v, form) == want
        assert dot(spec, tuple(u), tuple(v), form) == want
    with pytest.raises(ValueError):
        dot(spec, u, v + [0])


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_axpy_and_scale_for_every_scalar(spec):
    """Every scalar's table, on rows holding the largest codes, where the
    packed sums come closest to overflowing a byte."""
    kz = spec._core
    rng = random.Random(spec.q)
    n = 12
    u = [spec.q - 1] * 3 + [rng.randrange(spec.q) for _ in range(n - 3)]
    v = [spec.q - 1] * 2 + [0] + [rng.randrange(spec.q) for _ in range(n - 3)]
    pu, pv = kz.pack(u), kz.pack(v)
    scalars = range(spec.q) if spec.q <= 256 else rng.sample(range(spec.q), 64)
    for f in scalars:
        want = [spec.add(x, spec.mul(f, y)) for x, y in zip(u, v)]
        assert list(kz.axpy(pu, f, pv)) == want
        assert list(kz.scale(f, pv)) == [spec.mul(f, y) for y in v]
    assert list(pu) == u and list(pv) == v          # inputs left alone


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_add_into_matches_reference(spec, data):
    kz = spec._core
    n = data.draw(st.integers(0, 10))
    u, v = (data.draw(st.lists(entries(spec), min_size=n, max_size=n)) for _ in range(2))
    want = [spec.add(x, y) for x, y in zip(u, v)]
    for row in (kz.pack(v), tuple(v)):
        buf = list(u)
        assert kz.add_into(buf, row) is None            # in place
        assert buf == want
        assert list(row) == v


def digit_sum(spec, a):
    total = 0
    while a:
        a, d = divmod(a, spec.p)
        total += d
    return total


def conj_lane_filler(spec):
    """The code y whose conjugate, as dot_conj spreads it, has the largest
    lane sum.  dot_conj spreads conj(y) as the sum of the spread conjugates
    of y's low and high digits, so its lanes reach past p - 1; a product
    of the largest code and y has all of them in its middle lane."""
    half = spec.p ** ((spec.m + 1) // 2)

    def best(codes):
        return max(codes, key=lambda a: digit_sum(spec, spec.conjugate(a)))

    return best(range(half)) + best(range(0, spec.q, half))


@pytest.mark.parametrize("spec", [f for f in FIELDS if f.q > 256], ids=lambda s: f"q{s.q}")
@pytest.mark.parametrize("n", [1, 2, 16, 17, 32, 40, 300])
def test_dot_on_long_rows_of_largest_codes(spec, n):
    """Dot products sum their terms unreduced, in chunks the lanes hold:
    rows of the largest code fill every lane of `dot` to its bound, and
    rows of `conj_lane_filler` fill those of `dot_conj`, which finishes
    half as many products at a time, as far as its operands can."""
    rng = random.Random(n)
    rows = [[spec.q - 1] * n, [spec.q - 1] * (n - 1) + [rng.randrange(spec.q)]]
    forms = ["euclidean"]
    if spec.subfield_order:
        forms.append("hermitian")
        rows.append([conj_lane_filler(spec)] * n)
    for u in rows:
        for v in rows:
            for form in forms:
                assert dot(spec, u, v, form) == naive_dot(spec, u, v, form)


def table_lane_edges(spec, limit=300):
    """The inner dimensions k, up to limit, at which the product lanes of
    the table core over an odd prime field grow by a byte; none on other
    fields, whose table core reduces every term."""
    if spec.q > 256 or spec.m > 1 or spec.p == 2:
        return []
    return [k for k in range(2, limit + 1)
            if _prime_lanes(spec.p, k)[0] > _prime_lanes(spec.p, k - 1)[0]]


def inner_dimensions(spec):
    """1 and 300, and either side of each size of the core's products:
    the 32 products a chunk of the lanes core holds, or the lane widths
    of `table_lane_edges`."""
    if spec.q > 256:
        return [1, 31, 32, 33, 64, 300]
    return sorted({1, 300}.union(*({e - 1, e} for e in table_lane_edges(spec))))


MATMUL_CASES = [pytest.param(k, spec, id=f"{k}-q{spec.q}")
                for spec in FIELDS for k in inner_dimensions(spec)]


@pytest.mark.parametrize("k,spec", MATMUL_CASES)
def test_matmul_on_long_rows_of_largest_codes(k, spec):
    """Products sum the terms of each entry unreduced, in lanes or chunks
    sized for them: rows of the largest code fill every lane to its
    bound, on both sides of each size.  The hermitian Gramian on rows of
    `conj_lane_filler` fills them with conjugates."""
    rng = random.Random(k)
    rows = [[spec.q - 1] * k, [spec.q - 1] * (k - 1) + [rng.randrange(spec.q)],
            [rng.randrange(spec.q) for _ in range(k)]]
    a = MatrixFq.from_rows(spec, rows)
    b = a.transpose()
    assert list((a @ b).entries) == naive_matmul(a, b)
    assert spec._core.matmul([], b.row_list()) == []            # A with no rows
    if spec.subfield_order:
        g = MatrixFq.from_rows(spec, rows + [[conj_lane_filler(spec)] * k])
        assert list(g.gramian("hermitian").entries) == naive_gramian(g, "hermitian")


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_matmul_with_one_row_of_b(spec):
    """An inner dimension of 1: each entry of A scales the one row of B."""
    top = spec.q - 1
    a = MatrixFq.from_rows(spec, [[top], [1], [0]])
    b = MatrixFq.from_rows(spec, [[top, 1, 0, top] * 20])
    assert list((a @ b).entries) == naive_matmul(a, b)


# The fields of FIELDS on the lanes core, whose product works on packed
# rows of B and folds a row of A·B once per chunk of nonzero terms.
LANES = [f for f in FIELDS if f.q > 256 and f.m > 1]


@pytest.mark.parametrize("spec", LANES, ids=lambda s: f"q{s.q}")
@pytest.mark.parametrize("terms", [31, 32, 33, 64])
def test_matmul_on_rows_of_a_with_zeros_between_terms(spec, terms):
    """A chunk counts the nonzero entries of a row of A, not its columns:
    rows with `terms` nonzero entries spread among as many zeros, the
    largest code in one of them, and an all-zero row, against a B of the
    largest codes with four columns and with one."""
    rng = random.Random(terms)
    k, top = 2 * terms + 1, spec.q - 1
    rows = []
    for fill in (lambda: top, lambda: rng.randrange(1, spec.q)):
        row = [0] * k
        for t in rng.sample(range(k), terms):
            row[t] = fill()
        rows.append(row)
    a = MatrixFq.from_rows(spec, rows + [[0] * k])
    for cols in (4, 1):
        b = MatrixFq.from_rows(spec, [[top] * (cols - 1) + [rng.randrange(spec.q)]
                                      for _ in range(k)])
        prod = a @ b
        assert list(prod.entries) == naive_matmul(a, b)
        assert list(prod.row(2)) == [0] * cols


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_matmul_on_the_lanes_core_with_long_inner_dimensions(data):
    """Inner dimensions up to 70 reach past one and two chunks of terms."""
    spec = data.draw(st.sampled_from(LANES))
    n, k, m = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 70)), data.draw(st.integers(1, 4))
    a, b = data.draw(matrices(spec, n, k)), data.draw(matrices(spec, k, m))
    assert list((a @ b).entries) == naive_matmul(a, b)


# ---------------------------------------------------------------
# rank, and elimination on the widest fields
# ---------------------------------------------------------------

@PROPERTY
@given(st.data())
def test_rank_matches_reference(data):
    """`rank` is forward elimination, the first half of `rref`, on every
    core: on the lanes core without fractions."""
    spec = data.draw(fields)
    m = data.draw(matrices(spec, cols=data.draw(st.integers(0, 8))))
    assert m.rank == naive_rref(m)[2]


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
def test_rank_of_long_rank_deficient_rows(spec):
    """Forward elimination on rows of 70 entries: 8 random rows, 4 sums
    of them and a zero row, after two zero columns, so some pivots skip
    a column and some rows eliminate to zero."""
    rng = random.Random(spec.q)
    base = [[0, 0] + [rng.choice([0, 1, spec.q - 1, rng.randrange(spec.q)]) for _ in range(68)]
            for _ in range(8)]
    rows = base + [[0] * 70]
    for _ in range(4):
        combo = [0] * 70
        for row in rng.sample(base, 3):
            c = rng.randrange(1, spec.q)
            combo = [spec.add(x, spec.mul(c, y)) for x, y in zip(combo, row)]
        rows.insert(rng.randrange(len(rows) + 1), combo)
    m = MatrixFq.from_rows(spec, rows)
    assert m.rank == naive_rref(m)[2] == 8
    assert m.transpose().rank == 8


@pytest.mark.parametrize("spec", FIELDS, ids=lambda s: f"q{s.q}")
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0)])
def test_elimination_of_empty_shapes(spec, shape):
    z = MatrixFq.zeros(spec, *shape)
    assert z.rank == 0
    assert z.rref() == (z, (), 0)
    assert z.kernel() == MatrixFq.identity(spec, shape[1])


# The fields of the bulk-wide-q benchmark workload that FIELDS lacks:
# the lanes core with m up to 16, the widest slots of its packed rows.
WIDEST = [make_field(p, m) for p, m in [(2, 16), (3, 10), (5, 6), (7, 5)]]


def assert_elimination_matches_reference(m):
    r, pivots, rank = m.rref()
    flat, want_pivots, want_rank = naive_rref(m)
    assert (list(r.entries), pivots, rank) == (flat, want_pivots, want_rank)
    assert m.rank == want_rank
    assert [list(row) for row in m.kernel().row_list()] == naive_kernel(m)


@PROPERTY
@given(st.data())
def test_forward_elimination_finds_the_pivots_of_rref(data):
    """`rref(rows, False)` is the forward half of `rref(rows)`: it clears
    below each pivot only and normalizes no row, yet finds the same
    pivot columns, on every core."""
    spec = data.draw(st.sampled_from(FIELDS + WIDEST))
    rows = data.draw(matrices(spec, cols=data.draw(st.integers(0, 8)))).row_list()
    assert spec._core.rref(rows, False)[1] == spec._core.rref(rows)[1]


@pytest.mark.parametrize("spec", WIDEST, ids=repr)
def test_elimination_on_rows_of_largest_codes(spec):
    """q - 1 has every digit p - 1, so its products fill the lanes of a
    slot the most."""
    rng = random.Random(spec.q)
    top = spec.q - 1
    rows = [[top] * 10, [top] * 9 + [1]]
    rows += [[top if rng.random() < 0.7 else rng.randrange(spec.q) for _ in range(10)]
             for _ in range(5)]
    assert_elimination_matches_reference(MatrixFq.from_rows(spec, rows))
    assert_elimination_matches_reference(MatrixFq.from_rows(spec, rows).transpose())


@pytest.mark.parametrize("spec", WIDEST, ids=repr)
def test_elimination_of_a_40_by_40_matrix_with_dependent_rows(spec):
    """36 random rows and 4 combinations of them: more pivots than the
    lanes hold products, and rows that eliminate to zero."""
    rng = random.Random(spec.q)
    base = [[rng.randrange(spec.q) for _ in range(40)] for _ in range(36)]
    rows = base[:]
    for _ in range(4):
        combo = [0] * 40
        for row in rng.sample(base, 3):
            c = rng.randrange(1, spec.q)
            combo = [spec.add(x, spec.mul(c, y)) for x, y in zip(combo, row)]
        rows.insert(rng.randrange(len(rows) + 1), combo)
    m = MatrixFq.from_rows(spec, rows)
    assert_elimination_matches_reference(m)
    assert m.rank == 36


@pytest.mark.parametrize("spec", FIELDS + WIDEST, ids=repr)
def test_already_reduced_rows_come_back_unchanged(spec):
    """[I | X] is in reduced row echelon form: the core's `rref` returns
    the values it was given."""
    rng = random.Random(spec.q)
    k, n = 5, 9
    rows = [tuple([int(i == j) for j in range(k)]
                  + [rng.choice([0, 1, spec.q - 1, rng.randrange(spec.q)]) for _ in range(n - k)])
            for i in range(k)]
    m = MatrixFq.from_rows(spec, rows)
    assert m.rref() == (m, tuple(range(k)), k)
    assert_elimination_matches_reference(m)
    out, pivots = spec._core.rref(rows)
    assert pivots == list(range(k))
    assert [tuple(row) for row in out] == rows
