"""Acceptance suite: one test per advertised guarantee, exact arithmetic
throughout, every tolerance zero.  Each test prints a PASS line so the
suite reads as a checklist under ``pytest -v -s``."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from hullforge import cli, oracle
from hullforge.codes import (DEFAULT_BUDGET, LinearCode, dual, hull,
                             is_hull_maximal_so_in, is_lcd, make_code,
                             min_distance, random_code, random_invertible)
from hullforge.diag import (NotLcdError, diagonalize_maximal_hull,
                            diagonalize_odd, orthogonal_basis_lcd,
                            pair_diagonal_generators)
from hullforge.eaqecc import (EaqeccRecord, base_params, extend_euclidean,
                              extend_hermitian, rate_report)
from hullforge.gf import make_field
from hullforge.matfq import MatrixFq, dot, row_space_equal

FIELDS = {q: make_field(*pm) for q, pm in
          {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
           8: (2, 3), 9: (3, 2), 49: (7, 2)}.items()}


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def oracle_hull_dim(code, form="euclidean"):
    """Hull dimension by brute-force enumeration of the cheaper side.

    The hull is literally the intersection of the code and its dual, a
    set symmetric in the two, so enumerating whichever of them is
    smaller gives the same answer while staying inside the budget.
    """
    q = code.spec.q
    if q ** code.k <= DEFAULT_BUDGET and code.k <= code.n - code.k:
        return oracle.hull_by_enumeration(code, form)[1]
    d = dual(code, form)
    if d is None:
        return 0
    return oracle.hull_by_enumeration(d, form)[1]


# ----------------------------------------------------------------------
# 1. Gramian rank law
# ----------------------------------------------------------------------

def test_criterion_01_gramian_rank_law():
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = FIELDS[q]
        rng = random.Random(10_000 + q)
        for _ in range(500):
            n = rng.randint(1, 12)
            k = rng.randint(1, n)
            c = random_code(spec, n, k, rng.randrange(2 ** 30))
            rank_g = c.gen.gramian().rank
            d = dual(c)
            rank_h = 0 if d is None else d.gen.gramian().rank
            ell = oracle_hull_dim(c)
            assert k - rank_g == ell
            assert n - k - rank_h == ell
            checked += 1
    assert checked == 3500
    _report(1, f"({checked} codes)")


# ----------------------------------------------------------------------
# 2. Generator independence
# ----------------------------------------------------------------------

def test_criterion_02_generator_independence():
    rng = random.Random(202)
    qs = (2, 3, 4, 5, 7, 9)
    for i in range(100):
        spec = FIELDS[qs[i % len(qs)]]
        n = rng.randint(2, 10)
        k = rng.randint(1, n)
        c = random_code(spec, n, k, rng.randrange(2 ** 30))
        ell = hull(c).ell
        e1 = random_invertible(spec, k, rng)
        e2 = random_invertible(spec, k, rng)
        cross = (e1 @ c.gen) @ (e2 @ c.gen).transpose()
        assert cross.rank == k - ell
    _report(2, "(100 codes)")


# ----------------------------------------------------------------------
# 3. Odd-characteristic diagonalization
# ----------------------------------------------------------------------

def check_diagonalization(c, form):
    res = diagonalize_odd(c, form)
    gram = res.new_gen.gramian(form)
    for i in range(c.k):
        for j in range(c.k):
            assert gram[i, j] == (res.diagonal[i] if i == j else 0)
    assert row_space_equal(res.new_gen, c.gen)
    ell = hull(c, form).ell
    assert res.nonzero_count == c.k - ell
    assert all(res.diagonal[:res.nonzero_count])
    assert not any(res.diagonal[res.nonzero_count:])


def test_criterion_03_odd_characteristic_diagonalization():
    for q in (3, 5, 7, 9):
        spec = FIELDS[q]
        rng = random.Random(300 + q)
        for _ in range(50):
            n = rng.randint(1, 10)
            k = rng.randint(1, n)
            check_diagonalization(random_code(spec, n, k, rng.randrange(2 ** 30)),
                                  "euclidean")
    for q in (9, 49):
        spec = FIELDS[q]
        rng = random.Random(390 + q)
        for _ in range(100):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            check_diagonalization(random_code(spec, n, k, rng.randrange(2 ** 30)),
                                  "hermitian")
    _report(3, "(200 euclidean + 200 hermitian)")


# ----------------------------------------------------------------------
# 4. LCD <=> orthogonal basis
# ----------------------------------------------------------------------

def test_criterion_04_lcd_orthogonal_basis():
    lcd_count = refused_count = 0
    for q in (3, 5, 7):
        spec = FIELDS[q]
        rng = random.Random(400 + q)
        samples = []
        for _ in range(40):
            n = rng.randint(2, 9)
            samples.append(random_code(spec, n, rng.randint(1, min(5, n)),
                                       rng.randrange(2 ** 30)))
        # guaranteed non-LCD sample: a self-orthogonal one-dimensional code
        iso = {3: [1, 1, 1], 5: [1, 2], 7: [1, 2, 3]}[q]
        samples.append(make_code(spec, MatrixFq.from_rows(spec, [iso])))
        for c in samples:
            if is_lcd(c):
                rows = orthogonal_basis_lcd(c)
                assert len(rows) == c.k
                for i, r in enumerate(rows):
                    assert dot(spec, r, r) != 0
                    for j in range(i + 1, c.k):
                        assert dot(spec, r, rows[j]) == 0
                lcd_count += 1
            else:
                with pytest.raises(NotLcdError) as err:
                    orthogonal_basis_lcd(c)
                assert err.value.hull_dim == hull(c).ell > 0
                refused_count += 1
    assert lcd_count and refused_count
    _report(4, f"({lcd_count} bases, {refused_count} refusals)")


# ----------------------------------------------------------------------
# 5 and 6. Exhaustive even-characteristic checks
# ----------------------------------------------------------------------

def gaussian_binomial(n, k, q):
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def all_codes(spec, n):
    """Every nonzero code of length n, one canonical rref generator each."""
    q = spec.q
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            pivot_set = set(pivots)
            free = [(i, j) for i in range(k) for j in range(n)
                    if j > pivots[i] and j not in pivot_set]
            for values in product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                gen = MatrixFq.from_rows(spec, rows)
                yield LinearCode(spec, n, k, gen)


@pytest.fixture(scope="module")
def exhaustive_even_char():
    cases = []                         # (code, form, ell, maximal)
    for q, n_max, forms in ((2, 6, ("euclidean",)),
                            (4, 4, ("euclidean", "hermitian"))):
        spec = FIELDS[q]
        for n in range(1, n_max + 1):
            seen = 0
            for c in all_codes(spec, n):
                seen += 1
                for form in forms:
                    # Maximality first: it ranks S itself, where after
                    # `hull` it would read back the rank k - ell stored
                    # with the hull rows.
                    maximal = is_hull_maximal_so_in(c, form)
                    rep = hull(c, form)
                    cases.append((c, form, rep.ell, maximal))
            expected = sum(gaussian_binomial(n, k, q) for k in range(1, n + 1))
            assert seen == expected
    return cases


def test_criterion_05_even_characteristic_biconditional(exhaustive_even_char):
    for c, form, ell, maximal in exhaustive_even_char:
        assert maximal == (c.k - ell <= 1), (c, form)
    _report(5, f"({len(exhaustive_even_char)} code/form pairs)")


def test_criterion_06_maximal_hull_diagonalization(exhaustive_even_char):
    count = 0
    for c, form, ell, maximal in exhaustive_even_char:
        if not maximal:
            continue
        res = diagonalize_maximal_hull(c, form)
        gram = res.new_gen.gramian(form)
        for i in range(c.k):
            for j in range(c.k):
                assert gram[i, j] == (res.diagonal[i] if i == j else 0)
        assert row_space_equal(res.new_gen, c.gen)
        assert res.nonzero_count == c.k - ell
        assert all(res.diagonal[:res.nonzero_count])
        assert not any(res.diagonal[res.nonzero_count:])
        count += 1
    assert count
    _report(6, f"({count} diagonalizations)")


def test_closed_form_maximality_matches_enumeration(exhaustive_even_char):
    """`is_hull_maximal_so_in` decides from rank S in closed form, and
    criterion 05 restates that rule for even q, so the rule is checked
    here against the brute-force oracle: on criterion 05's exhaustive
    set, and on seeded random odd-order codes, where r = 2 is decided by
    the square class of -det."""
    for c, form, ell, maximal in exhaustive_even_char:
        assert maximal == oracle.maximal_so_by_enumeration(c, form), (c, form)
    rank_two = set()
    rng = random.Random(505)
    for spec in (FIELDS[3], FIELDS[5], FIELDS[7], FIELDS[9], make_field(5, 2)):
        forms = ("euclidean", "hermitian") if spec.m == 2 else ("euclidean",)
        for _ in range(40):
            n = rng.randint(2, 6)
            k = rng.randint(2, min(n, 3 if spec.q <= 9 else 2))
            c = random_code(spec, n, k, rng.randrange(2 ** 30))
            for form in forms:
                maximal = is_hull_maximal_so_in(c, form)
                assert maximal == oracle.maximal_so_by_enumeration(c, form), (c, form)
                if form == "euclidean" and c.gen.gramian(form).rank == 2:
                    rank_two.add(maximal)
    assert rank_two == {True, False}


# ----------------------------------------------------------------------
# 7. Base parameters on the distance-3 fixture
# ----------------------------------------------------------------------

def test_criterion_07_base_parameters(fixtures_dir):
    code = cli.parse_code_file((fixtures_dir / "hamming74.code").read_text())
    assert oracle_hull_dim(code) == 3
    golden = (fixtures_dir / "golden" / "hamming74.hull.euclidean.golden").read_text()
    words = [tuple(int(t) for t in line.split())
             for line in golden.splitlines()
             if line and not line.startswith("#")][1:]
    members = {tuple(w) for w, in_hull in oracle._hull_walk(code, "euclidean") if in_hull}
    assert oracle.hull_by_enumeration(code) == (8, 3) and members == set(words)
    primary, dual_side = base_params(code)
    assert (primary.n, primary.k_logical, primary.d_exact, primary.c,
            primary.q) == (7, 1, 3, 0, 2)
    assert (dual_side.n, dual_side.k_logical, dual_side.d_exact,
            dual_side.c, dual_side.q) == (7, 0, 4, 1, 2)
    _report(7)


# ----------------------------------------------------------------------
# 8 and 9. Length extensions
# ----------------------------------------------------------------------

def rebuild_parity(code, cert, r, form):
    """Reconstruct the extended parity-check matrix from the certificate."""
    spec = code.spec
    d = dual(code, form)
    rows = [[0] * r + list(row) for row in ([] if d is None else d.gen.row_list())]
    for i in range(r):
        row = [0] * r + list(cert.x_rows[i])
        row[i] = cert.alphas[i]
        rows.append(row)
    return MatrixFq.from_rows(spec, rows, cols=code.n + r)


def check_extension(code, r, form):
    spec = code.spec
    ell = hull(code, form).ell
    d = min_distance(code)
    if form == "euclidean":
        cert, record = extend_euclidean(code, r)
    else:
        cert, record = extend_hermitian(code, r)
    n, k = code.n, code.k

    assert cert.hull_preserved
    assert hull(cert.extended, form).ell == ell
    assert oracle_hull_dim(cert.extended, form) == ell
    assert cert.extended.n == n + r and cert.extended.k == k
    assert d <= cert.d_prime <= d + r
    assert record.d_exact == cert.d_prime
    assert (record.n, record.k_logical, record.c) == (n + r, k - ell, n - k - ell + r)

    hp = rebuild_parity(code, cert, r, form)
    assert hp.gramian(form).rank == n - k - ell + r
    kernel = hp.kernel() if form == "euclidean" else hp.conjugate().kernel()
    assert make_code(spec, kernel) == cert.extended

    q0 = spec.subfield_order
    for a, x in zip(cert.alphas, cert.x_rows):
        assert a != 0
        if form == "euclidean":
            assert spec.mul(a, a) != spec.neg(dot(spec, x, x))
        else:
            assert spec.pow(a, q0 + 1) != spec.neg(dot(spec, x, x, "hermitian"))
    return ell


def test_criterion_08_euclidean_extension():
    fixtures = []
    for q in (5, 7):
        spec = FIELDS[q]
        rng = random.Random(800 + q)
        while len(fixtures) < 10 * (1 if q == 5 else 2):
            n = rng.randint(4, 10)
            k = rng.randint(2, min(5, n - 1))
            fixtures.append(random_code(spec, n, k, rng.randrange(2 ** 30)))
    assert len(fixtures) >= 20
    runs = 0
    ells = set()
    for c in fixtures:
        ell = hull(c).ell
        ells.add(ell)
        for r in range(c.k - ell + 1):
            check_extension(c, r, "euclidean")
            runs += 1
    assert len(ells) > 1                # fixtures exercise several hull sizes
    _report(8, f"({len(fixtures)} fixtures, {runs} extensions)")


def test_criterion_09_hermitian_extension():
    spec = FIELDS[9]
    rng = random.Random(900)
    fixtures = []
    while len(fixtures) < 12:
        n = rng.randint(3, 7)
        k = rng.randint(1, min(3, n - 1))
        fixtures.append(random_code(spec, n, k, rng.randrange(2 ** 30)))
    runs = 0
    for c in fixtures:
        ell = hull(c, "hermitian").ell
        for r in range(c.k - ell + 1):
            check_extension(c, r, "hermitian")
            runs += 1
    _report(9, f"({len(fixtures)} fixtures, {runs} extensions)")


# ----------------------------------------------------------------------
# 10. Rate algebra
# ----------------------------------------------------------------------

def test_criterion_10_rate_algebra():
    rng = random.Random(1000)
    for _ in range(1000):
        n = rng.randint(1, 40)
        k = rng.randint(1, n)
        ell = rng.randint(0, min(k, n - k))
        r = rng.randint(0, k - ell)
        record = EaqeccRecord(
            n=n + r, k_logical=k - ell, d_exact=None, d_bounds=(1, n + r),
            c=n - k - ell + r, q=5, rate=Fraction(k - ell, n + r),
            net_rate=Fraction(2 * k - n - r, n + r),
            provenance="ext-euclidean", r=r)
        rep = rate_report(record, n, k, ell, r)
        assert rep.net_rate == Fraction(2 * k - n - r, n + r)
        assert isinstance(rep.rate, Fraction) and isinstance(rep.net_rate, Fraction)
        assert rep.net_rate_positive == (2 * k > n and r < 2 * k - n)
        assert rep.net_rate_positive == (rep.net_rate > 0)
        if 4 * k >= 3 * n + r:
            assert rep.high_dimension_condition
            assert rep.rate >= Fraction(1, 2)
    _report(10, "(1000 tuples)")


# ----------------------------------------------------------------------
# 11. Oracle agreement and verify on the fixture set
# ----------------------------------------------------------------------

def test_criterion_11_oracle_agreement_and_verify(fixtures_dir, capsys):
    paths = sorted(fixtures_dir.glob("*.code"))
    assert paths
    for path in paths:
        code = cli.parse_code_file(path.read_text())
        assert min_distance(code) == oracle.min_distance_by_enumeration(code)
        forms = ["euclidean"]
        if code.spec.subfield_order is not None:
            forms.append("hermitian")
        for form in forms:
            ell = code.k - code.gen.gramian(form).rank
            assert ell == oracle.hull_by_enumeration(code, form)[1]
            assert cli.main(["verify", str(path), "--form", form]) == 0
    capsys.readouterr()
    _report(11, f"({len(paths)} fixtures)")
