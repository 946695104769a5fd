import pytest

from hullforge.gf import FieldSpec, _Tables, make_field, modulus_str

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


# ---------------------------------------------------------------
# Construction and modulus choice
# ---------------------------------------------------------------

def test_prime_field_modulus_is_x():
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(7, 1).modulus == (0, 1)


def test_gf4_modulus_unique_quadratic():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def test_gf9_modulus_matches_enumeration_oracle():
    # Independent search: monic quadratics over GF(3) in low-coefficient
    # order, irreducible iff no root in GF(3).
    expected = None
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                expected = (c0, c1, 1)
                break
        if expected:
            break
    assert make_field(3, 2).modulus == expected == (1, 0, 1)


def test_subfield_order_present_iff_even_degree():
    assert make_field(3, 2).subfield_order == 3
    assert make_field(2, 2).subfield_order == 2
    assert make_field(5, 1).subfield_order is None
    assert make_field(2, 3).subfield_order is None


def test_construction_is_bit_identical():
    a = FieldSpec(3, 2)
    b = FieldSpec(3, 2)
    assert a.modulus == b.modulus
    assert a._core.mul_table == b._core.mul_table
    assert a._core.add_table == b._core.add_table


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(6, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 17)  # 2^17 over the order cap
    # a huge p or m is refused before the primality test and the power,
    # each of which would run for minutes
    for p, m in ((2 ** 61 - 1, 1), (3, 10 ** 8), (65537, 1)):
        with pytest.raises(ValueError, match="exceeds the cap"):
            make_field(p, m)
    # a prime p and m under the first check, with p^m over the cap
    for p, m in ((3, 11), (257, 2)):
        with pytest.raises(ValueError, match="exceeds the cap"):
            FieldSpec(p, m)


@pytest.mark.parametrize("p,m,message", [(2, True, "extension degree"),
                                         (3, False, "extension degree"),
                                         (True, 1, "not prime"),
                                         (2, 1.0, "extension degree"),
                                         (2.0, 1, "not prime")])
def test_construction_rejects_non_int_arguments(p, m, message):
    """A bool is an int to isinstance; it is refused all the same, also
    when GF(2) is already cached, and nothing is cached for it."""
    make_field(2, 1)
    with pytest.raises(ValueError, match=message):
        make_field(p, m)
    with pytest.raises(ValueError, match=message):
        FieldSpec(p, m)
    gf2 = make_field(2, 1)
    assert type(gf2.m) is int and gf2.m == 1 and type(gf2.p) is int


def test_modulus_str():
    assert modulus_str(make_field(2, 2)) == "x^2 + x + 1"
    assert modulus_str(make_field(2, 1)) == "x"


# ---------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------

def test_pinned_arithmetic():
    assert make_field(2, 1).add(1, 1) == 0
    assert make_field(5, 1).inv(2) == 3
    assert make_field(2, 2).mul(2, 2) == 3  # x * x = x + 1


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    # associativity and distributivity on all triples
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_inverses(p, m):
    f = make_field(p, m)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ValueError):
        f.inv(0)


def test_pow_square_and_multiply():
    f = make_field(3, 2)
    for a in range(1, f.q):
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
        assert f.pow(a, -1) == f.inv(a)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 3) == 0


# ---------------------------------------------------------------
# Frobenius and conjugation
# ---------------------------------------------------------------

def test_frobenius_pinned():
    f4 = make_field(2, 2)
    assert f4.frobenius(2, 1) == 3  # x -> x^2 = x + 1
    f2 = make_field(2, 1)
    for e in range(2):
        assert f2.frobenius(1, e) == 1


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_frobenius_m_is_identity(p, m):
    f = make_field(p, m)
    for x in range(f.q):
        assert f.frobenius(x, m) == x


def test_conjugation_involution():
    f9 = make_field(3, 2)
    for x in range(9):
        assert f9.conjugate(f9.conjugate(x)) == x
    # fixes exactly the subfield copy: the subfield of GF(9) is GF(3)
    fixed = [x for x in range(9) if f9.conjugate(x) == x]
    assert len(fixed) == 3


def test_conjugation_needs_even_degree():
    with pytest.raises(ValueError):
        make_field(5, 1).conjugate(2)
    with pytest.raises(ValueError):
        make_field(3, 2).frobenius(1, 5)


# ---------------------------------------------------------------
# Squares
# ---------------------------------------------------------------

def test_squares_gf5():
    f = make_field(5, 1)
    squares = {f.mul(x, x) for x in range(5)}
    assert squares == {0, 1, 4}
    assert not f.is_square(2)
    assert f.sqrt(2) is None
    assert f.is_square(1)


def test_sqrt_everywhere_in_even_characteristic():
    for p, m in [(2, 1), (2, 2), (2, 3)]:
        f = make_field(p, m)
        for x in range(f.q):
            r = f.sqrt(x)
            assert r is not None
            assert f.mul(r, r) == x


def test_sqrt_canonical_and_odd_count():
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        f = make_field(p, m)
        squares = [x for x in range(f.q) if f.is_square(x)]
        assert len(squares) == (f.q + 1) // 2
        for x in squares:
            r = f.sqrt(x)
            assert f.mul(r, r) == x
            others = [y for y in range(f.q) if f.mul(y, y) == x]
            assert r == min(others)


def test_elements_order():
    assert list(make_field(2, 1).elements()) == [0, 1]
    assert list(make_field(2, 2).elements()) == [0, 1, 2, 3]
    assert list(make_field(5, 1).elements()) == [0, 1, 2, 3, 4]


def test_large_field_without_tables():
    f = make_field(2, 9)  # q = 512 > table cap
    assert not isinstance(f._core, _Tables)
    assert f.mul(2, f.inv(2)) == 1
    assert f.frobenius(5, 9) == 5
    r = f.sqrt(7)
    assert f.mul(r, r) == 7


def test_large_odd_field_without_tables():
    f = make_field(3, 6)  # q = 729, odd characteristic, no tables
    assert not isinstance(f._core, _Tables)
    assert f.subfield_order == 27
    assert f.conjugate(f.conjugate(11)) == 11
    assert f.mul(11, f.inv(11)) == 1
    squares = [f.mul(x, x) for x in (0, 1, 5, 100)]
    for s in squares:
        assert f.is_square(s)
        r = f.sqrt(s)
        assert r is not None and f.mul(r, r) == s
