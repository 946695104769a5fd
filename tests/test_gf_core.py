"""The arithmetic core of `gf` against a schoolbook reference that
multiplies digit lists with `poly_mul` and reduces them with
`_poly_mod`, over fields on both sides of the table limit."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullforge
from hullforge.gf import _poly_mod, _Tables, make_field
from test_rows import FIELDS

# Above the table limit: GF(2^16) and GF(3^10) are the largest fields of
# their characteristic, GF(17^2) and GF(251^2) have square order, and
# GF(257) and GF(65521) are prime fields.
WIDE = [make_field(p, m) for p, m in
        [(2, 9), (2, 16), (3, 6), (3, 10), (5, 6), (7, 5), (11, 3), (17, 2),
         (251, 2), (257, 1), (65521, 1)]]
TABLED = [make_field(p, m) for p, m in [(2, 4), (7, 2), (5, 3), (3, 5), (2, 8)]]

PROPERTY = settings(max_examples=300, deadline=None)


def poly_mul(a, b, p):
    """The schoolbook product of two digit lists over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


class Schoolbook:
    """One field's arithmetic on digit lists, one polynomial at a time."""

    def __init__(self, spec):
        self.p, self.m, self.q = spec.p, spec.m, spec.q
        self.modulus = spec.modulus

    def digits(self, a):
        out = []
        for _ in range(self.m):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def code(self, digits):
        c = 0
        for d in reversed(digits):
            c = c * self.p + d
        return c

    def add(self, a, b):
        return self.code([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.code([-x % self.p for x in self.digits(a)])

    def mul(self, a, b):
        prod = poly_mul(self.digits(a), self.digits(b), self.p)
        return self.code(_poly_mod(prod, self.modulus, self.p))

    def pow(self, a, e):
        out = 1
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inv(self, a):
        return self.pow(a, self.q - 2)


def special_elements(spec):
    """0, 1, q - 1 (every digit p - 1, so the widest lane sums), and the
    codes whose low or high half of the digits are all p - 1."""
    half = spec.p ** ((spec.m + 1) // 2)
    return [0, 1, spec.q - 1, half - 1, spec.q - half, spec.q - 2]


def elements(spec):
    return st.one_of(st.sampled_from(special_elements(spec)), st.integers(0, spec.q - 1))


@st.composite
def field_and_elements(draw, count=2):
    spec = draw(st.sampled_from(WIDE))
    return (spec, *(draw(elements(spec)) for _ in range(count)))


# ---------------------------------------------------------------
# the core, q > 256
# ---------------------------------------------------------------

@pytest.mark.parametrize("spec", WIDE, ids=repr)
def test_special_elements_against_reference(spec):
    ref = Schoolbook(spec)
    for a in special_elements(spec):
        for b in special_elements(spec):
            assert spec.mul(a, b) == ref.mul(a, b), (a, b)
            assert spec.add(a, b) == ref.add(a, b), (a, b)
            assert spec.sub(a, b) == ref.add(a, ref.neg(b)), (a, b)
        assert spec.neg(a) == ref.neg(a)
        if a:
            assert spec.inv(a) == ref.inv(a)
    assert not isinstance(spec._core, _Tables)


@PROPERTY
@given(field_and_elements())
def test_mul_add_sub_neg_match_reference(case):
    spec, a, b = case
    ref = Schoolbook(spec)
    assert spec.mul(a, b) == ref.mul(a, b)
    assert spec.add(a, b) == ref.add(a, b)
    assert spec.sub(a, b) == ref.add(a, ref.neg(b))
    assert spec.neg(a) == ref.neg(a)


@PROPERTY
@given(field_and_elements(count=1), st.integers(-70000, 70000))
def test_inv_and_pow_match_reference(case, e):
    spec, a = case
    ref = Schoolbook(spec)
    if a == 0:
        with pytest.raises(ValueError):
            spec.inv(a)
        if e >= 0:
            assert spec.pow(a, e) == ref.pow(a, e)
        return
    assert spec.inv(a) == ref.inv(a)
    want = ref.pow(a, e) if e >= 0 else ref.pow(ref.inv(a), -e)
    assert spec.pow(a, e) == want


@PROPERTY
@given(field_and_elements(count=1), st.data())
def test_conjugate_and_frobenius_match_reference(case, data):
    spec, a = case
    ref = Schoolbook(spec)
    e = data.draw(st.integers(0, spec.m))
    assert spec.frobenius(a, e) == ref.pow(a, spec.p ** e)
    if spec.subfield_order is not None:
        assert spec.conjugate(a) == ref.pow(a, spec.subfield_order)


# Every field of tests/test_rows.py with q <= 256, and GF(97), GF(193),
# GF(241) and GF(257), where 2^5, 2^6, 2^4 and 2^8 divide q - 1, so
# Tonelli-Shanks runs its inner loop.
SQRT_FIELDS = ([(3, 6), (17, 2)] + [(f.p, f.m) for f in FIELDS if f.q <= 256]
               + [(97, 1), (193, 1), (241, 1), (257, 1)])


@pytest.mark.parametrize("p,m", SQRT_FIELDS)
def test_sqrt_and_is_square_exhaustive(p, m):
    """Tonelli-Shanks, Euler's criterion and, in characteristic 2, the
    root a^(q/2) against a scan of every square."""
    spec = make_field(p, m)
    ref = Schoolbook(spec)
    smallest_root = {}
    for y in range(spec.q):
        smallest_root.setdefault(ref.mul(y, y), y)
    assert len(smallest_root) == (spec.q if p == 2 else (spec.q + 1) // 2)
    for a in range(spec.q):
        assert spec.sqrt(a) == smallest_root.get(a), a
        assert spec.is_square(a) == (a in smallest_root), a


# ---------------------------------------------------------------
# tables derived from exp/log, q <= 256
# ---------------------------------------------------------------

@pytest.mark.parametrize("spec", TABLED, ids=repr)
def test_tables_equal_schoolbook_tables(spec):
    ref = Schoolbook(spec)
    q = spec.q
    mul = [bytes(ref.mul(a, b) for b in range(q)) for a in range(q)]
    core = spec._core
    assert core.mul_table == mul
    assert core.add_table == [[ref.add(a, b) for b in range(q)] for a in range(q)]
    assert [core.neg(a) for a in range(q)] == [ref.neg(a) for a in range(q)]
    assert [core.inv(a) for a in range(q)] == [None] + [mul[a].index(1) for a in range(1, q)]
    if spec.subfield_order is None:
        assert core.conj is None
    else:
        assert [core.conj(a) for a in range(q)] == [ref.pow(a, spec.subfield_order)
                                                    for a in range(q)]
    roots = {}
    for y in range(q):
        roots.setdefault(mul[y][y], y)
    assert [spec.sqrt(a) for a in range(q)] == [roots.get(a) for a in range(q)]


# ---------------------------------------------------------------
# the cores stay behind gf
# ---------------------------------------------------------------

def test_no_module_but_gf_names_a_core():
    """Every module but `gf` reaches field arithmetic through the
    operations every core has, so none can branch on the kind of core."""
    package = Path(hullforge.__file__).parent
    sources = sorted(path for path in package.glob("*.py") if path.name != "gf.py")
    assert sources
    for path in sources:
        text = path.read_text()
        for name in ("_Tables", "_Lanes", "_Prime", "mul_table", "add_table"):
            assert name not in text, f"{path.name} names {name}"
