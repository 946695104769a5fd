"""Exact arithmetic in small finite fields GF(p^m).

Field elements are integer codes in [0, q).  The base-p digits of a code
are the coefficients of a polynomial over GF(p); digit i holds the
coefficient of x^i, so code 0 is the additive identity and code 1 the
multiplicative identity.  Arithmetic is polynomial arithmetic modulo a
fixed monic irreducible polynomial.

The modulus is always the lexicographically smallest monic irreducible
polynomial of degree m over GF(p), comparing coefficient vectors from
the constant term upward.  No external polynomial tables are consulted,
so constructing the same field twice gives bit-identical results:

    p=2, m=1 : x
    p=2, m=2 : x^2 + x + 1
    p=2, m=3 : x^3 + x^2 + 1
    p=3, m=2 : x^2 + 1
    p=5, m=2 : x^2 + x + 1
    p=7, m=2 : x^2 + 1

Field orders are capped at 2^16.  Fields with q <= 256 get dense
operation tables (add, mul, neg, inv, conj, sqrt; subtraction adds the
negative), built once per field by schoolbook polynomial arithmetic;
larger fields compute every operation from the polynomials.

The methods of FieldSpec do arithmetic on single elements.  Row
operations read the tables directly, through the kernels in
`hullforge._rows`, which are built the first time a field is used,
never at import.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

ORDER_LIMIT = 1 << 16
TABLE_LIMIT = 256


def is_prime(n: int) -> bool:
    """Trial-division primality test, ample for orders up to 2^16."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ----------------------------------------------------------------------
# Polynomials over GF(p), little-endian coefficient tuples
# ----------------------------------------------------------------------

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(f, g, p):
    """Remainder of f modulo a monic polynomial g."""
    f = list(f)
    dg = len(g) - 1
    while len(f) > dg:
        lead = f[-1]
        if lead:
            shift = len(f) - 1 - dg
            for i in range(dg):
                f[shift + i] = (f[shift + i] - lead * g[i]) % p
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return f


def _monic_polys(p, degree):
    """All monic polynomials of the given degree, low coefficients first."""
    for tail in product(range(p), repeat=degree):
        yield list(tail) + [1]


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    degree = len(poly) - 1
    if degree == 1:
        return True
    if poly[0] == 0:           # divisible by x
        return False
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_mod(poly, g, p):
                return False
    return True


def _smallest_irreducible(p, m):
    for candidate in _monic_polys(p, m):
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


# ----------------------------------------------------------------------
# Field
# ----------------------------------------------------------------------

class FieldSpec:
    """The field GF(p^m) with its deterministic modulus.

    Instances are immutable after construction and every operation is a
    pure function of its arguments, so a FieldSpec may be shared freely
    across threads.

    Attributes
    ----------
    p : int
        Characteristic (prime).
    m : int
        Extension degree.
    q : int
        Field order p^m, capped at 2^16.
    modulus : tuple[int, ...]
        Monic irreducible modulus, length m+1, low coefficients first.
    subfield_order : int | None
        p^(m/2) when m is even; enables the conjugation x -> x^(p^(m/2))
        and with it the Hermitian form.  None for odd m.
    """

    __slots__ = ("p", "m", "q", "modulus", "subfield_order",
                 "add_table", "mul_table",
                 "neg_table", "inv_table", "conj_table", "_sqrt_table")

    def __init__(self, p: int, m: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        q = p ** m
        if q > ORDER_LIMIT:
            raise ValueError(f"field order {p}^{m} exceeds the cap {ORDER_LIMIT}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _smallest_irreducible(p, m)
        self.subfield_order = p ** (m // 2) if m % 2 == 0 else None

        # Dense tables make the linear-algebra layers fast for the tiny
        # fields this package targets.  Larger fields fall back to the
        # raw polynomial routines.
        if q <= TABLE_LIMIT:
            self._build_tables()
        else:
            self.add_table = None
            self.mul_table = None
            self.neg_table = None
            self.inv_table = None
            self.conj_table = None
            self._sqrt_table = None

    # -- construction helpers -------------------------------------------

    def _build_tables(self):
        q = self.q
        # Rows of mul_table are bytes, a quarter of the memory of lists:
        # the row kernels translate through them, and only single-element
        # calls index them from Python.  add_table keeps list rows, which
        # index faster inside the codeword enumeration.
        self.add_table = [[self._add_raw(a, b) for b in range(q)] for a in range(q)]
        self.mul_table = [bytes(self._mul_raw(a, b) for b in range(q)) for a in range(q)]
        self.neg_table = [self._neg_raw(a) for a in range(q)]
        inv = [None] * q
        for a in range(1, q):
            inv[a] = self.mul_table[a].index(1)
        self.inv_table = inv
        sqrt = [None] * q
        for y in range(q):            # ascending scan records the smaller root
            s = self.mul_table[y][y]
            if sqrt[s] is None:
                sqrt[s] = y
        self._sqrt_table = sqrt
        if self.subfield_order is not None:
            e = self.p ** (self.m // 2)
            self.conj_table = [self.pow(a, e) for a in range(q)]
        else:
            self.conj_table = None

    def _digits(self, a):
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(a % p)
            a //= p
        return out

    def _encode(self, digits):
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    # -- raw arithmetic (no tables) --------------------------------------

    def _add_raw(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def _neg_raw(self, a):
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._encode([(-d) % self.p for d in self._digits(a)])

    def _mul_raw(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        rem = _poly_mod(prod, self.modulus, self.p)
        rem += [0] * (self.m - len(rem))
        return self._encode(rem)

    # -- public operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        t = self.add_table
        return t[a][b] if t is not None else self._add_raw(a, b)

    def sub(self, a: int, b: int) -> int:
        t = self.add_table
        return t[a][self.neg_table[b]] if t is not None else self._add_raw(a, self._neg_raw(b))

    def mul(self, a: int, b: int) -> int:
        t = self.mul_table
        return t[a][b] if t is not None else self._mul_raw(a, b)

    def neg(self, a: int) -> int:
        t = self.neg_table
        return t[a] if t is not None else self._neg_raw(a)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ValueError on zero."""
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        t = self.inv_table
        return t[a] if t is not None else self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply exponentiation; negative e inverts first."""
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        base = a
        mul = self.mul
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int, e: int) -> int:
        """The map x -> x^(p^e) for 0 <= e <= m."""
        if not 0 <= e <= self.m:
            raise ValueError(f"frobenius exponent e={e} out of range [0, {self.m}]")
        return self.pow(a, self.p ** e)

    def conjugate(self, a: int) -> int:
        """x -> x^(p^(m/2)); the involution fixing the index-2 subfield."""
        if self.subfield_order is None:
            raise ValueError("conjugation requires an even extension degree")
        t = self.conj_table
        return t[a] if t is not None else self.frobenius(a, self.m // 2)

    def is_square(self, a: int) -> bool:
        if self._sqrt_table is not None:
            return self._sqrt_table[a] is not None
        if self.p == 2 or a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def sqrt(self, a: int) -> int | None:
        """A canonical square root (the smaller of the two codes), or None.

        In characteristic 2 every element has a unique root; for odd q
        exactly (q+1)/2 elements, zero included, are squares.
        """
        if self._sqrt_table is not None:
            return self._sqrt_table[a]
        if self.p == 2:
            return self.pow(a, self.q // 2)
        for y in range(self.q):
            if self._mul_raw(y, y) == a:
                return y
        return None

    def elements(self) -> range:
        """All q element codes in ascending order."""
        return range(self.q)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.m == other.m)

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, q={self.q})"


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> FieldSpec:
    """Construct (and cache) GF(p^m) with its deterministic modulus."""
    return FieldSpec(p, m)


def modulus_str(spec: FieldSpec) -> str:
    """Human-readable modulus, highest degree first, e.g. ``x^2 + 1``."""
    terms = []
    for i in range(spec.m, -1, -1):
        c = spec.modulus[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}*{x}")
    return " + ".join(terms) if terms else "0"
