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

Field orders are capped at 2^16.  Every field has one arithmetic core.
Over a prime field it is plain integer arithmetic mod p.  Over GF(p^m)
with m >= 2 it is `_Lanes`, which spreads the m base-p digits of a code
into fixed-width bit lanes of one Python int:

* a product is one big-int product of two spread operands, which sums
  the digit products of each power of x in its own lane with no carry
  between lanes; every lane is then reduced mod p at once (a mask when
  p = 2, a multiply and a shift otherwise), the m - 1 lanes above
  x^(m-1) fold back through two lookups of their images mod the
  modulus, and one unspread, two lookups again, reads the code;
* a sum adds lanes and reduces each mod p (XOR when p = 2);
* an inverse runs the extended Euclidean algorithm over GF(p)[x], on
  spread polynomials (on bit patterns when p = 2);
* the conjugation x -> x^(p^(m/2)) is GF(p)-linear, so it is two
  lookups, one for the low and one for the high half of the digits,
  and one lane addition.

Spreading reads two tables of about sqrt(q) entries, one for each half
of the digits, and so do the other lookups, so fields with q > 256 hold
no table of q entries.  The core's lanes are wide enough for a sum of
32 products, which row operations accumulate unreduced.

Fields with q <= 256 also get dense operation tables (add, mul, neg,
inv, conj, sqrt; subtraction adds the negative), derived from the core:
the smallest primitive element g gives exp/log tables in q - 2 core
products, and products, inverses, negatives and conjugates are read
from exp/log.

The methods of FieldSpec do arithmetic on single elements.  Row
operations read the tables or the core's lanes directly, through the
kernels in `hullforge._rows`, which are built the first time a field is
used, never at import.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

ORDER_LIMIT = 1 << 16
TABLE_LIMIT = 256
# The core's lanes hold a sum of this many products, so row operations
# over rows of up to this length share them with single-element
# arithmetic; longer rows get wider lanes of their own.
_CORE_TERMS = 32


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


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _power(mul, a, e):
    """a^e for e >= 0 by square-and-multiply with the given product."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


# ----------------------------------------------------------------------
# The arithmetic core
# ----------------------------------------------------------------------

class _Prime:
    """The core of a prime field: integers mod p."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def mul(self, a, b):
        return a * b % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def _lane_shape(p, m, terms):
    """(w, k) for lanes of w bits that hold a sum of `terms` products of
    spread codes with no carry into the next lane.

    A product lane sums at most m digit products, each at most (p-1)^2,
    so a lane value v is at most top = terms*m*(p-1)^2.  In characteristic
    2 a lane's low bit is its residue.  Otherwise every lane is reduced
    mod p at once: the quotient of v is (v * ceil(2^k / p)) >> k, exact
    for v <= top once 2^k > top*(p-1), so a lane holds that product.
    """
    top = terms * m * (p - 1) ** 2
    if p == 2:
        return top.bit_length(), 0
    k = (top * (p - 1)).bit_length()
    return (top * -(-(1 << k) // p)).bit_length(), k


def _digit_spreads(p, digits, w):
    """Spread forms of the codes 0 .. p^digits - 1 at lane width w."""
    table = [0]
    for i in range(digits):
        table = [t + (d << (w * i)) for d in range(p) for t in table]
    return table


def _digit_negatives(p, digits):
    """Codes of the digit-wise negatives of 0 .. p^digits - 1."""
    table = [0]
    for i in range(digits):
        table = [t + (-d % p) * p ** i for d in range(p) for t in table]
    return table


def _lane_ones(lanes, w):
    return sum(1 << (w * i) for i in range(lanes))


class _Lanes:
    """The core of GF(p^m), m >= 2: digits of a code in w-bit lanes.

    The spread form of a code holds its digit i in bits [w*i, w*(i+1)).
    `lo[a % half] + hi[a // half]` spreads a code.  `reduce` takes every
    lane mod p; `finish` turns a sum of at most `terms` products of
    spread codes (2m - 1 lanes) into the code of that sum mod the
    modulus; `settle` turns a sum of two spread codes into the code of
    their sum.  The conjugation tables, which `FieldSpec._new_lanes`
    fills on fields of square order above the table limit, hold the
    spread conjugates of the low and the high half of a code.
    """

    __slots__ = ("p", "m", "half", "lo", "hi", "reduce", "finish", "settle",
                 "add", "inv", "neg_lo", "neg_hi", "conj_lo", "conj_hi")

    def __init__(self, p, m, modulus, terms):
        w, k = _lane_shape(p, m, terms)
        h = (m + 1) // 2
        half = p ** h
        cut = w * h
        self.p, self.m, self.half = p, m, half
        self.lo = lo = _digit_spreads(p, h, w)
        self.hi = hi = [s << cut for s in _digit_spreads(p, m - h, w)]
        self.conj_lo = self.conj_hi = None
        self.neg_lo = neg = _digit_negatives(p, h)
        self.neg_hi = [half * x for x in neg[:p ** (m - h)]]
        unlo = {s: a for a, s in enumerate(lo)}
        unhi = {s >> cut: a * half for a, s in enumerate(hi)}
        na = m // 2                   # high lanes folded by the first table
        sa, sb = w * m, w * (m + na)

        if p == 2:
            ones = _lane_ones(2 * m - 1, w)
            lo_ones, hi_ones = _lane_ones(h, w), _lane_ones(m - h, w)
            a_ones, b_ones = _lane_ones(na, w), _lane_ones(m - 1 - na, w)

            def reduce(s):
                return s & ones

            def finish(s):
                s ^= fold_a[s >> sa & a_ones] ^ fold_b[s >> sb & b_ones]
                return unlo[s & lo_ones] ^ unhi[s >> cut & hi_ones]

            def settle(s):
                return unlo[s & lo_ones] ^ unhi[s >> cut & hi_ones]

            def add(a, b):
                return a ^ b

            modulus_bits = sum(d << i for i, d in enumerate(modulus))

            def inv(a):
                return _inverse_binary(a, modulus_bits)
        else:
            magic = -(-(1 << k) // p)                       # ceil(2^k / p)
            quotients = _lane_ones(2 * m - 1, w) * ((1 << (w - k)) - 1)
            low_mask, a_mask, lo_mask = (1 << sa) - 1, (1 << (w * na)) - 1, (1 << cut) - 1

            def reduce(s):
                return s - (s * magic >> k & quotients) * p

            def finish(s):
                s -= (s * magic >> k & quotients) * p      # every lane mod p
                s = (s & low_mask) + fold_a[s >> sa & a_mask] + fold_b[s >> sb]
                s -= (s * magic >> k & quotients) * p      # lanes were below 3p
                return unlo[s & lo_mask] + unhi[s >> cut]

            # A lane of a sum of two spread codes is below 2p - 1; adding
            # 2^(w-1) - p sets its top bit exactly when it is >= p, and
            # 2^(w-1) >= p, so nothing carries out.
            m_ones = _lane_ones(m, w)
            bias = m_ones * ((1 << (w - 1)) - p)

            def settle(s):
                s -= ((s + bias) >> (w - 1) & m_ones) * p
                return unlo[s & lo_mask] + unhi[s >> cut]

            def add(a, b):
                return settle(lo[a % half] + hi[a // half] + lo[b % half] + hi[b // half])

            g = sum(d << (w * i) for i, d in enumerate(modulus))
            inverse = [0] + [pow(d, p - 2, p) for d in range(1, p)]

            def inv(a):
                # extended Euclid on spread polynomials; invariant:
                # x1*a = u and x2*a = v mod the modulus
                u, v, x1, x2 = lo[a % half] + hi[a // half], g, 1, 0
                du, dv = (u.bit_length() - 1) // w, m
                while du:
                    j = du - dv
                    if j < 0:
                        u, v, x1, x2, du, dv, j = v, u, x2, x1, dv, du, -j
                    # u -= c x^j v and x1 -= c x^j x2, c clearing u's lead
                    c = p - (u >> (w * du)) * inverse[v >> (w * dv)] % p
                    u += c * v << (w * j)
                    u -= (u * magic >> k & quotients) * p
                    x1 += c * x2 << (w * j)
                    x1 -= (x1 * magic >> k & quotients) * p
                    du = (u.bit_length() - 1) // w
                x1 *= inverse[u]
                x1 -= (x1 * magic >> k & quotients) * p
                return unlo[x1 & lo_mask] + unhi[x1 >> cut]

        self.reduce, self.finish, self.settle, self.add, self.inv = reduce, finish, settle, add, inv
        # The high lanes j = m .. 2m-2 of a product, reduced mod p, fold
        # back linearly through x^j mod the modulus: one lookup for the
        # first na of them and one for the rest.
        folds = [sum(d << (w * i) for i, d in enumerate(_poly_mod([0] * j + [1], modulus, p)))
                 for j in range(m, 2 * m - 1)]
        fold_a, fold_b = (dict(zip(_digit_spreads(p, len(part), w), self._span(part)))
                          for part in (folds[:na], folds[na:]))

    def mul(self, a, b):
        lo, hi, half = self.lo, self.hi, self.half
        return self.finish((lo[a % half] + hi[a // half]) * (lo[b % half] + hi[b // half]))

    def neg(self, a):
        # digit-wise, so the two halves add as codes with no carry
        return self.neg_lo[a % self.half] + self.neg_hi[a // self.half]

    def conj(self, a):
        half = self.half
        return self.settle(self.conj_lo[a % half] + self.conj_hi[a // half])

    def linear_halves(self, images):
        """Spread tables of the GF(p)-linear map sending x^i to the code
        images[i], for the low and the high half of the digits."""
        lo, hi, half = self.lo, self.hi, self.half
        basis = [lo[c % half] + hi[c // half] for c in images]
        h = (self.m + 1) // 2
        return self._span(basis[:h]), self._span(basis[h:])

    def _span(self, basis):
        """The reduced spread forms of sum d_i basis[i] for every digit
        vector d, in the order of the codes of d."""
        table = [0]
        for b in basis:
            table = [t + d * b for d in range(self.p) for t in table]
        return [self.reduce(t) for t in table]


def _inverse_binary(a, g):
    """a^-1 mod g over GF(2)[x], polynomials as bit patterns."""
    u, v, x1, x2 = a, g, 1, 0          # invariant: x1*a = u, x2*a = v (mod g)
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, x1, x2, j = v, u, x2, x1, -j
        u ^= v << j
        x1 ^= x2 << j
    return x1


# ----------------------------------------------------------------------
# Field
# ----------------------------------------------------------------------

class FieldSpec:
    """The field GF(p^m) with its deterministic modulus.

    Instances are immutable after construction, apart from a private
    cache of wider lanes for long rows, and every operation is a pure
    function of its arguments, so a FieldSpec may be shared freely
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
                 "neg_table", "inv_table", "conj_table", "_sqrt_table",
                 "_core", "_wide")

    def __init__(self, p: int, m: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        # Before the trial division and the power, slow for a huge p or m.
        if isinstance(p, int) and (p > ORDER_LIMIT or m >= ORDER_LIMIT.bit_length()):
            raise ValueError(f"field order {p}^{m} exceeds the cap {ORDER_LIMIT}")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        q = p ** m
        if q > ORDER_LIMIT:
            raise ValueError(f"field order {p}^{m} exceeds the cap {ORDER_LIMIT}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _smallest_irreducible(p, m)
        self.subfield_order = p ** (m // 2) if m % 2 == 0 else None
        self._core = _Prime(p) if m == 1 else self._new_lanes(_CORE_TERMS)
        self._wide = {}

        self.add_table = None
        self.mul_table = None
        self.neg_table = None
        self.inv_table = None
        self.conj_table = None
        self._sqrt_table = None
        if q <= TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers -------------------------------------------

    def _lanes_for(self, terms):
        """Lanes that hold a sum of `terms` products: the core's up to
        _CORE_TERMS, wider ones, built once, above that."""
        if terms <= _CORE_TERMS:
            return self._core
        shape = _lane_shape(self.p, self.m, terms)
        lanes = self._wide.get(shape)
        if lanes is None:
            lanes = self._wide[shape] = self._new_lanes(terms)
        return lanes

    def _new_lanes(self, terms):
        """_Lanes for `terms` products, with the conjugation tables on
        fields of square order above the table limit."""
        lanes = _Lanes(self.p, self.m, self.modulus, terms)
        if self.subfield_order is not None and self.q > TABLE_LIMIT:
            mul = lanes.mul
            x_conj = _power(mul, self.p, self.subfield_order)     # code p is x
            images = [1]
            for _ in range(self.m - 1):
                images.append(mul(images[-1], x_conj))
            lanes.conj_lo, lanes.conj_hi = lanes.linear_halves(images)
        return lanes

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        n = q - 1
        mul = self._core.mul
        g = next(a for a in range(1, q)
                 if all(_power(mul, a, n // r) != 1 for r in _prime_factors(n)))
        exp = [1] * n
        for i in range(1, n):
            exp[i] = mul(exp[i - 1], g)
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        # Rows of mul_table are bytes, a quarter of the memory of lists:
        # the row kernels translate through them, and only single-element
        # calls index them from Python.  Row a maps the byte log b to
        # exp[log a + log b] by one translate through a rotation of exp.
        logs = bytes(log[1:])
        ring = bytes(exp) * (256 // n + 2)
        self.mul_table = [bytes(q)] + [b"\0" + logs.translate(ring[log[a]:log[a] + 256])
                                       for a in range(1, q)]
        # add_table keeps list rows, which index faster inside the
        # codeword enumeration.
        self.add_table = _digit_sums(p, m)
        minus_one = 0 if p == 2 else n // 2
        self.neg_table = [0] + [exp[(log[a] + minus_one) % n] for a in range(1, q)]
        self.inv_table = [None] + [exp[-log[a] % n] for a in range(1, q)]
        if self.subfield_order is not None:
            s = self.subfield_order
            self.conj_table = [0] + [exp[log[a] * s % n] for a in range(1, q)]
        sqrt = [None] * q
        for y in range(q):            # ascending scan records the smaller root
            s = self.mul_table[y][y]
            if sqrt[s] is None:
                sqrt[s] = y
        self._sqrt_table = sqrt

    def _encode(self, digits):
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    # -- public operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        t = self.add_table
        return t[a][b] if t is not None else self._core.add(a, b)

    def sub(self, a: int, b: int) -> int:
        t = self.add_table
        if t is not None:
            return t[a][self.neg_table[b]]
        core = self._core
        return core.add(a, core.neg(b))

    def mul(self, a: int, b: int) -> int:
        t = self.mul_table
        return t[a][b] if t is not None else self._core.mul(a, b)

    def neg(self, a: int) -> int:
        t = self.neg_table
        return t[a] if t is not None else self._core.neg(a)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ValueError on zero."""
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        t = self.inv_table
        return t[a] if t is not None else self._core.inv(a)

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply exponentiation; negative e inverts first."""
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.m == 1:
            return pow(a, e, self.p)
        return _power(self.mul, a, e)

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
        return t[a] if t is not None else self._core.conj(a)

    def is_square(self, a: int) -> bool:
        if self._sqrt_table is not None:
            return self._sqrt_table[a] is not None
        if self.p == 2 or a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1      # Euler's criterion

    def sqrt(self, a: int) -> int | None:
        """A canonical square root (the smaller of the two codes), or None.

        In characteristic 2 every element has a unique root; for odd q
        exactly (q+1)/2 elements, zero included, are squares.
        """
        if self._sqrt_table is not None:
            return self._sqrt_table[a]
        if self.p == 2:
            return self.pow(a, self.q // 2)
        if a == 0:
            return 0
        root = self._tonelli_shanks(a)
        return None if root is None else min(root, self.neg(root))

    def _tonelli_shanks(self, a):
        """A square root of a nonzero a for odd q, or None for a non-square."""
        q, pw, mul = self.q, self.pow, self.mul
        s, t = 0, q - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        z = next(x for x in range(2, q) if pw(x, (q - 1) // 2) != 1)
        # invariants: root^2 = a b, c^(2^(s-1)) = -1, and b^(2^(s-1)) = 1
        # exactly when a is a square
        c, root, b = pw(z, t), pw(a, (t + 1) // 2), pw(a, t)
        while b != 1:
            b2 = b
            for i in range(1, s):         # least i with b^(2^i) = 1
                b2 = mul(b2, b2)
                if b2 == 1:
                    break
            else:
                return None
            for _ in range(s - i - 1):
                c = mul(c, c)
            s = i
            root = mul(root, c)
            c = mul(c, c)
            b = mul(b, c)
        return root

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


def _digit_sums(p, m):
    """The addition table of GF(p^m) as list rows: codes add digit-wise
    mod p.  A row over one digit is a rotation of range(p); over more
    digits, a row joins the rows of the low and the high half."""
    if m == 1:
        r = list(range(p))
        return [r[a:] + r[:a] for a in range(p)]
    h = (m + 1) // 2
    half = p ** h
    low = _digit_sums(p, h)
    high = [[half * x for x in row] for row in _digit_sums(p, m - h)]
    return [[x + y for y in high[a // half] for x in low[a % half]]
            for a in range(p ** m)]


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
