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

Field orders are capped at 2^16.  Every field has one arithmetic core,
picked when the field is built, and every operation goes through it:
the element operations add, mul, neg, inv and conj, to which the
methods of FieldSpec delegate, and the row operations that the inner
loops of `matfq`, `diag` and the codeword walks run on:

* ``pack(codes)``     a row from any sequence of element codes
* ``axpy(u, f, v)``   u + f*v, on rows
* ``scale(f, v)``     f*v, on rows
* ``dot(u, v)``       sum of u_i v_i, on any sequences of codes
* ``dot_conj(u, v)``  sum of u_i conj(v_i), on fields of square order
* ``add_into(buf, row)``  buf += row in place, for a list buf and any
  sequence of codes row, skipping the zero entries of row
* ``matmul(a_rows, b_rows)``  the rows of A·B, from the rows of A and
  the rows of B as sequences of codes; B has at least one row
* ``rref(rows, reduced=True)``  (rows, pivots): the reduced row echelon
  form of the matrix with the given rows of codes, and its pivot
  columns; with reduced false, forward elimination only, whose pivots
  give the rank and whose rows are not to be read

A row is indexed, iterated and tested like a sequence of codes.  Every
operation is bound once, when its core is built, so a hot loop loads
it into a local.  There are three cores, each with one elimination
routine, `rref`.  `_Tables` and `_Prime` eliminate one pivot at a time
on their `axpy` and `scale`: Gauss-Jordan elimination, or forward
elimination, which clears below each pivot only and normalizes no row.
`_Lanes` eliminates on packed rows, described below.

`_Prime` serves GF(p) with p > 256: integers mod p.  Rows are lists;
`axpy` and `scale` are list comprehensions mod p, and `dot` is
``sum(map(mul, u, v)) % p``, reduced once.  `matmul` makes one such
reduction per entry of the product, of a row of A and a column of B.

`_Lanes` serves GF(p^m) with m >= 2 and q > 256.  It spreads the m
base-p digits of a code into fixed-width bit lanes of one Python int:

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
of the digits, and so do the other lookups, so these fields hold no
table of q entries.  The lanes are wide enough for a sum of 32
products.  Rows are lists: `axpy` spreads its scalar once per call,
and per entry adds the spread digits of u_i to the big-int product of
the spread f and v_i before one reduction; `dot` and `dot_conj` sum
the products of spread codes unreduced in chunks of 32 (16 for
`dot_conj`), reduce each chunk once and add the reduced chunks.
`matmul` spreads every entry of A and of B once per call and sums
the products of each entry of A·B unreduced, with one reduction per
32 of them.

Elimination on `_Lanes` packs every row once, up front, into one int,
entry t in slot t of 2m - 1 lanes, and unpacks every row at the end.
A row operation is one big-int multiply-add and one reduction
of the whole row: every lane mod p at once, then the high lanes
m .. 2m - 2 of every slot fold back by polynomial Barrett reduction,
whose quotient floor(A*mu / x^(m-2)), for A the high lanes and
mu = x^(2m-2) div the modulus, is exact for every slot polynomial, then
every lane mod p again.  Every product stays in its slot and every lane
holds at most 3m(p - 1)^2, within the capacity of 32 products.
Forward elimination runs without fractions, row <- pv*row - e*prow
below each pivot, so it inverts nothing and reduces no row above a
pivot; Gauss-Jordan elimination inverts each pivot once to normalize
its row.

`_Tables` serves every field with q <= 256.  It holds dense tables,
derived from the `_Prime` or `_Lanes` core of the same field: the
smallest primitive element g gives exp/log tables in q - 2 core
products, and products, inverses, negatives and conjugates are read
from exp/log; `neg`, `inv` and `conj` are the tables' own
``__getitem__``.  Rows are ``bytes``, and no row operation makes a
Python-level call per entry:

* scaling is one ``bytes.translate`` through the row ``mul_table[f]``;
* in characteristic 2, addition is XOR of the rows read as integers;
* in odd characteristic, when m base-p digits fit in a byte with room
  for the sum of two digits each (every prime p <= 127, and GF(9),
  GF(25), GF(49)), a translate spreads each code so that each digit has
  its own bit field, the rows are added as integers with no carry
  between entries, and one more translate reduces each digit mod p;
* other odd fields (GF(27), GF(81), GF(121), primes above 127, ...) add
  through the rows of ``add_table``, one lookup per entry done in C;
* over GF(p), `dot` is the `_Prime` core's own, which takes bytes rows
  as they are; over GF(p^m) the products come from ``mul_table`` and
  are summed with XOR (characteristic 2) or as wide digit fields
  reduced once (odd);
* `matmul` reduces once per row of the product.  In characteristic 2
  it XORs the rows of B read as integers, each translated through
  ``mul_table`` when its scalar is not 1.  Over GF(p), p odd, each row
  of B is read once into lanes of whole bytes, wide enough for the sum
  of as many products of codes as B has rows, and its quotient by p;
  a row of A·B sums the scalar multiples of these integers, and every
  lane is reduced mod p at once, as `_Lanes` reduces its lanes, before
  the low byte of each lane is read off.  Over the other fields it
  makes one `axpy` of the matching row of B per nonzero entry of the
  row of A.

`add_into` is the step of the codeword walks in `codes` and `oracle`,
which change a few entries of one buffer per codeword: `_Tables` indexes
its ``add_table`` once per nonzero entry, and the other two cores call
their `add`.  The distance walk of `codes` makes one `add_into` per
codeword, of a row of the code's GF(p)-basis, which it builds with
`scale`, one call per basis row.  Square roots take Euler's criterion
and Tonelli-Shanks in odd characteristic, and a^(q/2) in
characteristic 2, on every field.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import product

ORDER_LIMIT = 1 << 16
TABLE_LIMIT = 256
# The lanes of `_Lanes` hold a sum of this many products; row operations
# share them with single-element arithmetic, and longer sums are
# finished in chunks of this many.
_CORE_TERMS = 32
# Bits per digit in the dot-product sums of `_Tables`: rows are far
# shorter than 2^32 / p.
_WIDE = 32


def is_prime(n: int) -> bool:
    """Trial-division primality test, ample for orders up to 2^16."""
    return n > 1 and _prime_factors(n) == [n]


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


def _poly_divmod(f, g, p):
    """Quotient and remainder of f by a monic polynomial g; the remainder
    carries no trailing zero coefficients."""
    f = list(f)
    dg = len(g) - 1
    quotient = [0] * (len(f) - dg)
    for shift in range(len(quotient) - 1, -1, -1):
        lead = quotient[shift] = f[shift + dg]
        if lead:
            for i in range(dg + 1):
                f[shift + i] = (f[shift + i] - lead * g[i]) % p
    del f[dg:]                  # the eliminated leading terms, all zero
    while f and f[-1] == 0:
        f.pop()
    return quotient, f


def _poly_mod(f, g, p):
    """Remainder of f modulo a monic polynomial g."""
    return _poly_divmod(f, g, p)[1]


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


def _encode(p, digits):
    """The code of a digit vector, low digits first."""
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


# ----------------------------------------------------------------------
# The arithmetic cores
# ----------------------------------------------------------------------

class _Core:
    """The operations of a core, described in the module docstring.

    conj and dot_conj are None over fields whose order is not a square.
    matmul(a_rows, b_rows) returns the rows of A·B as rows of the core
    (bytes or lists), for a B with at least one row.  rref(rows) takes
    the rows of a matrix as sequences of codes and returns the rows of
    its reduced row echelon form, each a new sequence of codes, and the
    list of pivot columns; rref(rows, False) runs forward elimination
    only, and its pivots, whose count is the rank, are the same.
    """

    __slots__ = ("add", "mul", "neg", "inv", "conj",
                 "pack", "axpy", "scale", "dot", "dot_conj", "add_into", "matmul", "rref")


def _stepwise_elimination(pack, axpy, scale, neg, inv, mul):
    """`rref` of `_Tables` and `_Prime`, one pivot at a time on the core's
    `axpy` and `scale`, every row packed first: Gauss-Jordan elimination,
    or with reduced false forward elimination, which clears below each
    pivot only, normalizes no row and returns rows the caller must not
    read."""
    def rref(rows, reduced=True):
        rows = [pack(row) for row in rows]
        nrows = len(rows)
        pivots = []
        r = 0
        for c in range(len(rows[0]) if rows else 0):
            if r == nrows:
                break
            for i in range(r, nrows):
                if rows[i][c]:
                    break
            else:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            prow = rows[r]
            if reduced:
                if prow[c] != 1:
                    prow = rows[r] = scale(inv(prow[c]), prow)
                targets = range(nrows)
            else:
                f = neg(inv(prow[c]))
                targets = range(r + 1, nrows)
            for i in targets:
                e = rows[i][c]
                if e and i != r:
                    rows[i] = axpy(rows[i], neg(e) if reduced else mul(e, f), prow)
            pivots.append(c)
            r += 1
        return rows, pivots

    return rref


def _add_into(add):
    """`add_into` on a core's element addition."""
    def add_into(buf, row):
        for t, x in enumerate(row):
            if x:
                buf[t] = add(buf[t], x)

    return add_into


class _Prime(_Core):
    """The core of a prime field: integers mod p."""

    __slots__ = ()

    def __init__(self, p):
        times = operator.mul

        def add(a, b):
            return (a + b) % p

        def mul(a, b):
            return a * b % p

        def neg(a):
            return -a % p

        def inv(a):
            return pow(a, p - 2, p)

        def axpy(u, f, v):
            return [(x + f * y) % p for x, y in zip(u, v)]

        def scale(f, v):
            return [f * y % p for y in v]

        def dot(u, v):
            return sum(map(times, u, v)) % p

        def matmul(a_rows, b_rows):
            cols = list(zip(*b_rows))
            return [[sum(map(times, row, col)) % p for col in cols] for row in a_rows]

        self.add, self.mul, self.neg, self.inv, self.conj = add, mul, neg, inv, None
        self.pack, self.axpy, self.scale, self.dot, self.dot_conj = list, axpy, scale, dot, None
        self.add_into, self.matmul = _add_into(add), matmul
        self.rref = _stepwise_elimination(list, axpy, scale, neg, inv, mul)


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


def _prime_lanes(p, terms):
    """(width, k, magic) for the product lanes of `_Tables` over GF(p):
    lanes of `width` bytes hold a sum of `terms` products of codes and
    its quotient by p, (v * magic) >> k, as in `_lane_shape`."""
    w, k = _lane_shape(p, 1, terms)
    return -(-w // 8), k, -(-(1 << k) // p)


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


class _Lanes(_Core):
    """The core of GF(p^m), m >= 2: digits of a code in w-bit lanes.

    The spread form of a code holds its digit i in bits [w*i, w*(i+1)).
    `lo[a % half] + hi[a // half]` spreads a code.  `mod_p` takes every
    lane mod p; `finish` turns a sum of at most _CORE_TERMS products
    of spread codes (2m - 1 lanes) into the code of that sum mod the
    modulus; `settle` turns a sum of two spread codes into the code of
    their sum.  On fields of square order, `clo` and `chi` hold the
    spread conjugates of the low and the high half of a code.
    """

    __slots__ = ()

    def __init__(self, p, m, modulus):
        times = operator.mul
        w, k = _lane_shape(p, m, _CORE_TERMS)
        h = (m + 1) // 2
        half = p ** h
        cut = w * h
        lo = _digit_spreads(p, h, w)
        hi = [s << cut for s in _digit_spreads(p, m - h, w)]
        neg_lo = _digit_negatives(p, h)
        neg_hi = [half * x for x in neg_lo[:p ** (m - h)]]
        unlo = {s: a for a, s in enumerate(lo)}
        unhi = {s >> cut: a * half for a, s in enumerate(hi)}
        na = m // 2                   # high lanes folded by the first table
        sa, sb = w * m, w * (m + na)
        lo_mask = (1 << cut) - 1

        if p == 2:
            ones = _lane_ones(2 * m - 1, w)
            lo_ones, hi_ones = _lane_ones(h, w), _lane_ones(m - h, w)
            a_ones, b_ones = _lane_ones(na, w), _lane_ones(m - 1 - na, w)

            def mod_p(s):
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
            low_mask, a_mask = (1 << sa) - 1, (1 << (w * na)) - 1

            def mod_p(s):
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

        def span(basis):
            """The reduced spread forms of sum d_i basis[i] for every digit
            vector d, in the order of the codes of d."""
            table = [0]
            for b in basis:
                table = [t + d * b for d in range(p) for t in table]
            return [mod_p(t) for t in table]

        # The high lanes j = m .. 2m-2 of a product, reduced mod p, fold
        # back linearly through x^j mod the modulus: one lookup for the
        # first na of them and one for the rest.
        folds = [sum(d << (w * i) for i, d in enumerate(_poly_mod([0] * j + [1], modulus, p)))
                 for j in range(m, 2 * m - 1)]
        fold_a, fold_b = (dict(zip(_digit_spreads(p, len(part), w), span(part)))
                          for part in (folds[:na], folds[na:]))

        def mul(a, b):
            return finish((lo[a % half] + hi[a // half]) * (lo[b % half] + hi[b // half]))

        def neg(a):
            # digit-wise, so the two halves add as codes with no carry
            return neg_lo[a % half] + neg_hi[a // half]

        def axpy(u, f, v):
            sf = lo[f % half] + hi[f // half]
            return [finish(sf * (lo[y % half] + hi[y // half]) + lo[x % half] + hi[x // half])
                    if y else x for x, y in zip(u, v)]

        def scale(f, v):
            sf = lo[f % half] + hi[f // half]
            return [finish(sf * (lo[y % half] + hi[y // half])) if y else 0 for y in v]

        def total(terms, size):
            """The code of a sum of unreduced products, finished `size` at a time."""
            if len(terms) <= size:
                return finish(sum(terms))
            return reduce(add, [finish(sum(terms[i:i + size])) for i in range(0, len(terms), size)])

        def dot(u, v):
            return total([(lo[x % half] + hi[x // half]) * (lo[y % half] + hi[y // half])
                          for x, y in zip(u, v) if x and y], _CORE_TERMS)

        def matmul(a_rows, b_rows):
            # every entry spread once; each output entry sums its products
            # unreduced and is finished once per _CORE_TERMS of them
            cols = list(zip(*[[lo[y % half] + hi[y // half] for y in row] for row in b_rows]))
            rows = [[lo[x % half] + hi[x // half] for x in row] for row in a_rows]
            if len(b_rows) <= _CORE_TERMS:
                return [[finish(sum(map(times, row, col))) for col in cols] for row in rows]
            return [[total(list(map(times, row, col)), _CORE_TERMS) for col in cols]
                    for row in rows]

        # Elimination on packed rows.  A packed row is one int that holds
        # the spread code of entry t in slot t, bits [slot*t, slot*(t+1)):
        # 2m - 1 lanes, room for a product of two spread codes.  `rref`
        # packs every row once, up front, and unpacks every row at the
        # end.  A row operation, row <- pv*row + (-e)*prow, is one big-int
        # multiply-add and one `fold_row`, which reduces every slot at
        # once to the spread code of its polynomial F mod g:
        #
        # * every lane mod p, as in `mod_p`: a lane's v * magic stays in
        #   its own lane, so a row of slots reduces like one product;
        # * F has degree <= 2m - 2; with A its lanes m .. 2m - 2 and
        #   mu = x^(2m-2) div g, the quotient F div g is floor(A*mu / x^(m-2))
        #   (Barrett reduction is exact for polynomials: A*mu - x^(m-2) *
        #   (F div g) has degree below m - 2), so it is the lanes
        #   m - 2 .. 2m - 4 of A*mu reduced mod p;
        # * F + (F div g)*(-g) is F mod g, so one more reduction mod p
        #   leaves it in the low m lanes and zeros above.
        #
        # Every product stays in its slot: A*mu spans 2m - 3 lanes and
        # (F div g)*(-g) spans 2m - 1.  Every lane stays within the
        # _CORE_TERMS capacity: A*mu and (F div g)*(-g) sum at most
        # (m - 1)(p - 1)^2 per lane, plus one reduced digit.  A row
        # operation negates e as p*ones - e, whose lanes are at most p,
        # so (-e)*prow sums at most m*p(p - 1) <= 2m(p - 1)^2 per lane,
        # and pv*row at most m(p - 1)^2: 3m(p - 1)^2 in all.
        slot = (2 * m - 1) * w
        entry_mask = (1 << (w * m)) - 1               # the low m lanes of a slot
        high_mask = (1 << (w * (m - 1))) - 1          # m - 1 lanes
        lane_masks = ones if p == 2 else quotients    # `mod_p` over one slot
        mu, _ = _poly_divmod([0] * (2 * m - 2) + [1], modulus, p)
        mu = sum(d << (w * i) for i, d in enumerate(mu))
        neg_g = sum((-d % p) << (w * i) for i, d in enumerate(modulus))
        p_ones = p * _lane_ones(m, w)
        high_cut, mu_cut = w * m, w * (m - 2)

        if p == 2:
            def fold_row(s, lanes, highs):
                s &= lanes
                t = (s >> high_cut & highs) * mu & lanes
                return (s + (t >> mu_cut & highs) * neg_g) & lanes
        else:
            def fold_row(s, lanes, highs):
                s -= (s * magic >> k & lanes) * p
                t = (s >> high_cut & highs) * mu
                t -= (t * magic >> k & lanes) * p
                s += (t >> mu_cut & highs) * neg_g
                return s - (s * magic >> k & lanes) * p

        def pack_row(row):
            s = 0
            for a in reversed(row):
                s = s << slot | lo[a % half] + hi[a // half]
            return s

        def unpack_row(s, n):
            out = []
            for _ in range(n):
                x = s & entry_mask
                out.append(unlo[x & lo_mask] + unhi[x >> cut])
                s >>= slot
            return out

        def row_masks(n):
            """The masks of `fold_row` for rows of n slots."""
            repeat, count = 1, 1
            while count < n:
                repeat |= repeat << (slot * count)
                count *= 2
            repeat &= (1 << (slot * n)) - 1
            return repeat * lane_masks, repeat * high_mask

        def rref(rows, reduced=True):
            """(rows, pivots) of the reduced row echelon form; with reduced
            false, the pivots of fraction-free forward elimination, which
            inverts nothing, and rows the caller must not read."""
            n = len(rows[0]) if rows else 0
            lanes, highs = row_masks(n)
            packed = [pack_row(row) for row in rows]
            nrows = len(packed)
            pivots = []
            r = 0
            for c in range(n):
                if r == nrows:
                    break
                shift = slot * c
                for i in range(r, nrows):
                    if packed[i] >> shift & entry_mask:
                        break
                else:
                    continue
                packed[r], packed[i] = packed[i], packed[r]
                prow = packed[r]
                pv = prow >> shift & entry_mask
                if reduced:
                    pv = unlo[pv & lo_mask] + unhi[pv >> cut]
                    if pv != 1:
                        pv = inv(pv)
                        prow = packed[r] = fold_row(
                            (lo[pv % half] + hi[pv // half]) * prow, lanes, highs)
                    pv = 1
                    targets = range(nrows)
                else:
                    targets = range(r + 1, nrows)
                for i in targets:
                    s = packed[i]
                    e = s >> shift & entry_mask
                    if e and i != r:
                        packed[i] = fold_row(pv * s + (p_ones - e) * prow, lanes, highs)
                pivots.append(c)
                r += 1
            return [unpack_row(s, n) for s in packed] if reduced else packed, pivots

        conj = dot_conj = None
        if m % 2 == 0:
            # the images of 1, x, ..., x^(m-1) under x -> x^(p^(m/2)),
            # spread; code p is x
            x_conj = _power(mul, p, p ** (m // 2))
            images = [1]
            for _ in range(m - 1):
                images.append(mul(images[-1], x_conj))
            basis = [lo[c % half] + hi[c // half] for c in images]
            clo, chi = span(basis[:h]), span(basis[h:])

            def conj(a):
                return settle(clo[a % half] + chi[a // half])

            def dot_conj(u, v):
                # a conjugate is spread as the sum of two spread halves, whose
                # lanes reach 2(p-1): each product counts as two terms
                return total([(lo[x % half] + hi[x // half]) * (clo[y % half] + chi[y // half])
                              for x, y in zip(u, v) if x and y], _CORE_TERMS // 2)

        self.add, self.mul, self.neg, self.inv, self.conj = add, mul, neg, inv, conj
        self.pack, self.axpy, self.scale, self.dot, self.dot_conj = list, axpy, scale, dot, dot_conj
        self.add_into, self.matmul, self.rref = _add_into(add), matmul, rref


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


class _Tables(_Core):
    """The core of a field with q <= 256: tables derived from `base`, the
    `_Prime` or `_Lanes` core of the same field."""

    __slots__ = ("mul_table", "add_table")

    def __init__(self, base, p, m, subfield_order):
        q = p ** m
        n = q - 1
        core_mul = base.mul
        g = next(a for a in range(1, q)
                 if all(_power(core_mul, a, n // r) != 1 for r in _prime_factors(n)))
        exp = [1] * n
        for i in range(1, n):
            exp[i] = core_mul(exp[i - 1], g)
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        # Rows of mul_table are bytes, a quarter of the memory of lists:
        # the row operations translate through them, and only `mul`
        # indexes them from Python.  Row a maps the byte log b to
        # exp[log a + log b] by one translate through a rotation of exp.
        logs = bytes(log[1:])
        ring = bytes(exp) * (256 // n + 2)
        self.mul_table = mult = [bytes(q)] + [b"\0" + logs.translate(ring[log[a]:log[a] + 256])
                                              for a in range(1, q)]
        # add_table keeps list rows, which index faster inside the
        # codeword enumeration.
        self.add_table = add_table = _digit_sums(p, m)
        minus_one = 0 if p == 2 else n // 2
        neg = [0] + [exp[(log[a] + minus_one) % n] for a in range(1, q)]
        inv = [None] + [exp[-log[a] % n] for a in range(1, q)]

        def add(a, b):
            return add_table[a][b]

        def add_into(buf, row):
            for t, x in enumerate(row):
                if x:
                    buf[t] = add_table[buf[t]][x]

        def mul(a, b):
            return mult[a][b]

        getitem, xor = operator.getitem, operator.xor
        pad = bytes(256 - q)
        mt = [row + pad for row in mult]
        from_bytes = int.from_bytes

        def scale(f, v):
            return v.translate(mt[f])

        w = (2 * p - 2).bit_length()      # bits that hold the sum of two digits
        if p == 2:
            def axpy(u, f, v):
                if f != 1:
                    v = v.translate(mt[f])
                return (from_bytes(u, "little") ^ from_bytes(v, "little")
                        ).to_bytes(len(u), "little")
        elif m * w <= 8:
            spread_row = bytes(_digit_spreads(p, m, w)) + pad
            spread_mt = [row.translate(spread_row) + pad for row in mult]
            # the code of each byte's m lanes, each lane taken mod p; the
            # table repeats over the bits above the lanes
            lanes = [0]
            for i in range(m):
                lanes = [t + v % p * p ** i for v in range(1 << w) for t in lanes]
            unspread = bytes(lanes) * (256 >> (m * w))

            def axpy(u, f, v):
                s = (from_bytes(u.translate(spread_row), "little")
                     + from_bytes(v.translate(spread_mt[f]), "little"))
                return s.to_bytes(len(u), "little").translate(unspread)
        else:
            add_row = add_table.__getitem__

            def axpy(u, f, v):
                return bytes(map(getitem, map(add_row, u), v.translate(mt[f])))

        if p == 2:
            def matmul(a_rows, b_rows):
                # XOR the rows of B as ints, translated when the scalar is
                # not 1; one conversion to bytes per row of the product
                brows = [bytes(r) for r in b_rows]
                ints = [from_bytes(r, "little") for r in brows]
                n = len(brows[0])
                out = []
                for row in a_rows:
                    acc = 0
                    for x, b, brow in zip(row, ints, brows):
                        if x == 1:
                            acc ^= b
                        elif x:
                            acc ^= from_bytes(brow.translate(mt[x]), "little")
                    out.append(acc.to_bytes(n, "little"))
                return out
        elif m == 1:
            times = operator.mul

            def matmul(a_rows, b_rows):
                # the rows of B in byte-wide lanes that hold the whole sum
                # of an entry of A·B; every lane reduced once per row
                width, k, magic = _prime_lanes(p, len(b_rows))
                n = len(b_rows[0])
                ints = []
                for r in b_rows:
                    lanes = bytearray(n * width)
                    lanes[::width] = r
                    ints.append(from_bytes(lanes, "little"))
                quotients = from_bytes((b"\1" + bytes(width - 1)) * n, "little") * (
                    (1 << (8 * width - k)) - 1)
                out = []
                for row in a_rows:
                    s = sum(map(times, row, ints))
                    s -= (s * magic >> k & quotients) * p
                    out.append(s.to_bytes(n * width, "little")[::width])
                return out
        else:
            def matmul(a_rows, b_rows):
                brows = [bytes(r) for r in b_rows]
                zero = bytes(len(brows[0]))
                out = []
                for row in a_rows:
                    acc = zero
                    for x, brow in zip(row, brows):
                        if x:
                            acc = axpy(acc, x, brow)
                    out.append(acc)
                return out

        self.add, self.mul, self.neg, self.inv = add, mul, neg.__getitem__, inv.__getitem__
        self.pack, self.axpy, self.scale, self.add_into = bytes, axpy, scale, add_into
        self.matmul = matmul
        self.rref = _stepwise_elimination(bytes, axpy, scale, self.neg, self.inv, mul)
        self.conj = self.dot_conj = None
        if m == 1:
            self.dot = base.dot
            return

        if p == 2:
            def total(products):
                return reduce(xor, products, 0)
        else:
            wide = _digit_spreads(p, m, _WIDE).__getitem__
            mask = (1 << _WIDE) - 1

            def total(products):
                s = sum(map(wide, products))
                return _encode(p, [(s >> (_WIDE * i) & mask) % p for i in range(m)])

        mul_row = mult.__getitem__

        def dot(u, v):
            return total(map(getitem, map(mul_row, u), v))

        self.dot = dot
        if subfield_order is not None:
            conj = [0] + [exp[log[a] * subfield_order % n] for a in range(1, q)]
            self.conj = conj_of = conj.__getitem__

            def dot_conj(u, v):
                return total(map(getitem, map(mul_row, u), map(conj_of, v)))

            self.dot_conj = dot_conj


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


# ----------------------------------------------------------------------
# Field
# ----------------------------------------------------------------------

class FieldSpec:
    """The field GF(p^m) with its deterministic modulus.

    Instances are immutable after construction, and every operation is
    a pure function of its arguments, so a FieldSpec may be shared
    freely across threads.

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

    __slots__ = ("p", "m", "q", "modulus", "subfield_order", "_core")

    def __init__(self, p: int, m: int):
        # type, not isinstance: a bool is an int, and True would pass as 1.
        if type(m) is not int or m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        # Before the trial division and the power, slow for a huge p or m.
        if type(p) is int and (p > ORDER_LIMIT or m >= ORDER_LIMIT.bit_length()):
            raise ValueError(f"field order {p}^{m} exceeds the cap {ORDER_LIMIT}")
        if type(p) is not int or not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        q = p ** m
        if q > ORDER_LIMIT:
            raise ValueError(f"field order {p}^{m} exceeds the cap {ORDER_LIMIT}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = _smallest_irreducible(p, m)
        self.subfield_order = p ** (m // 2) if m % 2 == 0 else None
        core = _Prime(p) if m == 1 else _Lanes(p, m, self.modulus)
        self._core = core if q > TABLE_LIMIT else _Tables(core, p, m, self.subfield_order)

    # -- public operations ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._core.add(a, b)

    def sub(self, a: int, b: int) -> int:
        core = self._core
        return core.add(a, core.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._core.mul(a, b)

    def neg(self, a: int) -> int:
        return self._core.neg(a)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ValueError on zero."""
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        return self._core.inv(a)

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply exponentiation; negative e inverts first."""
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.m == 1:
            return pow(a, e, self.p)
        return _power(self._core.mul, a, e)

    def frobenius(self, a: int, e: int) -> int:
        """The map x -> x^(p^e) for 0 <= e <= m."""
        if not 0 <= e <= self.m:
            raise ValueError(f"frobenius exponent e={e} out of range [0, {self.m}]")
        return self.pow(a, self.p ** e)

    def conjugate(self, a: int) -> int:
        """x -> x^(p^(m/2)); the involution fixing the index-2 subfield."""
        if self.subfield_order is None:
            raise ValueError("conjugation requires an even extension degree")
        return self._core.conj(a)

    def is_square(self, a: int) -> bool:
        if self.p == 2 or a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1      # Euler's criterion

    def sqrt(self, a: int) -> int | None:
        """A canonical square root (the smaller of the two codes), or None.

        In characteristic 2 every element has a unique root; for odd q
        exactly (q+1)/2 elements, zero included, are squares.
        """
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


@lru_cache(maxsize=None, typed=True)
def make_field(p: int, m: int) -> FieldSpec:
    """Construct (and cache) GF(p^m) with its deterministic modulus.

    typed: True and 1 are separate keys, so a bool argument reaches
    FieldSpec and is refused even after GF(2) is cached."""
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
