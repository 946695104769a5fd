"""Row kernels: the inner loops of elimination and products, picked once
per field.

Every hot loop in `matfq` and `diag` is one of these row operations:

* ``axpy(u, f, v)``   u + f*v
* ``scale(f, v)``     f*v
* ``dot(u, v)``       sum of u_i v_i
* ``dot_conj(u, v)``  sum of u_i conj(v_i), on fields of square order only

`row_kernels(spec)` picks an implementation for the field on first use
and keeps it.  `axpy` and `scale` work on the kernels' own rows, which
`pack` makes from any sequence of element codes; the result is indexed,
iterated and tested like a sequence of codes.  `dot` and `dot_conj` take
any sequences of codes.

Over a field with q <= 256 a row is a ``bytes`` object, and no row
operation makes a Python-level call per entry:

* scaling is one ``bytes.translate`` through the row ``mul_table[f]``;
* in characteristic 2, addition is XOR of the rows read as integers;
* in odd characteristic, when m base-p digits fit in a byte with room
  for the sum of two digits each (every prime p <= 127, and GF(9),
  GF(25), GF(49)), a translate spreads each code so that each digit has
  its own bit field, the rows are added as integers with no carry
  between entries, and one more translate reduces each digit mod p;
* other odd fields (GF(27), GF(81), GF(121), primes above 127, ...) add
  through the rows of ``add_table``, one lookup per entry done in C;
* dot products over GF(p) are ``sum(map(mul, u, v)) % p``, reduced once;
  over GF(p^m) the products come from ``mul_table`` and are summed with
  XOR (characteristic 2) or as wide digit fields reduced once (odd).

Fields with q > 256 have no tables, and their rows are lists of codes:

* over GF(p^m), m >= 2, the kernels work on the lanes of the field's
  core (`gf._Lanes`): `axpy` spreads its scalar once per call, and per
  entry adds the spread digits of u_i to the big-int product of the
  spread f and v_i before one reduction; `dot` and `dot_conj` sum the
  products of spread codes unreduced in chunks that fit the lanes,
  reduce each chunk once and add the reduced chunks;
* over GF(p), p > 256, they are list comprehensions mod p, and `dot`
  is ``sum(map(mul, u, v)) % p``, reduced once.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import getitem, mul, xor
from typing import Callable, NamedTuple

from .gf import _CORE_TERMS, FieldSpec, _digit_spreads

_WIDE = 32      # bits per digit in dot-product sums: rows are far shorter than 2^32 / p


class RowKernels(NamedTuple):
    pack: Callable        # sequence of codes -> kernel row
    axpy: Callable        # (u, f, v) -> u + f*v
    scale: Callable       # (f, v) -> f*v
    dot: Callable         # (u, v) -> sum u_i v_i
    dot_conj: Callable | None   # (u, v) -> sum u_i conj(v_i)
    neg: Callable         # element -> -element

    def inner(self, form: str) -> Callable:
        """The product of the given form: `dot` or `dot_conj`."""
        return self.dot if form == "euclidean" else self.dot_conj


@lru_cache(maxsize=None)
def row_kernels(spec: FieldSpec) -> RowKernels:
    """The row kernels of a field, built on first use."""
    if spec.mul_table is not None:
        return _bytes_kernels(spec)
    if spec.m == 1:
        return _prime_kernels(spec)
    return _lane_kernels(spec)


def _bytes_kernels(spec):
    p, m, q = spec.p, spec.m, spec.q
    mult = spec.mul_table
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
        spread = _digit_spreads(p, m, w)
        spread_row = bytes(spread) + pad
        spread_mt = [bytes(spread[x] for x in row) + pad for row in mult]
        lane = (1 << w) - 1
        unspread = bytes(spec._encode([(s >> (w * i) & lane) % p for i in range(m)])
                         for s in range(256))

        def axpy(u, f, v):
            s = (from_bytes(u.translate(spread_row), "little")
                 + from_bytes(v.translate(spread_mt[f]), "little"))
            return s.to_bytes(len(u), "little").translate(unspread)
    else:
        add_row = spec.add_table.__getitem__

        def axpy(u, f, v):
            return bytes(map(getitem, map(add_row, u), v.translate(mt[f])))

    neg = spec.neg_table.__getitem__
    if m == 1:
        def dot(u, v):
            return sum(map(mul, u, v)) % p
        return RowKernels(bytes, axpy, scale, dot, None, neg)

    if p == 2:
        def total(products):
            return reduce(xor, products, 0)
    else:
        wide = _digit_spreads(p, m, _WIDE).__getitem__
        mask = (1 << _WIDE) - 1

        def total(products):
            s = sum(map(wide, products))
            return spec._encode([(s >> (_WIDE * i) & mask) % p for i in range(m)])

    mul_row = mult.__getitem__

    def dot(u, v):
        return total(map(getitem, map(mul_row, u), v))

    dot_conj = None
    if spec.conj_table is not None:
        conj = spec.conj_table.__getitem__

        def dot_conj(u, v):
            return total(map(getitem, map(mul_row, u), map(conj, v)))

    return RowKernels(bytes, axpy, scale, dot, dot_conj, neg)


def _prime_kernels(spec):
    p = spec.p

    def axpy(u, f, v):
        return [(x + f * y) % p for x, y in zip(u, v)]

    def scale(f, v):
        return [f * y % p for y in v]

    def dot(u, v):
        return sum(map(mul, u, v)) % p

    def neg(a):
        return -a % p

    return RowKernels(list, axpy, scale, dot, None, neg)


def _lane_kernels(spec):
    core = spec._core                 # its lanes hold a product plus an addend
    half, lo, hi, finish, add = core.half, core.lo, core.hi, core.finish, core.add

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

    dot_conj = None
    if spec.subfield_order is not None:
        clo, chi = core.conj_lo, core.conj_hi

        def dot_conj(u, v):
            # a conjugate is spread as the sum of two spread halves, whose
            # lanes reach 2(p-1): each product counts as two terms
            return total([(lo[x % half] + hi[x // half]) * (clo[y % half] + chi[y // half])
                          for x, y in zip(u, v) if x and y], _CORE_TERMS // 2)

    return RowKernels(list, axpy, scale, dot, dot_conj, core.neg)
