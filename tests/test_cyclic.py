"""A hull referee from polynomial algebra that shares no code path with
the Gramian: cyclic codes.

C = <g> in GF(q)[x]/(x^n - 1) has check polynomial h = (x^n - 1)/g, and
its euclidean dual is <h*>, h* the monic reciprocal of h (MacWilliams
and Sloane, chapter 7); the hermitian dual over GF(q0^2) conjugates the
coefficients of h*.  For divisors a, b of x^n - 1, <a> meets <b> in
<lcm(a, b)>, so the hull is <lcm(g, h*)> and ell = n - deg lcm(g, h*),
for every n, also when p | n (Sangwisut, Jitman, Ling and Udomkavanich,
Finite Fields Appl. 33, 2015).  Polynomials are coefficient lists, the
constant term first.
"""

import random
from math import gcd

import pytest
from test_rows import FIELDS

from hullforge.codes import hull, is_hull_maximal_so_in, make_code
from hullforge.diag import diagonalize_maximal_hull, diagonalize_odd, pair_diagonal_generators
from hullforge.matfq import MatrixFq, row_space_equal


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def poly_mul(spec, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = spec.add(out[i + j], spec.mul(x, y))
    return _trim(out)


def poly_divmod(spec, a, b):
    a, quotient, lead = list(a), [0] * max(len(a) - len(b) + 1, 0), spec.inv(b[-1])
    for s in reversed(range(len(quotient))):
        f = quotient[s] = spec.mul(a[s + len(b) - 1], lead)
        for j, y in enumerate(b):
            a[s + j] = spec.sub(a[s + j], spec.mul(f, y))
    return _trim(quotient), _trim(a)


def monic(spec, a):
    lead = spec.inv(a[-1])
    return [spec.mul(lead, x) for x in a]


def poly_gcd(spec, a, b):
    while b:
        a, b = b, poly_divmod(spec, a, b)[1]
    return monic(spec, a)


def poly_lcm(spec, a, b):
    return poly_divmod(spec, poly_mul(spec, a, b), poly_gcd(spec, a, b))[0]


def x_to_the(spec, n):
    """x^n - 1."""
    return [spec.neg(1)] + [0] * (n - 1) + [1]


def cyclic_matrix(spec, n, g):
    """The rows x^i g, i < n - deg g: a basis of <g> when g | x^n - 1."""
    k = n - len(g) + 1
    return MatrixFq.from_rows(spec, [[0] * i + g + [0] * (k - 1 - i) for i in range(k)])


def hull_generator(spec, n, g, form):
    """lcm(g, h*), with the coefficients of h* conjugated for the
    hermitian form: the generator polynomial of the hull of <g>."""
    h_star = monic(spec, poly_divmod(spec, x_to_the(spec, n), g)[0][::-1])
    if form == "hermitian":
        h_star = [spec.conjugate(x) for x in h_star]
    return poly_lcm(spec, g, h_star)


def draw_generator(spec, n, rng):
    """gcd(x^n - 1, r u) for r random and u a product of factors of
    x^d - 1, d | n, or None for the zero code.  When p | n, x^n - 1 has
    repeated factors and u takes in up to p powers of one x^d - 1: a
    large hull, and a self-orthogonal code once it takes half of each
    factor.  u also takes linear factors x - a, a^n = 1, which split
    the hull from its reciprocal when n | q - 1."""
    r = _trim([rng.randrange(spec.q) for _ in range(rng.randint(1, n))]) or [1]
    d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
    for _ in range(rng.randint(0, spec.p if n % spec.p == 0 else 1)):
        r = poly_mul(spec, r, x_to_the(spec, d))
    e = gcd(n, spec.q - 1)
    for _ in range(rng.randint(0, min(e, 8))):
        a = spec.pow(rng.randrange(1, spec.q), (spec.q - 1) // e)
        r = poly_mul(spec, r, [spec.neg(a), 1])
    g = poly_gcd(spec, x_to_the(spec, n), r)
    return g if len(g) <= n else None


CASES = [(spec, form) for spec in FIELDS for form in ("euclidean", "hermitian")
         if form == "euclidean" or spec.subfield_order is not None]


def cyclic_cases(spec, form, count):
    """count cyclic codes over spec, (code, g), with n <= 40 drawn in
    turn at random, as a multiple of p and as a divisor of q - 1, where
    such n exist."""
    rng = random.Random(spec.q * 2 + (form == "hermitian"))
    lengths = [range(3, 41), range(spec.p, 41, spec.p),
               [n for n in range(3, 41) if (spec.q - 1) % n == 0]]
    lengths = [ns for ns in lengths if ns]
    cases = []
    while len(cases) < count:
        n = rng.choice(lengths[len(cases) % len(lengths)])
        g = draw_generator(spec, n, rng)
        if g is not None:
            cases.append((make_code(spec, cyclic_matrix(spec, n, g)), g))
    return cases


@pytest.mark.parametrize("spec,form", CASES, ids=[f"{s.q}-{f}" for s, f in CASES])
def test_hull_of_cyclic_codes_is_the_lcm_code(spec, form):
    for c, g in cyclic_cases(spec, form, 8):
        lcm = hull_generator(spec, c.n, g, form)
        ell = c.n - len(lcm) + 1
        rep = hull(c, form)
        assert rep.ell == ell
        assert ell == 0 or row_space_equal(rep.hull.gen, cyclic_matrix(spec, c.n, lcm))
        if spec.p != 2:
            assert diagonalize_odd(c, form).nonzero_count == c.k - ell
        if is_hull_maximal_so_in(c, form):
            assert diagonalize_maximal_hull(c, form).nonzero_count == c.k - ell
        assert sum(1 for d in pair_diagonal_generators(c, form)[2] if d) == c.k - ell
