"""Entanglement-assisted quantum code parameters from classical hulls.

A classical [n, k, d] code with hull dimension ell yields
[[n, k - ell, d; n - k - ell]] and, from the dual side,
[[n, n - k - ell, d_dual; k - ell]]; ell = k - rank S, S the Gramian
of the generator.  On top of that, a length extension appends r new
coordinates: the parity-check matrix gains r rows [alpha_i e_i | x_i],
built from the rows x_i of the generator G_d that `diagonalize_odd`
returns, whose Gramian is diag(d_1, ..., d_k) with d_i != 0 for
i < k - ell, and nonzero scalars alpha_i.  The extended code is then
generated, in closed form, by [B | G_d], where B is zero but for
B_ii = -d_i / conj(alpha_i), i < r (conj is the identity for the
euclidean form): row j is orthogonal to row i of the new parity checks,
by B_ii conj(alpha_i) + d_i = 0 when i = j and <x_j, x_i> = 0 otherwise.
Its Gramian is diag(d_i (1 + d_i / N(alpha_i)) for i < r, d_i after),
N(alpha) = alpha^2 (euclidean) or alpha^(q0 + 1) (hermitian over
GF(q0^2), where d_i lies in GF(q0)), and alpha_i is chosen with
N(alpha_i) != -d_i, so those entries stay nonzero.  The extended code keeps dimension k and hull
dimension ell, its distance d' satisfies d <= d' <= d + r, and the
entanglement cost becomes n - k - ell + r.

The base records read rank S, and the extension `diagonalize_odd`'s
generator and diagonal, from the facts the code keeps (see `codes`), so
after `hull` and `diagonalize_odd` neither forms S again.  The checks on
an extended code run on its own Gramian and parity rows.

All rate arithmetic is exact rational; no floats appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import (BudgetExceeded, LinearCode, _dual_gramian_rank, dual,
                    hull_dimension_via_gramian, make_code, min_distance,
                    resolve_budget)
from .diag import diagonalize_odd
from .matfq import _stack, check_form, dot


class ExtensionVerificationError(Exception):
    """An extension failed its built-in checks; carries the certificate."""

    def __init__(self, message, certificate=None):
        self.certificate = certificate
        super().__init__(message)


@dataclass(frozen=True)
class EaqeccRecord:
    """[[n, k_logical, d; c]]_q parameters with exact rates.

    d_exact is None when the distance enumeration was over budget; the
    (lower, upper) d_bounds always bracket the true distance.  q is the
    qudit dimension: the field order for euclidean constructions, the
    subfield order for hermitian ones.  provenance tags which
    construction produced the record and r records the extension length.
    """
    n: int
    k_logical: int
    d_exact: int | None
    d_bounds: tuple
    c: int
    q: int
    rate: Fraction
    net_rate: Fraction
    provenance: str
    r: int


@dataclass(frozen=True)
class ExtensionCertificate:
    """Everything needed to re-check one length extension."""
    original: LinearCode
    extended: LinearCode
    alphas: tuple
    x_rows: tuple
    hull_preserved: bool
    d_prime: int | None


@dataclass(frozen=True)
class RateReport:
    """Exact-rational rate facts for one record."""
    rate: Fraction
    net_rate: Fraction
    net_rate_positive: bool
    high_dimension_condition: bool    # 4k >= 3n + r
    rate_at_least_half: bool


def _distance_or_none(code: LinearCode | None, budget):
    if code is None:
        return None
    try:
        return min_distance(code, budget)
    except BudgetExceeded:
        return None


def _record(n, k_logical, d_exact, d_bounds, c, q, provenance, r):
    return EaqeccRecord(
        n=n, k_logical=k_logical, d_exact=d_exact, d_bounds=d_bounds, c=c,
        q=q, rate=Fraction(k_logical, n),
        net_rate=Fraction(k_logical - c, n),
        provenance=provenance, r=r)


def _qudit_dimension(spec, form):
    return spec.subfield_order if form == "hermitian" else spec.q


def base_params(code: LinearCode, form: str = "euclidean", budget=None):
    """The two base records [[n, k-ell, d; n-k-ell]] and
    [[n, n-k-ell, d_dual; k-ell]].

    Distances over budget degrade to d_exact=None with Singleton bounds
    rather than failing: (1, n-k+1) for the code and (1, min(n, k+1))
    for its dual, whose dimension is n-k.
    """
    ell = hull_dimension_via_gramian(code, form)
    cap = resolve_budget(budget)
    n, k = code.n, code.k
    q_out = _qudit_dimension(code.spec, form)
    tag = "base-hermitian" if form == "hermitian" else "base-euclidean"

    d = _distance_or_none(code, cap)
    primary = _record(n, k - ell, d, (d, d) if d is not None else (1, n - k + 1),
                      n - k - ell, q_out, tag, 0)

    # The dual has dimension n - k: build it only when `min_distance`
    # would not refuse it.
    dual_code = dual(code, form) if code.spec.q ** (n - k) <= cap else None
    d_dual = _distance_or_none(dual_code, cap)
    secondary = _record(n, n - k - ell, d_dual,
                        (d_dual, d_dual) if d_dual is not None else (1, min(n, k + 1)),
                        k - ell, q_out, "base-dual-side", 0)
    return primary, secondary


def _build_extension(code: LinearCode, r: int, form: str, budget):
    """Shared body of the euclidean and hermitian extensions.

    Each alpha_i is the first code in 1 .. q-1 with N(alpha_i) != -d_i,
    and one always exists on the fields the extensions admit: for odd
    q >= 5 the nonzero squares take (q-1)/2 >= 2 values, and for odd
    q0 >= 3 the norm maps onto GF(q0)*, which has at least 2 elements.
    """
    spec = code.spec
    diag_result = diagonalize_odd(code, form)
    n, k = code.n, code.k
    ell = k - diag_result.nonzero_count
    if not 0 <= r <= k - ell:
        raise ValueError(f"extension length r={r} outside [0, {k - ell}]")
    g_d, diagonal = diag_result.new_gen, diag_result.diagonal
    xs = [g_d.row(i) for i in range(r)]

    hermitian = form == "hermitian"
    q0 = spec.subfield_order
    alphas, b = [], []
    for i in range(r):
        forbidden = spec.neg(diagonal[i])
        alpha = next(a for a in range(1, spec.q)
                     if (spec.pow(a, q0 + 1) if hermitian else spec.mul(a, a)) != forbidden)
        alphas.append(alpha)
        conj_alpha = spec.conjugate(alpha) if hermitian else alpha
        b.append(spec.neg(spec.mul(diagonal[i], spec.inv(conj_alpha))))

    # The closed form of the module docstring: [B | G_d], B = diag(b) on
    # its first r rows and 0 below, against the new parity rows.
    def unit(j, v):
        return [v[j] if t == j else 0 for t in range(r)]

    extended = make_code(spec, _stack(
        spec, [unit(j, b) + list(g_d.row(j)) for j in range(k)], n + r))
    new_parity = [unit(i, alphas) + list(x) for i, x in enumerate(xs)]

    d = _distance_or_none(code, budget)
    d_prime = _distance_or_none(extended, budget)
    ext_ell = hull_dimension_via_gramian(extended, form)
    hull_preserved = ext_ell == ell
    cert = ExtensionCertificate(code, extended, tuple(alphas),
                                tuple(xs), hull_preserved, d_prime)

    if extended.n != n + r or extended.k != k:
        raise ExtensionVerificationError(
            f"extended code is [{extended.n},{extended.k}], "
            f"expected [{n + r},{k}]", cert)
    if any(dot(spec, w, h, form) for w in extended.gen.row_list() for h in new_parity):
        raise ExtensionVerificationError(
            "extended code is not orthogonal to the new parity rows", cert)
    if _dual_gramian_rank(extended, form) != n + r - k - ext_ell:
        raise ExtensionVerificationError(
            "extended parity-check Gramian has the wrong rank", cert)
    if not hull_preserved:
        raise ExtensionVerificationError(
            f"hull dimension changed: {ext_ell} != {ell}", cert)
    if d is not None and d_prime is not None and not d <= d_prime <= d + r:
        raise ExtensionVerificationError(
            f"distance {d_prime} outside [{d}, {d + r}]", cert)

    tag = "ext-hermitian" if hermitian else "ext-euclidean"
    singleton = n + r - k + 1          # the extended code is [n + r, k]
    bounds = (d, min(d + r, singleton)) if d is not None else (1, singleton)
    record = _record(n + r, k - ell, d_prime, bounds, n - k - ell + r,
                     _qudit_dimension(spec, form), tag, r)
    return cert, record


def extend_euclidean(code: LinearCode, r: int, budget=None):
    """Length extension under the euclidean form; needs odd q >= 5.

    The q >= 5 floor guarantees at least two distinct nonzero squares,
    so an admissible alpha always exists; q = 3 is refused even though
    individual codes might happen to admit one.
    """
    spec = code.spec
    if spec.p == 2 or spec.q < 5:
        raise ValueError(f"euclidean extension needs odd q >= 5, got q={spec.q}")
    return _build_extension(code, r, "euclidean", budget)


def extend_hermitian(code: LinearCode, r: int, budget=None):
    """Length extension under the hermitian form over GF(q0^2), odd q0 >= 3."""
    spec = code.spec
    check_form(spec, "hermitian")
    q0 = spec.subfield_order
    if spec.p == 2 or q0 < 3:
        raise ValueError(f"hermitian extension needs odd subfield order >= 3, "
                         f"got {q0}")
    return _build_extension(code, r, "hermitian", budget)


def rate_report(record: EaqeccRecord, n: int, k: int, ell: int, r: int) -> RateReport:
    """Exact rate facts for a record produced from (n, k, ell, r).

    Checks the record against the reconstruction from the parameters,
    then reports rate (k-ell)/(n+r), net rate (2k-n-r)/(n+r), its sign
    law, and the high-dimension condition 4k >= 3n+r under which the
    rate is guaranteed to be at least 1/2.
    """
    if not (1 <= k <= n and 0 <= ell <= min(k, n - k) and 0 <= r <= k - ell):
        raise ValueError(f"inconsistent parameters n={n}, k={k}, ell={ell}, r={r}")
    rate = Fraction(k - ell, n + r)
    net_rate = Fraction(2 * k - n - r, n + r)
    if record.n != n + r or record.k_logical != k - ell:
        raise ValueError("record does not match the supplied parameters")
    if record.rate != rate or record.net_rate != net_rate:
        raise ValueError("record rates disagree with the exact reconstruction")
    positive = 2 * k > n and r < 2 * k - n
    if positive != (net_rate > 0):
        raise AssertionError("net-rate sign law violated")
    condition = 4 * k >= 3 * n + r
    at_least_half = rate >= Fraction(1, 2)
    if condition and not at_least_half:
        raise AssertionError("rate fell below 1/2 despite 4k >= 3n + r")
    return RateReport(rate, net_rate, positive, condition, at_least_half)
