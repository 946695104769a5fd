import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import rebuild_parity
from test_codes import fresh
from test_diag import SHAPES, shaped_code
from test_rows import FIELDS

from hullforge import codes, diag, eaqecc, oracle
from hullforge.codes import (BudgetExceeded, hull,
                             hull_dimension_via_gramian, is_hull_maximal_so_in,
                             is_lcd, is_self_orthogonal, make_code,
                             min_distance, random_code)
from hullforge.diag import (HullNotMaximalError, NotLcdError,
                            diagonalize_maximal_hull, diagonalize_odd,
                            orthogonal_basis_lcd, pair_diagonal_generators)
from hullforge.eaqecc import (EaqeccRecord, ExtensionVerificationError,
                              base_params, extend_euclidean, extend_hermitian,
                              rate_report)
from hullforge.gf import make_field
from hullforge.matfq import MatrixFq, dot

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)
F5 = make_field(5, 1)
F9 = make_field(3, 2)

# Odd fields with q >= 5: prime, table-backed extensions of either parity
# of m, GF(257) on integers mod p, and three fields on the lanes of the
# core.  The hermitian form runs where m is even.
EXTENSION_FIELDS = [make_field(p, m) for p, m in
                    [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (257, 1),
                     (3, 6), (17, 2), (251, 2)]]
EXTENSION_CASES = [(spec, form) for spec in EXTENSION_FIELDS
                   for form in ("euclidean", "hermitian")
                   if form == "euclidean" or spec.subfield_order]


def code(spec, rows):
    return make_code(spec, MatrixFq.from_rows(spec, rows))


def hamming():
    return code(F2, [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
                     [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])


# ---------------------------------------------------------------
# base records
# ---------------------------------------------------------------

def test_base_params_hamming():
    primary, dual_side = base_params(hamming())
    assert (primary.n, primary.k_logical, primary.d_exact, primary.c,
            primary.q) == (7, 1, 3, 0, 2)
    assert primary.rate == Fraction(1, 7)
    assert primary.net_rate == Fraction(1, 7)
    assert primary.provenance == "base-euclidean" and primary.r == 0
    assert (dual_side.n, dual_side.k_logical, dual_side.d_exact,
            dual_side.c) == (7, 0, 4, 1)
    assert dual_side.provenance == "base-dual-side"


def test_base_params_self_dual():
    primary, dual_side = base_params(code(F2, [[1, 1]]))
    assert (primary.n, primary.k_logical, primary.d_exact, primary.c) == (2, 0, 2, 0)
    assert (dual_side.n, dual_side.k_logical, dual_side.d_exact,
            dual_side.c) == (2, 0, 2, 0)


def test_base_params_full_space():
    primary, dual_side = base_params(code(F5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert (primary.n, primary.k_logical, primary.d_exact, primary.c) == (3, 3, 1, 0)
    assert primary.net_rate == Fraction(1)
    assert dual_side.d_exact is None            # zero dual has no distance
    assert dual_side.d_bounds == (1, 3)
    assert dual_side.c == 3


def test_base_params_budget_degrades_to_bounds():
    primary, _ = base_params(hamming(), budget=3)
    assert primary.d_exact is None
    assert primary.d_bounds == (1, 4)               # Singleton: n - k + 1
    assert primary.k_logical == 1               # hull still computed exactly


def test_base_params_hermitian_reports_subfield_q():
    c = random_code(F9, 5, 2, 1)
    primary, _ = base_params(c, "hermitian")
    assert primary.q == 3
    assert primary.provenance == "base-hermitian"


def test_rates_are_exact_rationals():
    primary, dual_side = base_params(hamming())
    for rec in (primary, dual_side):
        assert isinstance(rec.rate, Fraction)
        assert isinstance(rec.net_rate, Fraction)


# ---------------------------------------------------------------
# euclidean extension
# ---------------------------------------------------------------

def test_extension_r0_reduces_to_base():
    c = random_code(F5, 6, 3, 0)
    cert, record = extend_euclidean(c, 0)
    primary, _ = base_params(c)
    assert (record.n, record.k_logical, record.d_exact, record.c, record.q) \
        == (primary.n, primary.k_logical, primary.d_exact, primary.c, primary.q)
    assert record.provenance == "ext-euclidean" and record.r == 0
    assert cert.extended == c
    assert cert.alphas == () and cert.x_rows == ()


def test_extension_self_orthogonal_only_r0():
    c = code(F5, [[1, 2]])          # <v, v> = 0, hull = C
    cert, record = extend_euclidean(c, 0)
    assert record.k_logical == 0
    with pytest.raises(ValueError):
        extend_euclidean(c, 1)


def test_extension_fixture_635():
    c = random_code(F5, 6, 3, 0)
    assert hull(c).ell == 1
    d = min_distance(c)
    cert, record = extend_euclidean(c, 2)
    assert cert.hull_preserved
    assert cert.extended.n == 8 and cert.extended.k == 3
    assert d <= cert.d_prime <= d + 2
    assert (d, cert.d_prime) == (3, 4)          # frozen exact values
    assert (record.n, record.k_logical, record.c) == (8, 2, 4)
    assert record.d_bounds == (3, 5)
    # alphas admissible: a != 0 and a^2 != -<x, x>
    for a, x in zip(cert.alphas, cert.x_rows):
        assert a != 0
        assert F5.mul(a, a) != F5.neg(dot(F5, x, x))


def test_extension_checks_build_no_hull_generator(monkeypatch):
    """The extension reads the extended code's hull dimension off its
    Gramian, formed from the 3 x 5 free block of its [8, 3] generator:
    no X @ G product forms a hull generator, here (1x3) @ (3x8)."""
    c = random_code(F5, 6, 3, 0)
    shapes = []
    matmul = MatrixFq.__matmul__

    def recording(a, b):
        shapes.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(MatrixFq, "__matmul__", recording)
    cert, _ = extend_euclidean(c, 2)
    assert cert.hull_preserved
    assert (3, 5, 3) in shapes                  # the extended Gramian
    assert (1, 3, 8) not in shapes


@pytest.mark.parametrize("fault,message", [
    ("dimension", "extended code is"),
    ("diagonal", "not orthogonal to the new parity rows"),
    ("parity rank", "parity-check Gramian has the wrong rank"),
    ("hull", "hull dimension changed"),
    ("distance", "distance 9 outside"),
])
def test_extension_checks_fire(monkeypatch, fault, message):
    """Each built-in check of the extension guards a theorem, so no
    honest input reaches it: a fault is injected where the check looks."""
    c = random_code(F5, 6, 3, 0)
    if fault == "dimension":
        real_make = eaqecc.make_code
        monkeypatch.setattr(eaqecc, "make_code", lambda spec, g: real_make(
            spec, MatrixFq.from_rows(spec, g.row_list()[1:])))
    elif fault == "diagonal":
        real_diag = eaqecc.diagonalize_odd

        def wrong_diagonal(code, form):
            res = real_diag(code, form)
            diagonal = (F5.mul(2, res.diagonal[0]),) + res.diagonal[1:]
            return diag.DiagonalizationResult(code, res.new_gen, diagonal,
                                              res.nonzero_count, res.method)
        monkeypatch.setattr(eaqecc, "diagonalize_odd", wrong_diagonal)
    else:
        if fault in ("parity rank", "hull"):
            real_rank = eaqecc._dual_gramian_rank
            monkeypatch.setattr(eaqecc, "_dual_gramian_rank",
                                lambda code, form: real_rank(code, form) - 1)
        if fault == "hull":
            real_ell = eaqecc.hull_dimension_via_gramian
            monkeypatch.setattr(eaqecc, "hull_dimension_via_gramian",
                                lambda code, form: real_ell(code, form) + 1)
        if fault == "distance":
            real_d = eaqecc._distance_or_none
            monkeypatch.setattr(eaqecc, "_distance_or_none", lambda code, budget: (
                9 if code.n == 8 else real_d(code, budget)))
    with pytest.raises(ExtensionVerificationError, match=message) as err:
        extend_euclidean(c, 2)
    assert err.value.certificate.original == c


def test_extension_rejects_small_or_even_fields():
    with pytest.raises(ValueError):
        extend_euclidean(random_code(F3, 4, 2, 0), 0)   # q = 3 < 5
    with pytest.raises(ValueError):
        extend_euclidean(code(F2, [[1, 1, 1]]), 0)      # even q
    with pytest.raises(ValueError):
        extend_euclidean(random_code(F5, 4, 2, 1), 5)   # r > k - ell


@pytest.mark.parametrize("r", [True, False, 1.0, "1", None])
def test_extension_rejects_an_r_that_is_not_an_int(r):
    """A bool is an int, so True would pass as 1 and the record JSON
    would print "r": true; a float would fail later with TypeError."""
    with pytest.raises(ValueError):
        extend_euclidean(random_code(F5, 4, 2, 1), r)
    with pytest.raises(ValueError):
        extend_hermitian(random_code(F9, 5, 3, 0), r)


def test_extension_certificate_roundtrip_structure():
    c = random_code(F5, 6, 3, 0)
    cert, record = extend_euclidean(c, 1)
    assert cert.original == c
    assert len(cert.alphas) == len(cert.x_rows) == 1
    assert record.d_exact == cert.d_prime


# ---------------------------------------------------------------
# hermitian extension
# ---------------------------------------------------------------

def test_hermitian_extension_r0():
    c = random_code(F9, 5, 3, 0)
    cert, record = extend_hermitian(c, 0)
    primary, _ = base_params(c, "hermitian")
    assert (record.n, record.k_logical, record.d_exact, record.c, record.q) \
        == (primary.n, primary.k_logical, primary.d_exact, primary.c, primary.q)


def test_hermitian_self_orthogonal_only_r0():
    c = code(F9, [[1, 4]])          # 1 + 4^(q0+1) = 0 in GF(9)
    assert dot(F9, (1, 4), (1, 4), "hermitian") == 0
    cert, record = extend_hermitian(c, 0)
    assert record.k_logical == 0
    with pytest.raises(ValueError):
        extend_hermitian(c, 1)


def test_hermitian_extension_fixture_539():
    c = random_code(F9, 5, 3, 0)
    ell = hull(c, "hermitian").ell
    assert ell == 1
    d = min_distance(c)
    cert, record = extend_hermitian(c, 1)
    assert cert.hull_preserved
    assert d <= cert.d_prime <= d + 1
    assert record.q == 3
    assert (record.n, record.k_logical, record.c) == (6, 2, 2)
    q0 = F9.subfield_order
    for a, x in zip(cert.alphas, cert.x_rows):
        assert a != 0
        assert F9.pow(a, q0 + 1) != F9.neg(dot(F9, x, x, "hermitian"))


def check_extension_case(c, form, r, budget):
    """An extension against the kernel of its parity-check matrix, rebuilt
    from the certificate, and its record against the parameters."""
    spec, n, k = c.spec, c.n, c.k
    ell = hull(c, form).ell
    extend = extend_euclidean if form == "euclidean" else extend_hermitian
    cert, record = extend(c, r, budget)

    hp = rebuild_parity(c, cert, r, form)
    kernel = hp.kernel() if form == "euclidean" else hp.conjugate().kernel()
    assert cert.extended == make_code(spec, kernel)
    assert cert.original == c and cert.hull_preserved
    assert hull(cert.extended, form).ell == ell
    assert len(cert.alphas) == len(cert.x_rows) == r
    for a, x in zip(cert.alphas, cert.x_rows):
        norm = spec.mul(a, a) if form == "euclidean" else spec.mul(a, spec.conjugate(a))
        assert a != 0 and norm != spec.neg(dot(spec, x, x, form))

    try:
        d = min_distance(fresh(c), budget)
    except BudgetExceeded:
        d = None
    singleton = n + r - k + 1
    assert record.d_exact == cert.d_prime
    if cert.d_prime is not None:
        assert cert.d_prime == min_distance(fresh(cert.extended))
        if d is not None:
            assert d <= cert.d_prime <= d + r
    assert record.d_bounds == ((d, min(d + r, singleton)) if d is not None
                               else (1, singleton))
    q = spec.q if form == "euclidean" else spec.subfield_order
    assert (record.n, record.k_logical, record.c, record.q, record.r) \
        == (n + r, k - ell, n - k - ell + r, q, r)
    assert record.provenance == ("ext-euclidean" if form == "euclidean" else "ext-hermitian")
    assert record.rate == Fraction(k - ell, n + r)
    assert record.net_rate == Fraction(2 * k - n - r, n + r)
    return cert


@st.composite
def extension_cases(draw):
    """A small code of any `shaped_code` shape over an extension field,
    a form it supports, r in [0, k - ell] and a small budget."""
    spec, form = draw(st.sampled_from(EXTENSION_CASES))
    c = shaped_code(spec, form, draw(st.sampled_from(SHAPES)),
                    random.Random(draw(st.integers(0, 2 ** 32))))
    r = draw(st.integers(0, c.k - hull(c, form).ell))
    return c, form, r, draw(st.sampled_from([1, 1000]))


@settings(max_examples=150, deadline=None)
@given(extension_cases())
@example((code(F9, [[1, 1, 0, 0], [0, 1, 1, 1]]), "hermitian", 1, 1000))
def test_extension_is_the_kernel_of_its_parity_check(case):
    check_extension_case(*case)


def test_hermitian_extension_takes_alpha_outside_the_subfield():
    """<x, x>_H = -1 forbids every alpha of norm 1, so every alpha in
    GF(3); the conjugate of the alpha taken then differs from it."""
    c = code(F9, [[1, 1, 0, 0], [0, 1, 1, 1]])
    cert = check_extension_case(c, "hermitian", 1, 1000)
    x, = cert.x_rows
    a, = cert.alphas
    assert dot(F9, x, x, "hermitian") == F9.neg(1)
    assert F9.conjugate(a) != a


def test_hermitian_extension_rejects_even_base():
    with pytest.raises(ValueError):
        extend_hermitian(random_code(F4, 4, 2, 0), 0)   # subfield order 2
    with pytest.raises(ValueError):
        extend_hermitian(random_code(F5, 4, 2, 0), 0)   # not a square order


# ---------------------------------------------------------------
# rate algebra
# ---------------------------------------------------------------

def synthetic_record(n, k, ell, r, q=5, rate=None, net_rate=None):
    """The record rate_report expects from (n, k, ell, r); rate and
    net_rate, when given, replace the exact values."""
    return EaqeccRecord(
        n=n + r, k_logical=k - ell, d_exact=None, d_bounds=(1, n + r),
        c=n - k - ell + r, q=q,
        rate=Fraction(k - ell, n + r) if rate is None else rate,
        net_rate=Fraction(2 * k - n - r, n + r) if net_rate is None else net_rate,
        provenance="ext-euclidean", r=r)


def test_rate_report_hamming_values():
    rep = rate_report(synthetic_record(7, 4, 3, 0), 7, 4, 3, 0)
    assert rep.net_rate == Fraction(1, 7)
    assert rep.net_rate_positive


def test_rate_report_full_space():
    n = 6
    rep = rate_report(synthetic_record(n, n, 0, 0), n, n, 0, 0)
    assert rep.net_rate == Fraction(1)
    assert rep.rate == Fraction(1)


def test_rate_report_condition_boundary():
    # 4k = 3n + r exactly
    rep = rate_report(synthetic_record(4, 3, 0, 0), 4, 3, 0, 0)
    assert rep.high_dimension_condition
    assert rep.rate_at_least_half


def test_rate_report_rejects_mismatch():
    rec = synthetic_record(7, 4, 3, 0)
    with pytest.raises(ValueError):
        rate_report(rec, 7, 4, 2, 0)
    with pytest.raises(ValueError):
        rate_report(rec, 8, 4, 3, 0)
    with pytest.raises(ValueError):
        rate_report(rec, 7, 4, 4, 0)        # ell > min(k, n - k)


def test_rate_report_rejects_rates_that_disagree():
    with pytest.raises(ValueError, match="rates disagree"):
        rate_report(synthetic_record(7, 4, 3, 0, rate=Fraction(1, 2)), 7, 4, 3, 0)


def test_rate_report_theorem_checks_fire(monkeypatch):
    """The sign law and the 1/2 floor are theorems about exact rationals,
    so a fault is injected into the Fraction that `rate_report` reads."""
    monkeypatch.setattr(eaqecc, "Fraction", lambda a, b: -Fraction(a, b))
    rec = synthetic_record(7, 4, 3, 0, rate=Fraction(-1, 7), net_rate=Fraction(-1, 7))
    with pytest.raises(AssertionError, match="sign law"):
        rate_report(rec, 7, 4, 3, 0)
    # 4k >= 3n + r holds for [4, 3], ell = 0, and the floor is raised to 2
    monkeypatch.setattr(eaqecc, "Fraction",
                        lambda a, b: Fraction(2) if (a, b) == (1, 2) else Fraction(a, b))
    with pytest.raises(AssertionError, match="rate fell below 1/2"):
        rate_report(synthetic_record(4, 3, 0, 0), 4, 3, 0, 0)


# ---------------------------------------------------------------
# the Gramian facts a code keeps
# ---------------------------------------------------------------

def extension(form):
    return extend_euclidean if form == "euclidean" else extend_hermitian


@pytest.mark.parametrize("spec,forms", [(F5, ("euclidean",)),
                                        (make_field(7, 2), ("euclidean", "hermitian")),
                                        (make_field(17, 2), ("hermitian", "euclidean"))])
def test_each_gramian_fact_is_computed_once_per_form(monkeypatch, spec, forms):
    """The calls of one bulk code form the generator's Gramian once and
    run the odd diagonalization once per form, however many read them.
    Distances are refused (budget 1): they read no Gramian."""
    c = random_code(spec, 8, 4, 1)
    gramians, congruences = Counter(), Counter()
    fact, congruence = codes._fact, diag._congruence

    def counting_fact(code, name, form, compute):
        def counted():
            gramians[form] += code is c and name == "gramian"
            return compute()
        return fact(code, name, form, counted)

    def counting_congruence(code, form, *args):
        congruences[form] += code is c
        return congruence(code, form, *args)

    monkeypatch.setattr(codes, "_fact", counting_fact)
    monkeypatch.setattr(diag, "_congruence", counting_congruence)
    for form in forms:
        ell = hull(c, form).ell
        diagonalize_odd(c, form)
        pair_diagonal_generators(c, form)
        base_params(c, form, budget=1)
        extension(form)(c, min(1, c.k - ell), budget=1)
    assert gramians == dict.fromkeys(forms, 1)
    assert congruences == dict.fromkeys(forms, 1)


def test_base_params_and_an_extension_walk_the_code_once(monkeypatch):
    """The extension reads the distance that base_params found; the dual
    and the extended code are other codes, with walks of their own."""
    c = random_code(F5, 8, 4, 2)
    rows = c.gen.row_list()
    walks = Counter()
    walk = codes._iter_codewords

    def counting_walk(spec, step_rows):
        walks[tuple(step_rows) == tuple(rows)] += 1
        return walk(spec, step_rows)

    monkeypatch.setattr(codes, "_iter_codewords", counting_walk)
    primary, _ = base_params(c)
    _, record = extend_euclidean(c, min(1, c.k - hull(c).ell))
    assert walks[True] == 1 and walks[False] == 2
    assert record.d_bounds[0] == primary.d_exact == oracle.min_distance_by_enumeration(c)


def ask_everything(c, form, order=1):
    """Every public hull, diag, pair and base answer about c under form,
    asked in the given order (1 or -1); refusals are answers too."""
    calls = [hull, hull_dimension_via_gramian, is_self_orthogonal, is_lcd,
             is_hull_maximal_so_in, diagonalize_maximal_hull,
             pair_diagonal_generators,
             lambda c, form: base_params(c, form, budget=200)]
    if c.spec.p != 2:
        calls += [diagonalize_odd, orthogonal_basis_lcd]
    answers = {}
    for i, fn in list(enumerate(calls))[::order]:
        try:
            answers[i] = fn(c, form)
        except (HullNotMaximalError, NotLcdError) as exc:
            answers[i] = type(exc).__name__, str(exc)
    return answers


SQUARE_FIELDS = [spec for spec in FIELDS if spec.subfield_order]
FORMS = ("euclidean", "hermitian")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SQUARE_FIELDS), st.sampled_from(FORMS),
       st.sampled_from(SHAPES), st.integers(0, 2 ** 32))
def test_answers_do_not_depend_on_the_order_of_calls_or_forms(spec, shape_form, shape,
                                                              seed):
    """A fact stored under the wrong form, or read before it is right,
    would make a used code answer differently from a fresh one."""
    c = shaped_code(spec, shape_form, shape, random.Random(seed))
    by_fresh_code = {form: ask_everything(fresh(c), form) for form in FORMS}
    other_form_first, reverse_order = fresh(c), fresh(c)
    for form in FORMS:
        ask_everything(other_form_first, FORMS[form == "euclidean"])
        assert ask_everything(other_form_first, form) == by_fresh_code[form]
    for form in FORMS[::-1]:
        assert ask_everything(reverse_order, form, order=-1) == by_fresh_code[form]
    for used in (other_form_first, reverse_order):
        assert used == c and hash(used) == hash(c) and repr(used) == repr(c)
        assert used._facts and not fresh(c)._facts


@pytest.mark.parametrize("spec", [F5, make_field(7, 2), make_field(17, 2)])
def test_a_used_code_is_freed_with_its_last_reference(spec):
    """The facts point nowhere back at the code, so reference counting
    alone frees it after a full pipeline."""
    c = random_code(spec, 8, 4, 2)
    ref = weakref.ref(c)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for form in FORMS if spec.subfield_order else FORMS[:1]:
            ask_everything(c, form)
            extension(form)(c, min(1, c.k - hull(c, form).ell), budget=1)
        assert len(c._facts) >= 4
        del c
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
