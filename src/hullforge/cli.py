"""Command-line surface: code file ingestion, one subcommand per major
operation, and a verify mode that replays the brute-force cross-checks.

Exit codes: 0 success, 1 domain refusal (e.g. asking a non-LCD code for
an orthogonal basis), 2 input error, 3 internal verification failure.

One `to_json(value)` encodes every result, by its type.  JSON is
output only: nothing here reads it back, and a result is re-checked by
running `verify` on its code file.  `diag` and `verify` choose the
diagonalization route in one place, and `verify` checks both the
diagonal-Gramian generator and the diagonal cross-Gramian pair with one
certificate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache

from . import __version__, oracle
from .codes import (BudgetExceeded, LinearCode, dual, hull,
                    is_hull_maximal_so_in, make_code, min_distance,
                    random_invertible, resolve_budget)
from .diag import (DiagonalizationResult, HullNotMaximalError, NotLcdError,
                   diagonalize_maximal_hull, diagonalize_odd,
                   pair_diagonal_generators)
from .eaqecc import (EaqeccRecord, ExtensionVerificationError, base_params,
                     extend_euclidean, extend_hermitian)
from .gf import FieldSpec, make_field, modulus_str
from .matfq import MatrixFq, row_space_equal, vstack

BUDGET_ENV = "HULLFORGE_BUDGET"


class CodeFileError(ValueError):
    """Malformed code file."""


# ----------------------------------------------------------------------
# Code file format: line 1 is `p m n k`, then k rows of n element codes.
# '#' starts a comment; blank lines are ignored; numbers are ASCII digits.
# ----------------------------------------------------------------------

def _numbers(tokens, where: str) -> list:
    for t in tokens:
        if not (t.isascii() and t.isdigit()):
            raise CodeFileError(f"{where}: {t!r} is not a number of ASCII digits")
    try:
        return [int(t) for t in tokens]
    except ValueError as e:              # more digits than int() converts
        raise CodeFileError(f"{where}: {e}") from None


def parse_code_file(text: str) -> LinearCode:
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise CodeFileError("empty code file")
    header = lines[0].split()
    if len(header) != 4:
        raise CodeFileError(f"header must be 'p m n k', got {lines[0]!r}")
    p, m, n, k = _numbers(header, f"header {lines[0]!r}")
    try:
        spec = make_field(p, m)
    except ValueError as e:
        raise CodeFileError(f"bad field: {e}") from None
    if n < 1 or not 1 <= k <= n:
        raise CodeFileError(f"need n >= 1 and 1 <= k <= n, got n={n}, k={k}")
    body = lines[1:]
    if len(body) != k:
        raise CodeFileError(f"expected {k} generator rows, found {len(body)}")
    rows = []
    for idx, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != n:
            raise CodeFileError(f"row {idx}: expected {n} entries, found {len(tokens)}")
        row = _numbers(tokens, f"row {idx}")
        for e in row:
            if not 0 <= e < spec.q:
                raise CodeFileError(f"row {idx}: entry {e} out of range [0, {spec.q})")
        rows.append(row)
    matrix = MatrixFq.from_rows(spec, rows)
    code = None if matrix.is_zero() else make_code(spec, matrix)
    if code is None or code.k != k:
        deficient = _dependent_rows(matrix)
        raise CodeFileError(
            f"generator rows are rank deficient: rows {deficient} depend on earlier rows")
    return code


def _dependent_rows(matrix: MatrixFq):
    """Indices of the rows that lie in the span of the rows before them:
    the non-pivot columns of the transpose."""
    independent = set(matrix.transpose().rref()[1])
    return [i for i in range(matrix.rows) if i not in independent]


def format_code_file(code: LinearCode, comment: str | None = None) -> str:
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.splitlines())
    spec = code.spec
    out.append(f"{spec.p} {spec.m} {code.n} {code.k}")
    for i in range(code.k):
        out.append(" ".join(str(e) for e in code.gen.row(i)))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# JSON serialization (deterministic: sorted keys, fixed layout)
# ----------------------------------------------------------------------

def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def to_json(value):
    """The JSON value of a field, code, matrix, fraction, tuple or result
    dataclass: a code is its n, k and generator rows, never the facts it
    keeps; a matrix its rows; a fraction its num and den; a tuple a
    list; any other dataclass is its fields, each encoded in turn;
    anything else is already JSON."""
    if value is None or isinstance(value, (int, str)):
        return value                   # most values; no type below matches
    if isinstance(value, FieldSpec):
        return {"p": value.p, "m": value.m, "q": value.q,
                "modulus": list(value.modulus),
                "subfield_order": value.subfield_order}
    if isinstance(value, LinearCode):
        return {"n": value.n, "k": value.k, "gen": to_json(value.gen)}
    if isinstance(value, MatrixFq):
        return [list(row) for row in value.row_list()]
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    return value


# These six names have no use here, but bench/checks.py encodes library
# results by them.
code_json = matrix_json = hull_report_json = to_json
diag_result_json = record_json = certificate_json = to_json


def envelope(command: str, spec: FieldSpec | None, digest: str | None,
             result) -> dict:
    return {"tool_version": __version__,
            "command": command,
            "field": to_json(spec),
            "input_digest": digest,
            "result": result}


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _load(args):
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CodeFileError(f"cannot read {args.file}: {e}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CodeFileError(f"{args.file} is not UTF-8: {e}") from None
    return parse_code_file(text), digest


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return resolve_budget(args.budget)
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return resolve_budget(int(env))
        except ValueError:
            raise CodeFileError(f"bad {BUDGET_ENV} value {env!r}") from None
    return resolve_budget(None)


def _emit(args, spec, digest, payload, human_lines):
    if args.json:
        sys.stdout.write(dumps(envelope(args.command_line, spec, digest, payload)))
    else:
        for line in human_lines:
            print(line)
    return 0


def _field_lines(spec: FieldSpec):
    lines = [f"field: GF({spec.q}) = GF({spec.p}^{spec.m}), modulus {modulus_str(spec)}"]
    if spec.subfield_order is not None:
        lines.append(f"conjugation: x -> x^{spec.subfield_order} fixing GF({spec.subfield_order})")
    return lines


def cmd_field_info(args):
    if args.file:
        code, digest = _load(args)
        spec = code.spec
    else:
        if args.p is None or args.m is None:
            raise CodeFileError("field-info needs a code file or both -p and -m")
        spec = make_field(args.p, args.m)
        digest = None
    return _emit(args, spec, digest, to_json(spec), _field_lines(spec))


def cmd_hull(args):
    code, digest = _load(args)
    rep = hull(code, args.form)
    lines = _field_lines(code.spec)
    lines.append(f"code: [{code.n},{code.k}] over GF({code.spec.q})")
    lines.append(f"form: {rep.form}")
    lines.append(f"hull dimension: {rep.ell}")
    if rep.hull is None:
        lines.append("hull: zero code")
    else:
        lines.append("hull generator:")
        lines.extend("  " + " ".join(map(str, rep.hull.gen.row(i)))
                     for i in range(rep.hull.k))
    lines.append(f"gramian ranks: generator {rep.gramian_rank_g}, "
                 f"parity {rep.gramian_rank_h}")
    lines.append(f"consistent: {'yes' if rep.consistent else 'NO'}")
    return _emit(args, code.spec, digest, to_json(rep), lines)


def _diagonalize(code: LinearCode, form: str) -> DiagonalizationResult:
    """The diagonal-Gramian route of the code's field: `diagonalize_odd`
    in odd characteristic, `diagonalize_maximal_hull` in characteristic 2."""
    if code.spec.p != 2:
        return diagonalize_odd(code, form)
    return diagonalize_maximal_hull(code, form)


def cmd_diag(args):
    code, digest = _load(args)
    spec = code.spec
    if args.pair:
        g1, g2, diagonal = pair_diagonal_generators(code, args.form)
        nonzero = sum(1 for d in diagonal if d)
        payload = {"method": "pair-reduction",
                   "code": to_json(code),
                   "gen_left": to_json(g1),
                   "gen_right": to_json(g2),
                   "diagonal": to_json(diagonal),
                   "nonzero_count": nonzero}
        lines = ["method: pair-reduction",
                 f"cross-gramian diagonal: {' '.join(map(str, diagonal))}",
                 f"nonzero entries: {nonzero}"]
        return _emit(args, spec, digest, payload, lines)
    res = _diagonalize(code, args.form)
    lines = [f"method: {res.method}",
             f"gramian diagonal: {' '.join(map(str, res.diagonal))}",
             f"nonzero entries: {res.nonzero_count}",
             "new generator:"]
    lines.extend("  " + " ".join(map(str, res.new_gen.row(i)))
                 for i in range(res.new_gen.rows))
    return _emit(args, spec, digest, to_json(res), lines)


def cmd_mindist(args):
    code, digest = _load(args)
    d = min_distance(code, _budget(args))
    payload = {"n": code.n, "k": code.k, "d": d}
    lines = [f"code: [{code.n},{code.k}] over GF({code.spec.q})",
             f"minimum distance: {d}"]
    return _emit(args, code.spec, digest, payload, lines)


def _record_lines(rec: EaqeccRecord):
    d = rec.d_exact if rec.d_exact is not None else f"{rec.d_bounds[0]}..{rec.d_bounds[1]}"
    return [f"[[{rec.n},{rec.k_logical},{d};{rec.c}]]_{rec.q}"
            f"  rate {rec.rate}  net rate {rec.net_rate}  ({rec.provenance}, r={rec.r})"]


def cmd_eaqecc_base(args):
    code, digest = _load(args)
    budget = _budget(args)
    primary, secondary = base_params(code, args.form, budget)
    ell = code.k - primary.k_logical
    payload = {"hull_dimension": ell,
               "primary": to_json(primary),
               "dual_side": to_json(secondary)}
    lines = [f"hull dimension: {ell}"]
    lines += _record_lines(primary)
    lines += _record_lines(secondary)
    return _emit(args, code.spec, digest, payload, lines)


def cmd_eaqecc_extend(args):
    code, digest = _load(args)
    budget = _budget(args)
    if args.form == "hermitian":
        cert, record = extend_hermitian(code, args.r, budget)
    else:
        cert, record = extend_euclidean(code, args.r, budget)
    payload = {"certificate": to_json(cert), "record": to_json(record)}
    lines = [f"extension r: {args.r}",
             f"alphas: {' '.join(map(str, cert.alphas)) or '-'}",
             f"hull preserved: {'yes' if cert.hull_preserved else 'NO'}"]
    lines += _record_lines(record)
    return _emit(args, code.spec, digest, payload, lines)


# ----------------------------------------------------------------------
# verify: replay every cross-check the brute-force module offers
# ----------------------------------------------------------------------

def _verify_checks(code: LinearCode, form: str, budget: int, seed: int):
    """(name, outcome) pairs: outcome is True or False for a check that
    ran, and the reason it was skipped otherwise."""
    spec = code.spec
    q = spec.q
    checks = []

    def over(words):
        return f"needs {words} codewords, cap {budget}"

    rep = hull(code, form)
    checks.append(("hull-gramian-consistency", rep.consistent))
    # Against the dual of C + dual(C), which never forms the Gramian.
    d = dual(code, form)
    by_sum = None if d is None else dual(make_code(spec, vstack(code.gen, d.gen)), form)
    checks.append(("gramian-shortcut-agreement", rep.hull == by_sum))

    if q ** code.k <= budget:
        words, oracle_ell = oracle.hull_by_enumeration(code, form, budget)
        ok = oracle_ell == rep.ell and words == q ** rep.ell
        checks.append(("hull-vs-enumeration", ok))
        checks.append(("min-distance-agreement",
                       min_distance(code, budget)
                       == oracle.min_distance_by_enumeration(code, budget)))
        checks.append(("maximality-agreement",
                       is_hull_maximal_so_in(code, form)
                       == oracle.maximal_so_by_enumeration(code, form, budget)))
    else:
        if d is None:
            checks.append(("hull-vs-enumeration", rep.ell == 0))
        elif q ** d.k <= budget:
            _, oracle_ell = oracle.hull_by_enumeration(d, form, budget)
            checks.append(("hull-vs-enumeration", oracle_ell == rep.ell))
        else:
            checks.append(("hull-vs-enumeration", over(q ** min(code.k, d.k))))
        checks.append(("min-distance-agreement", over(q ** code.k)))
        checks.append(("maximality-agreement", over(q ** code.k)))

    rng = random.Random(seed)
    e1 = random_invertible(spec, code.k, rng)
    e2 = random_invertible(spec, code.k, rng)
    cross = _cross_gramian(e1 @ code.gen, e2 @ code.gen, form)
    checks.append(("generator-independence", cross.rank == code.k - rep.ell))

    checks.append(("pair-diagonal", _diagonal_certificate(
        code, form, *pair_diagonal_generators(code, form), rep.ell)))
    try:
        res = _diagonalize(code, form)
    except HullNotMaximalError:
        checks.append(("diagonalization", "hull not maximal"))
    else:
        checks.append(("diagonalization",
                       res.nonzero_count == code.k - rep.ell
                       and _diagonal_certificate(code, form, res.new_gen, res.new_gen,
                                                 res.diagonal, rep.ell)))
    return checks


def _cross_gramian(g1: MatrixFq, g2: MatrixFq, form: str) -> MatrixFq:
    """g1 g2^T, or g1 g2^dagger for the hermitian form."""
    return g1 @ (g2.transpose() if form == "euclidean" else g2.conj_transpose())


def _diagonal_certificate(code, form, g1, g2, diagonal, ell) -> bool:
    """Whether g1 and g2 generate the code, g1 g2^T (g1 g2^dagger,
    hermitian) is diag(diagonal), and exactly the first k - ell entries
    of diagonal are nonzero: the certificate of `diag --pair` and, with
    g1 = g2, of `diag`."""
    k = code.k
    return ([bool(x) for x in diagonal] == [i < k - ell for i in range(k)]
            and _cross_gramian(g1, g2, form).entries
            == tuple(diagonal[i] if i == j else 0 for i in range(k) for j in range(k))
            and row_space_equal(g1, code.gen) and row_space_equal(g2, code.gen))


def cmd_verify(args):
    code, digest = _load(args)
    checks = _verify_checks(code, args.form, _budget(args), args.seed)
    status = {True: "pass", False: "FAIL"}
    lines = []
    entries = []
    for name, outcome in checks:
        word = status.get(outcome, "skipped")
        line = f"{word:>7}  {name}"
        entry = {"name": name, "status": word.lower()}
        if isinstance(outcome, str):
            line += f" ({outcome})"
            entry["reason"] = outcome
        lines.append(line)
        entries.append(entry)
    passed = all(outcome is not False for _, outcome in checks)
    skipped = sum(isinstance(outcome, str) for _, outcome in checks)
    verdict = "all checks passed" if passed else "FAILURES above"
    if skipped:
        verdict = (f"{'no check failed' if passed else 'FAILURES above'}, "
                   f"{skipped} of {len(checks)} skipped")
    lines.append("verdict: " + verdict)
    rc = _emit(args, code.spec, digest, {"checks": entries, "passed": passed}, lines)
    return rc if passed else 3


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------

def _add_common(sp, form=True, budget=True):
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    if form:
        sp.add_argument("--form", choices=("euclidean", "hermitian"),
                        default="euclidean")
    if budget:
        sp.add_argument("--budget", type=int, default=None,
                        help=f"enumeration cap (default {BUDGET_ENV} or built-in)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullforge",
        description="Exact hulls, Gramian diagonalization, and "
                    "entanglement-assisted quantum code parameters.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("field-info", help="describe a field")
    sp.add_argument("file", nargs="?", help="code file (optional)")
    sp.add_argument("-p", type=int, default=None, help="characteristic")
    sp.add_argument("-m", type=int, default=None, help="extension degree")
    _add_common(sp, form=False, budget=False)
    sp.set_defaults(func=cmd_field_info)

    sp = subs.add_parser("hull", help="hull report for a code file")
    sp.add_argument("file")
    _add_common(sp, budget=False)
    sp.set_defaults(func=cmd_hull)

    sp = subs.add_parser("diag", help="diagonal-Gramian generator matrix")
    sp.add_argument("file")
    sp.add_argument("--pair", action="store_true",
                    help="two generators with diagonal cross-Gramian instead")
    _add_common(sp, budget=False)
    sp.set_defaults(func=cmd_diag)

    sp = subs.add_parser("mindist", help="exact minimum distance")
    sp.add_argument("file")
    _add_common(sp, form=False)
    sp.set_defaults(func=cmd_mindist)

    sp = subs.add_parser("eaqecc-base", help="base quantum code records")
    sp.add_argument("file")
    _add_common(sp)
    sp.set_defaults(func=cmd_eaqecc_base)

    sp = subs.add_parser("eaqecc-extend", help="length-extended quantum code")
    sp.add_argument("file")
    sp.add_argument("--r", type=int, required=True, help="extension length")
    _add_common(sp)
    sp.set_defaults(func=cmd_eaqecc_extend)

    sp = subs.add_parser("verify", help="run brute-force cross-checks")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized generator checks")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use.  Parsing keeps no state
    in it, so every call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(argv)
    args.command_line = " ".join(argv)
    try:
        return args.func(args)
    except (NotLcdError, HullNotMaximalError, BudgetExceeded) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except ExtensionVerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
