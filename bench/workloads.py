"""The three seeded workloads and the pipelines that drive hullforge.

The benchmark builds every input with `random.Random` from the workload
seed and hands the program only generator rows (bulk workloads) or code
files (enum-search).  The structure of a round does not depend on the
seed: which fields, which kinds of code and which (n, k) shapes it holds
are fixed, so every seed runs the same mix and the seed chooses the
entries and where the extension length r starts.  Building inputs is
never timed.

Each library or CLI call is timed from outside with `perf_counter_ns`.
Functions are looked up on their module at call time, so the span
wrappers of `bench.spans` see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from hullforge import cli, codes, diag, eaqecc, gf, matfq

GOLDEN = 0.6180339887498949
ENUM_N = (8, 24)
ENUM_CAP = 20_000            # q^k and q^(n-k) both stay at or under this


@dataclass(frozen=True)
class FieldPlan:
    """One field of a workload: GF(p^m), the code length for the bulk
    workloads, and whether the hermitian form runs too."""
    p: int
    m: int
    n: int = 0
    hermitian: bool = False

    @property
    def q(self) -> int:
        return self.p ** self.m


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "bulk" or "enum"
    fields: tuple
    per_field: int = 0        # enum-search codes per field in one round


# Lengths are chosen so each field takes a similar share of its workload.
WORKLOADS = {w.name: w for w in (
    Workload("bulk-small-q", "bulk", (
        FieldPlan(2, 1, 64), FieldPlan(3, 1, 64), FieldPlan(7, 1, 48),
        FieldPlan(7, 2, 40, hermitian=True), FieldPlan(2, 8, 40, hermitian=True),
    )),
    Workload("bulk-wide-q", "bulk", (
        FieldPlan(2, 16, 8), FieldPlan(3, 10, 8),
        FieldPlan(251, 2, 9, hermitian=True), FieldPlan(5, 6, 10),
        FieldPlan(7, 5, 10),
    )),
    Workload("enum-search", "enum", (
        FieldPlan(2, 1), FieldPlan(3, 1), FieldPlan(2, 2, hermitian=True),
        FieldPlan(5, 1), FieldPlan(2, 3), FieldPlan(3, 2, hermitian=True),
    ), 4),
)}


@dataclass
class CodeInput:
    plan: FieldPlan
    kind: str                 # "plain", "large-hull", "maximal" or "enum"
    rows: list
    r_frac: float = 0.0       # where r falls in [1, k - ell], in [0, 1)
    path: str = ""            # code file, enum-search only


@dataclass
class Call:
    op: str                   # make_code, hull, diag, pair, base or extend
    form: str
    ns: int
    value: object = None      # library result, or captured stdout of a CLI call
    error: BaseException | None = None
    rc: int | None = None     # CLI exit code
    r: int = 0                # extension length


@dataclass
class CodeRun:
    inp: CodeInput
    ns: int                   # wall time of the whole pipeline
    calls: list = field(default_factory=list)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def slots(workload: Workload, plan: FieldPlan):
    """The kinds of code each round holds for one field."""
    if workload.kind == "enum":
        return ("enum",) * workload.per_field
    return ("plain", "large-hull") + (("maximal",) if plan.p == 2 else ())


def make_round(workload: Workload, seed: int, index: int, workdir=None):
    """The inputs of round `index`; the same for the same seed.

    Every round holds the same kinds of code for the same fields.  Per
    slot, r follows a golden-ratio sequence over the round index from a
    seeded start, so a few rounds already spread it evenly.  Enum-search
    slot j of a field draws its shape from the j-th of per_field equal
    slices of the natural-rate distribution, at a point that moves by the
    same sequence, so every round holds cheap and costly shapes alike.
    """
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    starts = random.Random(f"{workload.name}:{seed}")
    inputs = []
    for plan in workload.fields:
        spec = gf.make_field(plan.p, plan.m)
        for j, kind in enumerate(slots(workload, plan)):
            r_frac = (starts.random() + GOLDEN * index) % 1.0
            if kind == "enum":
                u = (j + (0.5 + GOLDEN * index) % 1.0) / workload.per_field
                inp = _enum_input(spec, plan, f"{index}-{j}", u, rng, Path(workdir))
            else:
                inp = CodeInput(plan, kind, _bulk_rows(spec, plan.n, kind, 2, rng))
            inp.r_frac = r_frac
            inputs.append(inp)
    return inputs


@functools.lru_cache(maxsize=None)
def orthogonal_scalars(spec):
    """Nonzero scalars s_1.. with 1 + sum s_i^2 = 0.

    One scalar c (c^2 = -1) when -1 is a square, else two, which always
    exist because every element is a sum of two squares.
    """
    q = spec.q
    if spec.p == 2:
        scalars = (1,)
    elif q % 4 == 1:
        non_square = next(x for x in range(2, q) if not spec.is_square(x))
        scalars = (spec.pow(non_square, (q - 1) // 4),)
    else:
        # q = 3 mod 4: a square t has the root t^((q+1)/4)
        for a in range(1, q):
            t = spec.sub(spec.neg(1), spec.mul(a, a))
            if spec.is_square(t):
                scalars = (a, spec.pow(t, (q + 1) // 4))
                break
    total = 1
    for s in scalars:
        total = spec.add(total, spec.mul(s, s))
    if total != 0 or not all(scalars):
        raise RuntimeError(f"no orthogonal scalars found for {spec!r}")
    return scalars


def _bulk_rows(spec, n, kind, extra, rng):
    """k = n/2 generator rows.

    plain: uniform entries, so the hull is mostly 0- or 1-dimensional.
    large-hull: k - extra rows [A | sA | ..] that are self-orthogonal
      under the euclidean form, plus `extra` uniform rows, so
      ell >= k - 2 * extra.
    maximal (characteristic 2): k - 1 rows [A | A] with A's last column
      zero, plus one row [x | x + e_last]; that row is orthogonal to the
      block and has self-product 1, so k - ell = 1 and the hull is
      maximal.
    """
    q = spec.q
    k = n // 2

    def uniform(width):
        return [rng.randrange(q) for _ in range(width)]

    if kind == "plain":
        return [uniform(n) for _ in range(k)]
    if kind == "maximal":
        w = n // 2
        pad = [0] * (n - 2 * w)
        rows = []
        for _ in range(k - 1):
            a = uniform(w - 1) + [0]
            rows.append(a + a + pad)
        x = uniform(w)
        rows.append(x + x[:-1] + [spec.add(x[-1], 1)] + pad)
    else:
        scalars = (1,) + orthogonal_scalars(spec)
        w = n // len(scalars)
        pad = [0] * (n - w * len(scalars))
        rows = []
        for _ in range(k - extra):
            a = uniform(w)
            rows.append([spec.mul(s, x) for s in scalars for x in a] + pad)
        rows.extend(uniform(n) for _ in range(extra))
    rng.shuffle(rows)
    return rows


@functools.lru_cache(maxsize=None)
def shape_table(q):
    """Admissible (n, k) shapes and their cumulative natural rates.

    The natural rate is that of the rejection draw: n uniform in ENUM_N,
    then k uniform in 1..n, kept when q^k and q^(n-k) fit ENUM_CAP, so
    P(n, k) is proportional to 1/n.  Shapes are ordered by enumeration
    size, so evenly spread draws also spread the cost.
    """
    shapes = sorted(((q ** k + q ** (n - k), n, k)
                     for n in range(ENUM_N[0], ENUM_N[1] + 1)
                     for k in range(1, n + 1)
                     if q ** k <= ENUM_CAP and q ** (n - k) <= ENUM_CAP))
    total = sum(1 / n for _, n, _ in shapes)
    table, acc = [], 0.0
    for _, n, k in shapes:
        acc += 1 / n / total
        table.append((acc, n, k))
    return table


def enum_shape(q, u):
    """The shape at quantile u in [0, 1) of the natural rates."""
    for acc, n, k in shape_table(q):
        if u < acc:
            return n, k
    return shape_table(q)[-1][1:]


def _enum_input(spec, plan, tag, u, rng, workdir):
    n, k = enum_shape(plan.q, u)
    while True:
        rows = [[rng.randrange(plan.q) for _ in range(n)] for _ in range(k)]
        if matfq.MatrixFq.from_rows(spec, rows).rank == k:
            break
    path = workdir / f"q{plan.q}-{tag}.code"
    body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    path.write_text(f"{plan.p} {plan.m} {n} {k}\n{body}")
    return CodeInput(plan, "enum", rows, path=str(path))


# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------

def run_code(inp: CodeInput) -> CodeRun:
    if inp.kind == "enum":
        return _run_enum(inp)
    return _run_bulk(inp)


def _timed(calls, op, form, fn, *args, r=0):
    t0 = perf_counter_ns()
    try:
        value, error = fn(*args), None
    except Exception as exc:          # refusals and failures alike; checked later
        value, error = None, exc
    calls.append(Call(op, form, perf_counter_ns() - t0, value, error, r=r))
    return value


def _make_code(spec, rows):
    return codes.make_code(spec, matfq.MatrixFq.from_rows(spec, rows))


def _extension(spec, form):
    """The extension the field allows under `form`, or None."""
    if spec.p == 2:
        return None
    if form == "euclidean":
        return eaqecc.extend_euclidean if spec.q >= 5 else None
    return eaqecc.extend_hermitian if spec.subfield_order >= 3 else None


def _run_bulk(inp):
    plan = inp.plan
    spec = gf.make_field(plan.p, plan.m)
    forms = ("euclidean", "hermitian") if plan.hermitian else ("euclidean",)
    calls = []
    t0 = perf_counter_ns()
    code = _timed(calls, "make_code", "", _make_code, spec, inp.rows)
    for form in forms if code is not None else ():
        rep = _timed(calls, "hull", form, codes.hull, code, form)
        if rep is None:
            continue
        route = diag.diagonalize_odd if spec.p != 2 else diag.diagonalize_maximal_hull
        _timed(calls, "diag", form, route, code, form)
        _timed(calls, "pair", form, diag.pair_diagonal_generators, code, form)
        _timed(calls, "base", form, eaqecc.base_params, code, form)
        extend = _extension(spec, form)
        free = code.k - rep.ell
        if extend is not None and free >= 1:
            r = 1 + int(inp.r_frac * free)
            _timed(calls, "extend", form, extend, code, r, r=r)
    return CodeRun(inp, perf_counter_ns() - t0, calls)


def _cli(calls, op, form, argv, r=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter_ns()
        try:
            rc, error = cli.main(argv), None
        except (Exception, SystemExit) as exc:
            rc, error = None, exc
        ns = perf_counter_ns() - t0
    call = Call(op, form, ns, out.getvalue(), error, rc, r)
    calls.append(call)
    return call


def _run_enum(inp):
    plan, path = inp.plan, inp.path
    calls = []
    t0 = perf_counter_ns()
    hull_call = _cli(calls, "hull", "euclidean", ["hull", path, "--json"])
    _cli(calls, "base", "euclidean", ["eaqecc-base", path, "--json"])
    if plan.hermitian:
        _cli(calls, "base", "hermitian",
             ["eaqecc-base", path, "--form", "hermitian", "--json"])
    _cli(calls, "diag", "euclidean", ["diag", path, "--json"])
    _cli(calls, "pair", "euclidean", ["diag", path, "--pair", "--json"])
    if plan.p != 2 and plan.q >= 5 and hull_call.rc == 0:
        ell = json.loads(hull_call.value)["result"]["ell"]
        if len(inp.rows) - ell >= 1:
            _cli(calls, "extend", "euclidean",
                 ["eaqecc-extend", path, "--r", "1", "--json"], r=1)
    return CodeRun(inp, perf_counter_ns() - t0, calls)
