"""Tests of the benchmark's own code: inputs, spans, wrappers and checks."""

import dataclasses
import json
import random

from hullforge import codes, diag, gf, matfq

from bench import checks, spans, workloads
from bench.workloads import CodeInput, FieldPlan, WORKLOADS


def _small_bulk_input(kind="plain", seed=3):
    plan = FieldPlan(7, 1, 12)
    spec = gf.make_field(7, 1)
    rows = workloads._bulk_rows(spec, plan.n, kind, 2, random.Random(seed))
    return CodeInput(plan, kind, rows, r_frac=0.5)


def test_bulk_inputs_are_deterministic_per_seed():
    for name in ("bulk-small-q", "bulk-wide-q"):
        w = WORKLOADS[name]
        a = [i.rows for i in workloads.make_round(w, 5, 1)]
        b = [i.rows for i in workloads.make_round(w, 5, 1)]
        c = [i.rows for i in workloads.make_round(w, 6, 1)]
        assert a == b
        assert a != c


def test_enum_inputs_are_deterministic_per_seed(tmp_path):
    w = WORKLOADS["enum-search"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.make_round(w, 9, 0, tmp_path / "a")
    b = workloads.make_round(w, 9, 0, tmp_path / "b")
    assert [i.rows for i in a] == [i.rows for i in b]
    assert [open(i.path).read() for i in a] == [open(i.path).read() for i in b]
    for inp in a:
        n, k = len(inp.rows[0]), len(inp.rows)
        assert inp.plan.q ** k <= workloads.ENUM_CAP
        assert inp.plan.q ** (n - k) <= workloads.ENUM_CAP


def test_constructed_hulls_are_large_or_maximal():
    for p, m in ((3, 1), (7, 1), (7, 2), (2, 8)):
        spec = gf.make_field(p, m)
        rows = workloads._bulk_rows(spec, 24, "large-hull", 2, random.Random(1))
        code = codes.make_code(spec, matfq.MatrixFq.from_rows(spec, rows))
        assert codes.hull(code).ell >= code.k - 4, (p, m)
    spec = gf.make_field(2, 8)
    rows = workloads._bulk_rows(spec, 24, "maximal", 1, random.Random(2))
    code = codes.make_code(spec, matfq.MatrixFq.from_rows(spec, rows))
    assert code.k - codes.hull(code).ell == 1


def test_self_times_on_a_hand_built_tree():
    # a [0, 100] holds b [10, 40] (which holds c [15, 25]) and b [50, 70]
    tree = [("a", -1, 0, 100), ("b", 0, 10, 40), ("c", 1, 15, 25), ("b", 0, 50, 70)]
    out = spans.self_times(tree)
    assert out["a"] == [1, 100, 50]
    assert out["b"] == [2, 50, 40]
    assert out["c"] == [1, 10, 10]
    assert sum(v[2] for v in out.values()) == 100


def test_wrappers_restore_originals_and_keep_answers():
    originals = (codes.hull, diag.hull, diag.dot, matfq.MatrixFq.__dict__["rref"],
                 gf.FieldSpec.__dict__["mul"])
    inp = _small_bulk_input()
    plain = checks.payloads(workloads.run_code(inp))
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        assert codes.hull is not originals[0] and diag.hull is codes.hull
        tracer.active = True
        run = workloads.run_code(inp)
        tracer.active = False
    finally:
        spans.restore(patches)
    assert checks.payloads(run) == plain
    assert (codes.hull, diag.hull, diag.dot, matfq.MatrixFq.__dict__["rref"],
            gf.FieldSpec.__dict__["mul"]) == originals
    metrics = spans.layer_metrics(tracer, run.ns, run.ns, 0)
    for name in ("codes.make_code.calls", "codes.hull.calls", "diag.odd.calls",
                 "eaqecc.extend.calls", "gf.ops"):
        assert metrics[name][0] > 0, name
    layers = sum(metrics[f"{layer}.self_ms"][0] for layer in spans.LAYERS)
    total = layers + metrics["trace.uncovered_ms"][0]
    assert abs(total - metrics["trace.wall_ms"][0]) < 1e-6


def _reasons(run):
    return [r for call in checks.check_run(run, checks.payloads(run)) for r in call]


def test_checks_pass_a_good_run_and_catch_a_tampered_diagonal():
    run = workloads.run_code(_small_bulk_input("large-hull"))
    assert _reasons(run) == []
    call = next(c for c in run.calls if c.op == "diag")
    res = call.value
    bad = list(res.diagonal)
    bad[0] = (bad[0] + 1) % 7 or 1
    call.value = dataclasses.replace(res, diagonal=tuple(bad))
    assert "diag-gramian" in _reasons(run)


def _enum_input(tmp_path, p, m, rows):
    path = tmp_path / "c.code"
    path.write_text(f"{p} {m} {len(rows[0])} {len(rows)}\n"
                    + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return CodeInput(FieldPlan(p, m), "enum", rows, path=str(path))


def test_enum_checks_catch_a_wrong_hull_and_count_the_zero_dual_record(tmp_path):
    hamming = [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
               [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]
    run = workloads.run_code(_enum_input(tmp_path, 2, 1, hamming))
    assert _reasons(run) == []
    call = next(c for c in run.calls if c.op == "hull")
    doc = json.loads(call.value)
    doc["result"]["ell"] += 1
    call.value = json.dumps(doc)
    assert "hull-vs-oracle" in _reasons(run)

    full_space = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    run = workloads.run_code(_enum_input(tmp_path, 3, 1, full_space))
    assert _reasons(run) == ["zero-dual-record"]


def test_char2_refusal_must_match_the_oracle(tmp_path):
    rows = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0], [0, 1, 0, 1, 1, 1]]
    run = workloads.run_code(_enum_input(tmp_path, 2, 1, rows))
    diag_call = next(c for c in run.calls if c.op == "diag")
    good = _reasons(run)
    assert good == []
    diag_call.rc = 0 if diag_call.rc == 1 else 1
    assert "refusal-mismatch" in _reasons(run)
