import argparse
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullforge
from hullforge import cli
from hullforge.codes import LinearCode, hull, min_distance, random_code
from hullforge.diag import HullNotMaximalError
from hullforge.eaqecc import base_params, extend_euclidean, extend_hermitian
from hullforge.gf import make_field
from hullforge.matfq import MatrixFq, row_space_equal

F5 = make_field(5, 1)

# Every field with q <= 9, and GF(17^2), which has no tables.
ROUNDTRIP_FIELDS = [make_field(p, m) for p, m in
                    [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (17, 2)]]
# A field of each core, the tables in both characteristics, the lanes
# of GF(3^6) and the mod-p arithmetic of GF(257), with each form it allows.
CORE_FIELD_FORMS = [(spec, form)
                    for spec in (make_field(p, m) for p, m in
                                 [(3, 1), (2, 2), (7, 1), (3, 2), (3, 6), (257, 1)])
                    for form in ("euclidean", "hermitian")
                    if form == "euclidean" or spec.subfield_order]
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def codes(draw, spec):
    """A random [n, k] code over spec, k = n included (zero dual, hull None)."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    return random_code(spec, n, k, draw(st.integers(0, 2 ** 30)))


@st.composite
def codes_and_forms(draw):
    """A random code with a form it supports."""
    spec = draw(st.sampled_from(ROUNDTRIP_FIELDS))
    forms = ("euclidean", "hermitian") if spec.subfield_order else ("euclidean",)
    return draw(codes(spec)), draw(st.sampled_from(forms))


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------
# code file parsing
# ---------------------------------------------------------------

def test_parse_repetition():
    c = cli.parse_code_file("2 1 3 1\n1 1 1\n")
    assert (c.n, c.k) == (3, 1)
    assert c.spec.q == 2


def test_parse_ignores_comments_and_blanks():
    with_comments = "# a comment\n\n2 1 3 1  # trailing\n1 1 1\n"
    assert cli.parse_code_file(with_comments) == cli.parse_code_file("2 1 3 1\n1 1 1")


def test_parse_accepts_crlf():
    assert cli.parse_code_file("2 1 2 1\r\n1 1\r\n").n == 2


def test_parse_rank_deficiency_names_rows():
    cases = [
        ("2 1 3 2\n1 1 1\n1 1 1\n", "[1]"),
        # r2 = r0 + 2 r1 and r3 = 2 r0, over GF(3)
        ("3 1 5 5\n1 0 0 0 0\n0 1 0 0 0\n1 2 0 0 0\n2 0 0 0 0\n0 0 1 0 0\n", "[2, 3]"),
        # a zero row first, then multiples of one row
        ("3 1 4 4\n0 0 0 0\n1 1 0 0\n0 0 0 0\n2 2 0 0\n", "[0, 2, 3]"),
        # GF(4): r1 = 2 r0 and r3 = 3 r0 + r2
        ("2 2 4 4\n1 2 0 0\n2 3 0 0\n0 0 1 1\n3 1 1 1\n", "[1, 3]"),
    ]
    for text, rows in cases:
        with pytest.raises(cli.CodeFileError) as err:
            cli.parse_code_file(text)
        assert f"rows {rows} depend" in str(err.value)


@pytest.mark.parametrize("text", [
    "",                                  # empty
    "2 1 3\n1 1 1",                      # short header
    "2 x 3 1\n1 1 1",                    # non-integer
    "4 1 3 1\n1 1 1",                    # p not prime
    "2 1 3 1\n1 1",                      # short row
    "2 1 3 1\n1 2 1",                    # entry out of range
    "2 1 3 2\n1 1 1",                    # missing row
    "2 1 0 0\n",                         # n = 0
    "2305843009213693951 1 3 1\n1 1 1",  # prime p over the order cap
    "3 100000000 3 1\n1 1 1",            # m over the order cap
    # numbers are ASCII digits only
    "2 1 3 1\n\u0661 1 1",                # an Arabic-Indic 1
    "2 1 3 1\n+1 1 1",
    "11 1 3 1\n1_0 1 1",
    "\u0662 1 3 1\n1 1 1",
    "-2 1 3 1\n1 1 1",
    "2 1 3 1\n\uff11 1 1",                # a fullwidth 1
    # more digits than int() converts
    pytest.param("2 1 3 1\n" + "1" * 5000 + " 1 1", id="5000-digit-entry"),
    pytest.param("1" * 5000 + " 1 3 1\n1 1 1", id="5000-digit-header"),
])
def test_parse_errors(text):
    with pytest.raises(cli.CodeFileError):
        cli.parse_code_file(text)


# Near-valid files: a good header, then one row of entries that may carry
# a sign, an underscore or a digit of another script, then a tail.
ENTRIES = ["0", "1", "2", "10", "01", "+1", "-1", "1_0", "\u0661", "\uff11", "\u00b2"]
near_valid = st.builds(
    lambda head, row, tail: f"{head}\n{' '.join(row)}{tail}",
    st.sampled_from(["2 1 3 1", "3 1 2 1", "11 1 2 1", "2 2 2 1", "+2 1 2 1"]),
    st.lists(st.sampled_from(ENTRIES), min_size=2, max_size=3),
    st.sampled_from(["", "\n", " # note +1", "\r\n", "\n1 1 1", "\x85"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), near_valid))
def test_parse_gives_a_code_or_a_code_file_error(text):
    try:
        c = cli.parse_code_file(text)
    except cli.CodeFileError:
        return
    body = "".join(line.split("#", 1)[0] for line in text.splitlines())
    assert all(ch in "0123456789" or ch.isspace() for ch in body)
    assert cli.parse_code_file(cli.format_code_file(c)) == c


@PROPERTY
@given(codes_and_forms(), st.none() | st.text())
def test_format_roundtrip(case, comment):
    c, _ = case
    assert cli.parse_code_file(cli.format_code_file(c, comment)) == c


# ---------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------

def test_hull_table(capsys, fixtures_dir):
    rc, out, _ = run(capsys, "hull", str(fixtures_dir / "hamming74.code"))
    assert rc == 0
    assert "hull dimension: 3" in out
    assert "consistent: yes" in out


def test_field_info_from_flags(capsys):
    rc, out, _ = run(capsys, "field-info", "-p", "3", "-m", "2")
    assert rc == 0
    assert "GF(9)" in out and "x^2 + 1" in out


def test_field_info_needs_input(capsys):
    rc, _, err = run(capsys, "field-info")
    assert rc == 2 and "field-info needs" in err


def test_mindist(capsys, fixtures_dir):
    rc, out, _ = run(capsys, "mindist", str(fixtures_dir / "hamming74.code"))
    assert rc == 0 and "minimum distance: 3" in out


def test_eaqecc_base_json(capsys, fixtures_dir):
    rc, out, _ = run(capsys, "eaqecc-base", str(fixtures_dir / "hamming74.code"),
                     "--json")
    assert rc == 0
    env = json.loads(out)
    rec = env["result"]["primary"]
    assert (rec["n"], rec["k_logical"], rec["d_exact"], rec["c"], rec["q"]) == (7, 1, 3, 0, 2)
    assert env["result"]["hull_dimension"] == 3
    assert env["tool_version"]


def test_eaqecc_extend(capsys, fixtures_dir):
    rc, out, _ = run(capsys, "eaqecc-extend", str(fixtures_dir / "ext635.code"),
                     "--r", "2")
    assert rc == 0 and "hull preserved: yes" in out


def test_verify_all_fixtures_exit_zero(capsys, fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.code")):
        form = "hermitian" if path.name.startswith("herm") else "euclidean"
        rc, out, _ = run(capsys, "verify", str(path), "--form", form)
        assert rc == 0, (path.name, out)
        assert "all checks passed" in out


def test_verify_names_why_it_skipped(capsys, fixtures_dir, tmp_path):
    rand = str(fixtures_dir / "rand633.code")
    rc, out, _ = run(capsys, "verify", rand, "--budget", "1")
    assert rc == 0
    lines = out.splitlines()
    for name in ("hull-vs-enumeration", "min-distance-agreement",
                 "maximality-agreement"):
        assert f"skipped  {name} (needs 27 codewords, cap 1)" in lines
    assert lines[-1] == "verdict: no check failed, 3 of 8 skipped"
    rc, out, _ = run(capsys, "verify", rand, "--budget", "1", "--json")
    checks = json.loads(out)["result"]["checks"]
    assert rc == 0
    assert [c.get("reason") for c in checks if c["status"] == "skipped"] \
        == ["needs 27 codewords, cap 1"] * 3
    assert all("reason" not in c for c in checks if c["status"] != "skipped")
    # characteristic 2 without a maximal hull: no diagonalization to check
    full = tmp_path / "full22.code"
    full.write_text("2 1 2 2\n1 0\n0 1\n")
    rc, out, _ = run(capsys, "verify", str(full))
    assert rc == 0
    assert "skipped  diagonalization (hull not maximal)" in out.splitlines()
    assert out.splitlines()[-1] == "verdict: no check failed, 1 of 8 skipped"


@pytest.mark.parametrize("name", ["hamming74", "ext635", "rand633"])
def test_verify_walks_the_hull_once(capsys, monkeypatch, fixtures_dir, name):
    """hull-vs-enumeration is the one check that counts the hull words;
    maximality-agreement reads each word's hull flag off its own walk,
    so one verify calls the hull referee once."""
    calls = []
    walk = cli.oracle.hull_by_enumeration

    def counting(*args, **kwargs):
        calls.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(cli.oracle, "hull_by_enumeration", counting)
    rc, out, _ = run(capsys, "verify", str(fixtures_dir / f"{name}.code"))
    assert rc == 0 and "all checks passed" in out
    assert len(calls) == 1


def permuted_columns(m, perm):
    return MatrixFq.from_rows(m.spec, [[row[j] for j in perm] for row in m.row_list()])


@pytest.mark.parametrize("fault", ["diagonal", "other code"])
@pytest.mark.parametrize("route,name", [("pair_diagonal_generators", "pair-diagonal"),
                                        ("diagonalize_odd", "diagonalization")])
def test_verify_fails_a_broken_certificate(capsys, monkeypatch, fixtures_dir,
                                           fault, route, name):
    """A route that returns a wrong diagonal, or generators of another code
    with the same Gramian (the columns shifted cyclically), fails its
    check, and verify exits 3."""
    path = str(fixtures_dir / "ext635.code")
    shift = [1, 2, 3, 4, 5, 0]
    c = cli.parse_code_file(Path(path).read_text())
    assert not row_space_equal(permuted_columns(c.gen, shift), c.gen)

    def corrupt(gens, diagonal):
        if fault == "diagonal":
            return gens, (F5.mul(2, diagonal[0]),) + diagonal[1:]
        return [permuted_columns(g, shift) for g in gens], diagonal

    real = getattr(cli, route)
    if route == "pair_diagonal_generators":
        def broken(code, form):
            g1, g2, diagonal = real(code, form)
            (g1, g2), diagonal = corrupt([g1, g2], diagonal)
            return g1, g2, diagonal
    else:
        def broken(code, form):
            res = real(code, form)
            (g,), diagonal = corrupt([res.new_gen], res.diagonal)
            return dataclasses.replace(res, new_gen=g, diagonal=diagonal)
    monkeypatch.setattr(cli, route, broken)

    rc, out, _ = run(capsys, "verify", path)
    lines = out.splitlines()
    assert rc == 3
    assert [line for line in lines if "FAIL" in line] == [f"   FAIL  {name}",
                                                          "verdict: FAILURES above"]
    rc, out, _ = run(capsys, "verify", path, "--json")
    result = json.loads(out)["result"]
    assert rc == 3 and result["passed"] is False
    assert [c["name"] for c in result["checks"] if c["status"] == "fail"] == [name]


def test_diag_takes_no_budget(capsys, fixtures_dir):
    """Maximality is decided in closed form, so diag enumerates nothing."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["diag", str(fixtures_dir / "hamming74.code"), "--budget", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_diag_refusal_exit_1(capsys, tmp_path):
    bad = tmp_path / "full22.code"
    bad.write_text("2 1 2 2\n1 0\n0 1\n")
    rc, _, err = run(capsys, "diag", str(bad))
    assert rc == 1 and "refused" in err


def test_missing_file_exit_2(capsys):
    rc, _, err = run(capsys, "hull", "no/such/file.code")
    assert rc == 2 and "input error" in err


def test_hermitian_on_prime_field_exit_2(capsys, fixtures_dir):
    rc, _, err = run(capsys, "hull", str(fixtures_dir / "lcd527.code"),
                     "--form", "hermitian")
    assert rc == 2


def test_budget_flag_and_env(capsys, fixtures_dir):
    ham = str(fixtures_dir / "hamming74.code")
    rc, _, err = run(capsys, "mindist", ham, "--budget", "3")
    assert rc == 1 and "budget" in err.lower()
    rc, _, _ = run(capsys, "mindist", ham, "--budget", "1000000")
    assert rc == 0


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("command", [["mindist"], ["eaqecc-base"],
                                     ["eaqecc-extend", "--r", "1"], ["verify"]])
def test_budget_below_one_exit_2(capsys, fixtures_dir, command, budget):
    ext = str(fixtures_dir / "ext635.code")
    rc, out, err = run(capsys, command[0], ext, *command[1:], "--budget", budget)
    assert rc == 2 and out == ""
    assert f"bad enumeration budget {budget}" in err


def test_pair_mode(capsys, fixtures_dir):
    rc, out, _ = run(capsys, "diag", str(fixtures_dir / "selfdual21.code"),
                     "--pair", "--json")
    assert rc == 0
    env = json.loads(out)
    assert env["result"]["method"] == "pair-reduction"


# ---------------------------------------------------------------
# JSON encoding and determinism
# ---------------------------------------------------------------

def _admits_extension(spec, form) -> bool:
    """Whether the field has a length extension under form."""
    if form == "hermitian":
        return spec.p != 2 and spec.subfield_order >= 3
    return spec.p != 2 and spec.q >= 5


def _by_type_rule(value):
    """The JSON value of a result field, by the rule `to_json` states."""
    if isinstance(value, LinearCode):
        return {"n": value.n, "k": value.k, "gen": _by_type_rule(value.gen)}
    if isinstance(value, MatrixFq):
        return [list(r) for r in value.row_list()]
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, tuple):
        return [_by_type_rule(v) for v in value]
    assert value is None or type(value) in (int, str, bool), value
    return value


@pytest.mark.parametrize("spec,form", CORE_FIELD_FORMS,
                         ids=[f"GF({spec.q})-{form}" for spec, form in CORE_FIELD_FORMS])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), r=st.integers(0, 6), budget=st.sampled_from([1, 10 ** 4]))
def test_to_json_roundtrip(spec, form, data, r, budget):
    """to_json writes every field of each result, and nothing else, by
    its type, and the text `dumps` makes of it reads back as the same
    JSON: the hull report, the diagonalization of the field's route
    (where the characteristic-2 route succeeds), both base records and,
    where the field admits one, an extension certificate."""
    c = data.draw(codes(spec))
    rep = hull(c, form)
    results = [rep, *base_params(c, form, budget)]
    try:
        results.append(cli._diagonalize(c, form))
    except HullNotMaximalError:
        pass
    if _admits_extension(spec, form):
        extend = extend_hermitian if form == "hermitian" else extend_euclidean
        results.append(extend(c, min(r, c.k - rep.ell), budget)[0])
    for x in results:
        obj = cli.to_json(x)
        names = [f.name for f in dataclasses.fields(x)]
        assert sorted(obj) == sorted(names)
        expected = {name: _by_type_rule(getattr(x, name)) for name in names}
        assert obj == expected
        text = cli.dumps(obj)
        assert text == cli.dumps(expected)     # true and false, not 1 and 0
        assert json.loads(text) == obj


def test_to_json_of_a_code_is_only_its_generator():
    """The facts a code keeps once asked never reach its JSON."""
    c = random_code(F5, 6, 3, 1)
    hull(c)
    min_distance(c)
    assert c._facts
    assert sorted(cli.to_json(c)) == ["gen", "k", "n"]


def test_main_answers_alike_after_a_usage_error_and_a_refusal(capsys, fixtures_dir, tmp_path):
    """main builds its parser once; nothing of one call leaks into the next."""
    cli._parser.cache_clear()
    full = tmp_path / "full22.code"
    full.write_text("2 1 2 2\n1 0\n0 1\n")
    ham = str(fixtures_dir / "hamming74.code")
    calls = [["eaqecc-base", ham, "--json"],
             ["diag", ham, "--pair"],
             ["mindist", ham, "--budget", "3"],
             ["diag", str(full)]]
    first = [run(capsys, *argv) for argv in calls]
    assert [rc for rc, _, _ in first] == [0, 0, 1, 1]
    for bad in (["hull"], ["hull", ham, "--form", "nope"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert [run(capsys, *argv) for argv in calls] == first


def test_json_outputs_are_byte_identical(capsys, fixtures_dir):
    ham = str(fixtures_dir / "hamming74.code")
    _, first, _ = run(capsys, "verify", ham, "--json")
    _, second, _ = run(capsys, "verify", ham, "--json")
    assert first == second


def test_golden_outputs(capsys, fixtures_dir):
    """Every JSON golden reruns the command its envelope records, byte for
    byte, and every subcommand has one."""
    goldens = sorted((fixtures_dir / "golden").glob("*.json"))
    commands = [json.loads(path.read_text())["command"].split() for path in goldens]
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert {argv[0] for argv in commands} == set(subcommands)
    cwd = os.getcwd()
    os.chdir(fixtures_dir.parent)
    try:
        for path, argv in zip(goldens, commands):
            rc, out, _ = run(capsys, *argv)
            assert rc == 0, path.name
            assert out == path.read_text(), path.name
    finally:
        os.chdir(cwd)


def test_imports_only_the_standard_library():
    """The package, its CLI and the oracle import no module from outside
    the standard library.  Site hooks may load third-party modules at
    start-up, so only the modules the imports add are checked."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import hullforge, hullforge.cli, hullforge.oracle\n"
              "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
              "print(*sorted(added - set(sys.stdlib_module_names) - {'hullforge'}))\n")
    src = str(Path(hullforge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.split() == []


def test_code_file_not_utf8_exit_2(capsys, tmp_path):
    latin1 = tmp_path / "latin1.code"
    latin1.write_bytes("# caf\xe9\n2 1 2 1\n1 1\n".encode("latin-1"))
    rc, out, err = run(capsys, "hull", str(latin1))
    assert rc == 2 and out == ""
    assert "is not UTF-8" in err


def test_verify_over_budget_checks_the_hull_on_the_dual_side(capsys, tmp_path):
    """q^k over the budget: verify enumerates the dual when it fits, and
    a zero dual (k = n) needs no walk, since the hull is then zero."""
    F3 = make_field(3, 1)
    wide = tmp_path / "wide.code"
    wide.write_text(cli.format_code_file(random_code(F3, 12, 10, 1)))
    full = tmp_path / "full.code"
    full.write_text("3 1 5 5\n" + "".join(
        " ".join(str(int(i == j)) for j in range(5)) + "\n" for i in range(5)))
    for path, words in ((wide, 3 ** 10), (full, 3 ** 5)):
        rc, out, _ = run(capsys, "verify", str(path), "--budget", "100")
        lines = out.splitlines()
        assert rc == 0
        assert "   pass  hull-vs-enumeration" in lines
        for name in ("min-distance-agreement", "maximality-agreement"):
            assert f"skipped  {name} (needs {words} codewords, cap 100)" in lines
        assert lines[-1] == "verdict: no check failed, 2 of 8 skipped"


def test_extension_verification_failure_exit_3(capsys, monkeypatch, fixtures_dir):
    def failing(code, r, budget):
        raise cli.ExtensionVerificationError("hull dimension changed: 2 != 1")
    monkeypatch.setattr(cli, "extend_euclidean", failing)
    rc, out, err = run(capsys, "eaqecc-extend", str(fixtures_dir / "ext635.code"), "--r", "1")
    assert rc == 3 and out == ""
    assert err == "verification failure: hull dimension changed: 2 != 1\n"


def test_main_reads_sys_argv(capsys, monkeypatch, fixtures_dir):
    monkeypatch.setattr(sys, "argv", ["hullforge", "hull", str(fixtures_dir / "rep31.code")])
    rc = cli.main()
    assert rc == 0 and "hull dimension: 0" in capsys.readouterr().out


def test_to_json_passes_other_values_through():
    assert cli.to_json([1, 2]) == [1, 2] and cli.to_json(0.5) == 0.5
