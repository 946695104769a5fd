#!/usr/bin/env python3
"""Regenerate every committed fixture and golden file.

Run from the repository root:

    python3 scripts/make_goldens.py

Fixture codes are either hand-written classics or deterministic outputs
of hullforge.codes.random_code with the recorded seed, so this script
always reproduces the committed bytes.  Golden JSON files are literal
CLI outputs; golden hull files list every hull codeword found by the
brute-force enumerator.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hullforge import make_code, make_field, oracle, random_code  # noqa: E402
from hullforge.cli import format_code_file, main  # noqa: E402
from hullforge.matfq import MatrixFq  # noqa: E402

FIX = ROOT / "fixtures"
GOLD = FIX / "golden"


def build_fixture_codes():
    f2 = make_field(2, 1)
    f3 = make_field(3, 1)
    f4 = make_field(2, 2)
    f5 = make_field(5, 1)
    f7 = make_field(7, 1)
    f9 = make_field(3, 2)

    hamming = make_code(f2, MatrixFq.from_rows(f2, [
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1]]))

    return {
        "hamming74": (hamming, "[7,4,3]_2 Hamming code; hull = the [7,3,4] dual"),
        "rep31": (make_code(f2, MatrixFq.from_rows(f2, [[1, 1, 1]])),
                  "[3,1]_2 repetition code (complementary dual)"),
        "selfdual21": (make_code(f2, MatrixFq.from_rows(f2, [[1, 1]])),
                       "[2,1]_2 self-dual code {00, 11}"),
        "ext635": (random_code(f5, 6, 3, 0),
                   "random_code(GF(5), 6, 3, seed=0); hull dimension 1"),
        "lcd527": (random_code(f7, 5, 2, 0),
                   "random_code(GF(7), 5, 2, seed=0); complementary dual"),
        "rand633": (random_code(f3, 6, 3, 1),
                    "random_code(GF(3), 6, 3, seed=1)"),
        "herm42gf4": (random_code(f4, 4, 2, 4),
                      "random_code(GF(4), 4, 2, seed=4); hermitian hull "
                      "dimension 1, maximal in the code"),
        "herm539": (random_code(f9, 5, 3, 0),
                    "random_code(GF(9), 5, 3, seed=0); hermitian hull dimension 1"),
    }


def write_fixtures(codes):
    FIX.mkdir(exist_ok=True)
    for name, (code, note) in codes.items():
        path = FIX / f"{name}.code"
        path.write_text(format_code_file(
            code, f"{note}\nregenerate: python3 scripts/make_goldens.py"))
        print("wrote", path)


def write_hull_golden(name, code, form):
    members, ell = oracle.hull_by_enumeration(code, form)
    spec = code.spec
    lines = [f"# hull codewords of fixtures/{name}.code ({form} form)",
             "# produced by: hullforge.oracle.hull_by_enumeration via "
             "scripts/make_goldens.py",
             f"{spec.p} {spec.m} {code.n} {ell}"]
    for w in sorted(members):
        lines.append(" ".join(str(x) for x in w))
    path = GOLD / f"{name}.hull.{form}.golden"
    path.write_text("\n".join(lines) + "\n")
    print("wrote", path)


def write_cli_golden(name, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"golden command failed ({rc}): {argv}")
    path = GOLD / name
    path.write_text(buf.getvalue())
    print("wrote", path)


def main_script():
    GOLD.mkdir(parents=True, exist_ok=True)
    codes = build_fixture_codes()
    write_fixtures(codes)

    write_hull_golden("hamming74", codes["hamming74"][0], "euclidean")
    write_hull_golden("herm42gf4", codes["herm42gf4"][0], "hermitian")

    ham = "fixtures/hamming74.code"
    write_cli_golden("field-info.json", ["field-info", ham, "--json"])
    write_cli_golden("hull_hamming74.json", ["hull", ham, "--json"])
    write_cli_golden("hull_herm539_hermitian.json",
                     ["hull", "fixtures/herm539.code", "--form", "hermitian", "--json"])
    write_cli_golden("diag_ext635.json", ["diag", "fixtures/ext635.code", "--json"])
    write_cli_golden("diag_ext635_pair.json",
                     ["diag", "fixtures/ext635.code", "--pair", "--json"])
    write_cli_golden("diag_hamming74.json", ["diag", ham, "--json"])
    write_cli_golden("diag_herm42gf4_hermitian.json",
                     ["diag", "fixtures/herm42gf4.code", "--form", "hermitian", "--json"])
    write_cli_golden("mindist_hamming74.json", ["mindist", ham, "--json"])
    write_cli_golden("eaqecc-base_hamming74.json", ["eaqecc-base", ham, "--json"])
    write_cli_golden("eaqecc-extend_ext635.json",
                     ["eaqecc-extend", "fixtures/ext635.code", "--r", "2", "--json"])
    write_cli_golden("eaqecc-extend_herm539_hermitian.json",
                     ["eaqecc-extend", "fixtures/herm539.code", "--form", "hermitian",
                      "--r", "1", "--json"])
    write_cli_golden("verify_hamming74.json", ["verify", ham, "--json"])


if __name__ == "__main__":
    main_script()
