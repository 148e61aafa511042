import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from btpgeo import goldens
from btpgeo.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_n3(capsys):
    code, out, _ = run_cli(capsys, "classify", "--input", str(DATA / "n3.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["type_label"] == "middle"
    assert rep["balanced"] and rep["btp"] and rep["b_rank"] == 2
    assert rep["nilpotent_steps"] == 2
    assert rep["refs"]


def test_classify_abelian(capsys):
    code, out, _ = run_cli(capsys, "classify", "--input", str(DATA / "abelian.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["type_label"] == "chern_flat" and rep["balanced"]


def test_classify_broken_jacobi_names_form(capsys):
    code, _, err = run_cli(capsys, "classify", "--input", str(DATA / "broken_jacobi.json"))
    assert code == 2
    assert "d^2 phi" in err


def test_classify_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "C": [{"j": 1, "i": 2, "k": 1, "coef": "1"}],
                               "D": []}))
    code, _, err = run_cli(capsys, "classify", "--input", str(bad))
    assert code == 3
    assert "i < k" in err


@pytest.mark.parametrize("field, value", [
    ("coef", {"re": "1/0"}),
    ("coef", {"re": "abc"}),
    ("coef", "x/y"),
    ("coef", {"re": "1", "im": "2/0"}),
    ("coef", {"re": 1e400}),
    ("coef", {"re": 1.0, "im": float("nan")}),
    ("coef", 1e400),
    ("coef", {"re": True}),
    ("coef", [1]),
    ("j", 1.5),
    ("k", "3"),
    ("i", True),
])
def test_classify_malformed_entry_exits_3(tmp_path, capsys, field, value):
    entry = {"j": 1, "i": 3, "k": 1, "coef": {"re": "1", "im": "0"}, field: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "C": [], "D": [entry]}))
    code, out, err = run_cli(capsys, "classify", "--input", str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"n": 3, "C": 5, "D": []},
    {"n": 3, "C": [], "D": {"j": 1}},
    {"n": True, "C": [], "D": []},
    {"n": 3, "C": [[1, 2, 3]], "D": []},
])
def test_classify_malformed_document_exits_3(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "classify", "--input", str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_classify_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", "--input", "/nonexistent.json")
    assert code == 3


def test_verify_sl2c_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "sl2c")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and all(c["passed"] for c in rep["checks"])
    assert rep["refs"]


def test_verify_unknown_example(capsys):
    code, _, err = run_cli(capsys, "verify", "--example", "bogus")
    assert code == 3


def test_verify_wallach_reports_known_red_check(capsys):
    # thirteen green checks and the deliberately red Einstein-constant entry
    code, out, _ = run_cli(capsys, "verify", "--example", "wallach")
    assert code == 1
    rep = json.loads(out)
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["ricci.einstein_constant"]


def test_verify_wallach_seeded_sampling(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "wallach", "--seed", "3")
    assert code == 1
    rep = json.loads(out)
    failed = [c for c in rep["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["ricci.einstein_constant"]
    sampled = [c for c in rep["checks"] if c["name"] == "sectional.nonnegative_sample"]
    assert [c["passed"] for c in sampled] == [True]
    # the true minimum over the 2000 seed-3 planes, not a 0.0 starting value
    assert [c["detail"] for c in sampled] == ["min 3.852e-01"]


def test_verify_n3_with_torsion_flag(capsys):
    # the report echoes a; vaisman54 takes the flag the same way
    for example in ("n3", "vaisman54"):
        code, out, _ = run_cli(capsys, "verify", "--example", example, "--torsion-a", "1/2")
        assert code == 0
        assert json.loads(out)["torsion_a"] == "1/2"


def test_verify_seed_reaches_sl2c(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "sl2c", "--seed", "5")
    assert code == 0
    assert json.loads(out)["checks"] == [c.to_json() for c in goldens.sl2c_suite(5)]


@pytest.mark.parametrize("argv", [
    ("a_st", "--seed", "1"),
    ("n3", "--seed", "1"),
    ("b_zt", "--torsion-a", "2"),
    ("sl2c", "--torsion-a", "1/2"),
    ("wallach", "--torsion-a", "2"),
])
def test_verify_rejects_flags_the_example_ignores(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--example", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert argv[1] in err


def test_companion_n3(capsys):
    code, out, _ = run_cli(capsys, "companion", "--example", "n3", "--swap", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["bismut_equal"] is True
    assert rep["swapped"]["type_label"] == "non_balanced"
    assert rep["swapped"]["vaisman_pattern"] is True
    assert rep["swapped"]["eta"] == [{"coef": {"im": "0", "re": "2"},
                                     "phi": [3], "phibar": []}]


def test_companion_identity(capsys):
    code, out, _ = run_cli(capsys, "companion", "--example", "n3", "--swap", "")
    assert code == 0
    rep = json.loads(out)
    orig = {k: v for k, v in rep["original"].items() if k != "label"}
    swap = {k: v for k, v in rep["swapped"].items() if k != "label"}
    assert orig == swap
    assert rep["bismut_equal"] is True


def test_companion_rejects_distinguished_index(capsys):
    code, _, err = run_cli(capsys, "companion", "--example", "n3", "--swap", "3")
    assert code == 2


def test_companion_parameterized_family(capsys):
    code, out, _ = run_cli(capsys, "companion", "--example", "a_st(1,-1)", "--swap", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["swapped"]["vaisman_pattern"] is True


def test_companion_complex_parameter(capsys):
    code, out, _ = run_cli(capsys, "companion", "--example", "b_zt(1+1/2i,1/3)",
                           "--swap", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["original"]["solvable_steps"] == 3
    assert rep["bismut_equal"] is True


def test_sweep_small_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--grid=-1,0,1")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["rows"]) == 18
    assert rep["claims"]["cyt_everywhere_and_family_claims"]
    a_row = next(r for r in rep["rows"] if r["family"] == "a_st"
                 and r["params"] == ["1", "-1"])
    assert a_row["calabi_yau_type"] is True
    origin = next(r for r in rep["rows"] if r["family"] == "a_st"
                  and r["params"] == ["0", "0"])
    assert origin["nilpotent_steps"] == 2


def test_sweep_bad_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--grid=1,q")
    assert code == 3


def test_reports_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["classify", "--input", str(DATA / "n3.json"), "--out", str(out1)]) == 0
    assert main(["classify", "--input", str(DATA / "n3.json"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_wallach_report(capsys):
    code, out, _ = run_cli(capsys, "wallach")
    assert code == 0
    rep = json.loads(out)
    assert rep["scalar_kind"] == "exact"
    # torsion: T^2_{13} = 1 serialized with exact string rationals
    assert rep["torsion"][1][0][2] == {"re": "1", "im": "0"}
    assert rep["riemannian_11"][0][0][1][1] == {"re": "3/4", "im": "0"}


def test_wallach_float_with_sampling(capsys):
    code, out, _ = run_cli(capsys, "wallach", "--float", "--seed", "7",
                           "--samples", "200")
    assert code == 0
    rep = json.loads(out)
    assert rep["scalar_kind"] == "float"
    samp = rep["sampling"]
    assert samp["min_sectional_numerator"] >= -1e-12
    lo, hi = samp["ricci_range"]
    assert abs(hi - lo) < 1e-9
    # recorded from the per-plane sampling loop that the stacked one replaced
    assert abs(samp["min_sectional_numerator"] - 0.5931961644224222) < 1e-12
    assert abs(lo - 2.499999999999999) < 1e-12 and abs(hi - 2.500000000000001) < 1e-12


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_wallach_rejects_nonpositive_samples(capsys, samples):
    code, out, err = run_cli(capsys, "wallach", "--float", "--seed", "1",
                             "--samples", samples)
    assert code == 3
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("argv", [
    ("wallach", "--float", "--seed", "-1"),
    ("wallach", "--seed", "-3", "--samples", "10"),
    ("verify", "--example", "wallach", "--seed", "-2"),
    ("verify", "--example", "sl2c", "--seed", "-1"),
])
def test_negative_seed_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--seed" in err


# sha256 of the stdout of exact reports, recorded before the float sampling
# path was batched (wallach) and before ExactComplex became an integer triple
# (the rest); exact reports are promised to be byte-stable
EXACT_REPORT_SHA256 = {
    ("wallach",): "3a646c1f6e46ec196a1f46a29bbb1a956f88376ec8ea11d1d42946e5ca717cab",
    ("verify", "--example", "wallach"):
        "fe3ed450f05cfa08add284834678135d5ecb7f0f69e3e3b36290596ed9c60861",
    ("classify", "--input", str(DATA / "n3.json")):
        "e5ab18b0b6785fb5051f009f23ca5c8374ee73c9dcc399dc309369feae4cacc0",
    ("classify", "--input", str(DATA / "sl2c.json")):
        "64b954740d92784a3ca10bee793aa4bc66539e5976a77de92909a39d700a8831",
    ("verify", "--example", "n3"):
        "64c4e698b65c960294b3392f5be32c34b5111b22c81f856b74bd31edcd07e066",
    ("verify", "--example", "vaisman54"):
        "6aa366f25a167848857d3fae07e09381f89d1e3205da7ff279d51c7f6569a13e",
    ("verify", "--example", "a_st"):
        "ba2abad65bcd8c4a69fd0652e7cddba7a71bdcf15c7f69b98748dd595dd54611",
    ("verify", "--example", "b_zt"):
        "aa31dab8d73adbf6914915c1da4a1fb31a92f930aa6d82571c357aab8ecfd2a5",
    ("verify", "--example", "sl2c"):
        "6bd91ee068f2638e7553f0a4896a0b123e24c9dedca26c00b57a6a7275b87a13",
    # the a = 1 report plus a "torsion_a" field that echoes a
    ("verify", "--example", "n3", "--torsion-a", "38029750/1000001"):
        "9e68ec78f1c04f5a479afdbc7d1c3addb1f186cac6de0c7b4640a40f3f8707d2",
    ("companion", "--example", "n3", "--swap", "2"):
        "5524add6773a13afe59c1a512f60cb7c8e39c67d5a6240d0e0b9098fe98dbde6",
    # the = form: argparse reads "--grid -1,..." as a missing argument
    ("sweep", "--grid=-1,0,1/2"):
        "8613221ac0b0ef27320f5b4926e9957d5e016fd8924a320a56474234ec0a5b2d",
    # the exact suite with a float sampled minimum, recorded before the exact
    # sectional and Ricci curvature moved onto the shared contractions
    ("verify", "--example", "wallach", "--seed", "3"):
        "5787f9dd15281a1a3d30bb07175ae3e26b9c0facee71906f8e67d86d13f51563",
}


@pytest.mark.parametrize("argv", sorted(EXACT_REPORT_SHA256))
def test_exact_reports_are_byte_identical(capsys, argv):
    _, out, _ = run_cli(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_REPORT_SHA256[argv]


# the module run from the source tree, as the in-process tests import it
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SOURCE_ENV = dict(os.environ, PYTHONPATH=str(SRC))


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "classify"],
                          capture_output=True, env=SOURCE_ENV)
    assert proc.returncode == 3


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "verify",
                           "--example", "n3"], capture_output=True, env=SOURCE_ENV)
    assert proc.returncode == 0
