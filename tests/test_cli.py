import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import _oracles
from btpgeo import cli, goldens, lie
from btpgeo.cli import main
from btpgeo.scalars import EC, JsonTable, table_to_json

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
    {"n": 0, "C": [], "D": []},
    {"n": 17, "C": [], "D": []},
    {"n": 10 ** 6},
    {"n": 3, "C": [[1, 2, 3]], "D": []},
    {"n": 3, "label": None},
    {"n": 3, "label": {"x": 1}},
    {"n": 3, "label": 5},
    {"n": 3, "label": ["n3"]},
])
def test_classify_malformed_document_exits_3(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "classify", "--input", str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc, label", [({"n": 3}, ""), ({"n": 3, "label": ""}, ""),
                                        ({"n": 3, "label": "n3~x"}, "n3~x")])
def test_classify_reports_a_string_label_and_a_missing_one_as_empty(tmp_path, capsys, doc,
                                                                    label):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "classify", "--input", str(path))
    assert code == 0 and json.loads(out)["label"] == label


def test_classify_accepts_the_largest_n(tmp_path, capsys):
    doc = tmp_path / "abelian16.json"
    doc.write_text(json.dumps({"n": lie.MAX_JSON_N, "C": [], "D": []}))
    code, out, _ = run_cli(capsys, "classify", "--input", str(doc))
    assert code == 0 and json.loads(out)["n"] == 16


def test_classify_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", "--input", "/nonexistent.json")
    assert code == 3


@pytest.mark.parametrize("command", [["classify", "--input", str(DATA / "n3.json")],
                                     ["verify", "--example", "n3"]])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_out_exits_3(tmp_path, capsys, command, target):
    out_path = tmp_path / "no_such_dir" / "x.json" if target == "missing" else tmp_path
    code, out, err = run_cli(capsys, *command, "--out", str(out_path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}") and err.count("\n") == 1


@pytest.mark.parametrize("entries, code, message", [
    # two finite coefficients summed past the float range
    ([{"j": 1, "i": 1, "k": 1, "coef": 1e308}] * 2, 3, "not a finite number"),
    # finite constants whose B = sum T conj(T) overflows
    ([{"j": 1, "i": 3, "k": 1, "coef": 1e200}, {"j": 2, "i": 3, "k": 2, "coef": -1e200}],
     2, "float overflow in classify"),
    # an exact constant past the float range, in data that another float
    # constant makes float (found by test_json_fuzz_exits_cleanly)
    ([{"j": 1, "i": 3, "k": 1, "coef": 1.0},
      {"j": 2, "i": 3, "k": 2, "coef": {"re": "1" + "0" * 400, "im": "0"}}],
     3, "beyond the float range"),
    # a constant with finite parts whose modulus is past the float range (found
    # the same way)
    ([{"j": 1, "i": 3, "k": 1, "coef": {"re": 1.7e308, "im": 1.7e308}}],
     2, "float overflow in classify"),
])
def test_float_overflow_is_an_error_not_a_traceback(tmp_path, entries, code, message):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"n": 3, "C": [], "D": entries}))
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "classify", "--input", str(bad)],
                          capture_output=True, text=True, env=SOURCE_ENV)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert proc.stderr.count("\n") == 1       # no traceback and no numpy warning


def test_float_classify_of_a_skewed_real_form_returns(tmp_path):
    # a real form of sl(2, C) with one constant 1e12: the float ranks of its
    # lower central series cycle 2, 4, 2, 4, ..., which kept the series
    # running; the exact copy of the same constants gives null for both
    entries = [{"j": 1, "i": 2, "k": 3, "coef": 1.0}, {"j": 2, "i": 1, "k": 3, "coef": 1e12},
               {"j": 3, "i": 1, "k": 2, "coef": -1.0}]
    steps = {}
    for name, coefs in (("float", [e["coef"] for e in entries]),
                        ("exact", [{"re": "1", "im": "0"}, {"re": str(10 ** 12), "im": "0"},
                                   {"re": "-1", "im": "0"}])):
        doc = tmp_path / f"{name}.json"
        doc.write_text(json.dumps({"n": 3, "D": [], "C": [dict(e, coef=c) for e, c
                                                          in zip(entries, coefs)]}))
        proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "classify", "--input",
                               str(doc)], capture_output=True, text=True, env=SOURCE_ENV,
                              timeout=10)
        assert proc.returncode == 0 and proc.stderr == ""
        rep = json.loads(proc.stdout)
        steps[name] = rep["nilpotent_steps"], rep["solvable_steps"]
    assert steps["exact"] == (None, None)
    assert steps["float"][0] is None


def _scaled_float_doc(g, s):
    """The algebra's JSON with every coefficient a float, times s."""
    doc = g.to_json()
    for e in doc["C"] + doc["D"]:
        e["coef"] = {part: float(Fraction(v)) * s for part, v in e["coef"].items()}
    return doc


@pytest.mark.parametrize("algebra, scale, message", [
    # integrable, but the d^2 residual overflows to inf/nan
    (lie.family_a(Fraction(1, 2), Fraction(1, 3)), 1e155, "float overflow in classify"),
    (lie.family_b(EC(1, 1), 2), 1e155, "float overflow in classify"),
    # really not integrable, in float data: the message names the d^2 phi_i
    (None, 1.0, "not integrable: d^2 phi_3 nonzero"),
])
def test_overflowing_d_squared_is_not_reported_as_non_integrable(tmp_path, algebra, scale,
                                                                   message):
    doc = json.loads((DATA / "broken_jacobi.json").read_text())
    if algebra is not None:
        doc = _scaled_float_doc(algebra, scale)
    else:
        for e in doc["C"] + doc["D"]:
            e["coef"] = float(Fraction(e["coef"]["re"]))
    bad = tmp_path / "scaled.json"
    bad.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "classify", "--input", str(bad)],
                          capture_output=True, text=True, env=SOURCE_ENV)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert proc.stderr.count("\n") == 1


def _vaisman_with(coef):
    doc = json.loads((DATA / "vaisman54_micro.json").read_text())
    for e in doc["D"]:
        e["coef"]["re"] = coef
    return doc


def _with_input(tmp_path, argv, doc):
    """argv, plus --input of doc written to a file when doc is given."""
    if doc is None:
        return argv
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    return argv + ("--input", str(path))


@pytest.mark.parametrize("argv, doc", [
    (("verify", "--example", "n3", "--torsion-a", "1e-5000"), None),
    (("companion", "--example", f"b_zt({'1' * 5000},1)", "--swap", "1"), None),
    (("sweep", "--grid", "0", "--torsion-a", "1e-99999999"), None),
    (("classify",), _vaisman_with("1e-5000")),
    (("classify",), _vaisman_with("1e-1000000")),
    (("classify",), _vaisman_with("1e-99999999")),
    (("classify",), _vaisman_with("1/" + "3" * 5000)),
], ids=["verify", "companion", "sweep", "json-5000", "json-1000000", "json-99999999",
        "json-denominator"])
def test_exact_literals_too_long_to_print_exit_3(tmp_path, capsys, argv, doc):
    argv = _with_input(tmp_path, argv, doc)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "too long" in err and err.count("\n") == 1


def test_json_integer_past_the_digit_bound_exits_3(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_vaisman_with("1")).replace('"1"', "1" * 5000, 1))
    code, out, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


def test_json_nested_past_the_recursion_bound_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, doc", [
    # a has 2500 digits, so the a^2 of the Bismut Ricci form has 5000
    (("classify",), _vaisman_with("1" * 2500)),
    (("companion", "--example", "n3", "--torsion-a", "1" * 2500, "--swap", "2"), None),
])
def test_exact_result_too_long_to_write_exits_2(tmp_path, capsys, argv, doc):
    code, out, err = run_cli(capsys, *_with_input(tmp_path, argv, doc))
    assert code == 2
    assert out == ""
    assert err == "error: exact result too long to write: more than 4300 digits\n"


def test_wallach_table_checks_name_the_last_differing_entry(monkeypatch, capsys):
    wrong = {(0, 0, 0, 0), (2, 1, 1, 2)}
    for name in ("expected_wallach_rc", "expected_wallach_r11"):
        right = getattr(goldens, name)
        monkeypatch.setattr(goldens, name,
                            lambda *ix, right=right: 7 if ix in wrong else right(*ix))
    code, out, _ = run_cli(capsys, "verify", "--example", "wallach")
    assert code == 1
    failed = {c["name"]: c["detail"] for c in json.loads(out)["checks"] if not c["passed"]}
    assert failed == {
        "chern.curvature_table": "Rc[3][2][2][3] = EC(1), want 7",
        "riemann.table": "R[3][2][2][3] = EC(1/2), want 7",
        "ricci.einstein_constant": "computed 5/2; the verified curvature table forces 5/2"}


def test_verify_sl2c_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "sl2c")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and all(c["passed"] for c in rep["checks"])
    assert rep["refs"]


def test_verify_sl2c_fails_when_its_derived_series_stops(monkeypatch, capsys):
    # sl(2, C) is simple; a derived series reported to stop after two steps
    # fails the shipped suite, not only the tests
    monkeypatch.setattr(lie, "solvability_profile", lambda g: (None, 2))
    code, out, _ = run_cli(capsys, "verify", "--example", "sl2c")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["solvability"]


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


def test_check_result_json_is_its_four_fields():
    # the plain dict of the fields, key order included
    results = [goldens.CheckResult("a.b", "ref", True),
               goldens.CheckResult("c", "other ref", False, "max deviation 1.00e+00"),
               *goldens.vaisman54_suite(Fraction(1, 3)), *goldens.wallach_suite(3)]
    assert {r.passed for r in results} == {True, False}
    for r in results:
        assert r.to_json() == r._asdict()
        assert list(r.to_json()) == ["name", "ref", "passed", "detail"]


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


@pytest.mark.parametrize("example", ["a_st(1,,2)", "a_st(,1,2)", "a_st(1,2,)", "b_zt(1,,2)",
                                     "b_zt(1, ,2)"])
def test_companion_empty_example_parameter_exits_3(capsys, example):
    # an empty parameter is an error, as in --swap, not a dropped one
    code, out, err = run_cli(capsys, "companion", "--example", example, "--swap", "2")
    assert code == 3
    assert out == ""
    assert err == f"error: empty parameter in example {example!r}\n"


@pytest.mark.parametrize("text, value", [
    ("2i", EC(0, 2)), ("-3/4i", EC(0, Fraction(-3, 4))), ("i", EC(0, 1)),
    ("-i", EC(0, -1)), ("+i", EC(0, 1)), ("1-i", EC(1, -1)),
    ("1+1/2i", EC(1, Fraction(1, 2))), ("1/2+i", EC(Fraction(1, 2), 1)), ("2", EC(2)),
])
def test_complex_literals(text, value):
    assert cli._parse_complex(text) == value


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


def test_sweep_origin_compares_c_as_well_as_d(capsys, monkeypatch):
    # an n3 with an extra C^3_{12}: the same D as the family at the origin
    n3 = lie.nilmanifold_n3

    def n3_with_c(a=1):
        g = n3(a)
        C = [[[EC(0)] * 3 for _ in range(3)] for _ in range(3)]
        C[2][0][1], C[2][1][0] = EC(1), EC(-1)
        return _oracles.from_cubes(3, C, _oracles.cube(g, g.D), label="n3+C")
    monkeypatch.setattr(lie, "nilmanifold_n3", n3_with_c)
    code, out, _ = run_cli(capsys, "sweep", "--grid=0,1")
    claims = json.loads(out)["claims"]
    assert claims == {"cyt_everywhere_and_family_claims": True,
                      "overlap_first_param_zero": True, "origin_is_nilmanifold": False}
    assert code == 1


def test_sweep_bad_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--grid=1,q")
    assert code == 3


@pytest.mark.parametrize("grid", ["", "1,,2"])
def test_sweep_empty_grid_entry_is_rejected(capsys, grid):
    # an empty --grid is a parse error, not the default grid
    code, out, err = run_cli(capsys, "sweep", "--grid", grid)
    assert code == 3
    assert out == ""
    assert err == "error: cannot parse rational ''\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--grid=0", "--torsion-a", ""),
    ("companion", "--example", "n3", "--swap", "2", "--torsion-a", ""),
])
def test_empty_torsion_a_is_rejected(capsys, argv):
    # an empty --torsion-a is a parse error, as in verify, not a = 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("sweep", "--grid=--"),
    ("verify", "--example", "n3", "--torsion-a=--"),
    ("classify", "--input=--"),
    ("companion", "--example=--"),
    ("wallach", "--seed=--"),
])
def test_option_given_only_a_double_dash_exits_3(capsys, argv):
    # argparse stores '--opt=--' as an empty list, which no command reads
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    option = argv[-1].split("=")[0]
    assert err == f"error: {option} needs a value\n"


def test_reports_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["classify", "--input", str(DATA / "n3.json"), "--out", str(out1)]) == 0
    assert main(["classify", "--input", str(DATA / "n3.json"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---- the report writer ----------------------------------------------------------

def _dumps_as_json(value):
    """cli._dumps(value) against json.dumps: both text, or both the same error."""
    try:
        expected = json.dumps(value, indent=2, sort_keys=True)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            cli._dumps(value)
        assert str(raised.value) == str(exc)
        return
    assert cli._dumps(value) == expected


# characters that json escapes, brackets, and the ranges around ASCII
_HARD_CHARS = st.sampled_from('"\\/[]{}:,\x00\x08\x1f\x7f\x80\xe9\u2028\ud800\U0001f600')
_TEXT = st.text(st.one_of(st.characters(), _HARD_CHARS), max_size=8)
_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308,
                                                   1e308, float("nan"), float("inf"),
                                                   -float("inf")]))
_JSON_LEAVES = st.one_of(
    _TEXT, st.booleans(), st.none(), st.integers(),
    st.integers(2 ** 64, 2 ** 200), st.integers(-2 ** 200, -2 ** 64),
    _FLOATS)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_the_report_writer_is_json_dumps(value):
    _dumps_as_json(value)


@pytest.mark.parametrize("value", [
    {1: "a", -2: "b"}, {1.5: 0, -0.0: 1, float("nan"): 2, float("inf"): 3},
    {True: 1, False: 2}, {None: []}, {"k": {2 ** 70: ()}}, {(1, 2): 3}, {1: 0, "a": 1},
    {"k": JsonTable((1,), ({1: 0.5},))}, {"k": JsonTable((2,), ({"re": 0.5}, {2: 0.5}))},
])
def test_a_non_str_key_raises_type_error(value):
    # json.dumps writes these keys as text; no report holds one
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_a_float_subclass_leaf_raises_type_error():
    # json.dumps writes an np.float64 as a float; no report holds one
    for value in (np.float64(0.5), [np.float64(0.5)], {"k": np.float64(0.5)},
                  JsonTable((2,), (0.5, np.float64(0.5))),
                  JsonTable((1,), ({"im": 0.5, "re": np.float64(0.5)},)),
                  JsonTable((2,), (0.5, {"im": 0.5, "re": np.float64(0.5)}))):
        with pytest.raises(TypeError, match="float64 is not JSON serializable"):
            cli._dumps(value)


# tables as point_report makes them: real float tables (float leaves, NaN
# and infinities too), complex ones ({re, im} leaves, alone or among
# floats) and exact ones ({re, im} leaves of rational text)
_TABLE_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("nan"),
                                                         float("inf"), -float("inf")]))
_NONZERO_FLOATS = _TABLE_FLOATS.filter(bool)


@st.composite
def _tables(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)))
    size = int(np.prod(shape))
    form = draw(st.sampled_from(["real", "complex", "mixed", "exact"]))
    if form == "exact":
        parts = st.fractions(max_denominator=10 ** 6)
        a = np.empty(size, object)
        a[:] = draw(st.lists(st.builds(EC, parts, parts), min_size=size, max_size=size))
        return a.reshape(shape)
    floats = st.lists(_TABLE_FLOATS, min_size=size, max_size=size)
    imag = {"real": st.lists(st.sampled_from([0.0, -0.0]), min_size=size, max_size=size),
            "complex": st.lists(_NONZERO_FLOATS, min_size=size, max_size=size),
            "mixed": floats}[form]
    a = np.empty(size, complex)
    a.real, a.imag = draw(floats), draw(imag)
    return a.reshape(shape)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tables(), st.integers(0, 3), st.booleans())
def test_a_table_is_written_as_json_dumps_of_its_nested_lists(a, depth, in_dict):
    value = table_to_json(a)
    for level in range(depth):
        value = {"%k": value, "a": [level]} if in_dict else [value, level]
    assert cli._dumps(value) == json.dumps(_oracles.expanded(value), indent=2, sort_keys=True)


@pytest.mark.parametrize("table", [
    JsonTable((2,), ({"%s": 1.0, "a%%": "x"}, {"%s": -0.0, "a%%": "y"})),   # a % in a key
    JsonTable((2, 1), ({}, {})),
    JsonTable((2,), ({"re": 1.0}, {"im": 1.0})),                           # keys that differ
    JsonTable((2,), ({"re": 1.0, "im": 2.0}, {"re": 1.0})),
    JsonTable((2,), ({"re": 1.0}, {"re": 1.0, "im": 2.0})),
    JsonTable((3,), (1, True, None)), JsonTable((2,), ("a\u2028", float("nan"))),
    JsonTable((), (2.5,)), JsonTable((0, 3), ()), JsonTable((3, 0), ()),
])
def test_a_hand_made_table_is_written_as_json_dumps(table):
    for value in (table, {"k": [table]}):
        assert cli._dumps(value) == json.dumps(_oracles.expanded(value), indent=2,
                                               sort_keys=True)


def test_json_dumps_of_a_bare_table_raises_type_error():
    t = table_to_json(np.ones((3, 3), complex))
    for value in (t, [t], {"k": t}):
        with pytest.raises(TypeError, match="JsonTable is not JSON serializable"):
            json.dumps(value)


# every command's report, exact and float, seeded and swapped
WRITER_TRAFFIC = (
    [("classify", "--input", str(p)) for p in sorted(DATA.glob("*.json"))]
    + [("verify", "--example", ex, *seed) for ex in sorted(goldens.SUITES)
       for seed in ((), ("--seed", "3"))]
    + [("wallach",), ("wallach", "--float"),
       ("wallach", "--float", "--seed", "1", "--samples", "50"), ("sweep", "--grid=-1,0,1/2"),
       ("companion", "--example", "n3", "--swap", "2"),
       ("companion", "--example", "b_zt(1+1/2i,1/3)", "--swap", "1")])

_WRITER_LEAVES = {str, int, float, bool, type(None)}


def _holds_writer_types(value) -> bool:
    """Whether value is made of dicts with str keys, lists, tuples, leaves
    of exactly the types in _WRITER_LEAVES and JsonTables, each with a tuple
    of as many leaves as its shape holds, every leaf a float or a dict of
    "re" and "im" parts of one type in _WRITER_LEAVES."""
    kind = type(value)
    if kind is dict:
        return all(type(k) is str and _holds_writer_types(v) for k, v in value.items())
    if kind is list or kind is tuple:
        return all(map(_holds_writer_types, value))
    if kind is JsonTable:
        shape, flat = value.shape, value.flat
        return (type(shape) is tuple and all(type(n) is int for n in shape)
                and type(flat) is tuple and len(flat) == int(np.prod(shape))
                and all(type(x) is float or type(x) is dict and sorted(x) == ["im", "re"]
                        and type(x["re"]) is type(x["im"]) in _WRITER_LEAVES for x in flat))
    return kind in _WRITER_LEAVES


def test_every_report_holds_only_the_types_the_writer_takes(monkeypatch, capsys):
    # the writer refuses float subclasses and non-str keys, which json.dumps
    # would write; this keeps that safe as report fields are added
    payloads = []
    dumps = cli._dumps

    def kept(payload):
        payloads.append(payload)
        return dumps(payload)
    monkeypatch.setattr(cli, "_dumps", kept)
    written = []
    for argv in WRITER_TRAFFIC:
        if main(list(argv)) in (0, 1):
            written.append(argv)
    capsys.readouterr()
    assert len(payloads) == len(written) == 23
    for argv, payload in zip(written, payloads):
        assert _holds_writer_types(payload), argv
    # each of the three wallach reports holds its seven tables
    assert sum(type(v) is JsonTable for p in payloads for v in p.values()) == 7 * 3


@pytest.mark.parametrize("leaf", [object(), {1, 2}, b"bytes", 1j, Fraction(1, 2), EC(1),
                                  np.int64(1), np.bool_(True), np.array([1.0])])
def test_a_non_json_leaf_raises_type_error(leaf):
    for value in (leaf, [leaf], {"k": [1, leaf]}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._dumps(value)
        _dumps_as_json(value)


def test_the_float_report_is_laid_out_as_json_dumps(capsys):
    # float reports have no sha256 pin: the bytes of every float are checked here
    code, out, _ = run_cli(capsys, "wallach", "--float", "--seed", "1", "--samples", "50")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


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
    ("wallach",): "a66fa3fddda9332d973706f7ef310830a00b44d339f6d74c3eafa93fb6c36dd8",
    # with the green check ricci.from_table (fe3ed450... before it)
    ("verify", "--example", "wallach"):
        "186e40bfd911557436242c695451a309d4d45a6401d1b621e44558039b922cbf",
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
    # with the check that sl(2, C) is simple (6bd91ee0... before it)
    ("verify", "--example", "sl2c"):
        "63376ec1b66c058001497765b55b393ffa2ad1fc560b4fc4db98ba18896e10a4",
    # the a = 1 report plus a "torsion_a" field that echoes a
    ("verify", "--example", "n3", "--torsion-a", "38029750/1000001"):
        "9e68ec78f1c04f5a479afdbc7d1c3addb1f186cac6de0c7b4640a40f3f8707d2",
    ("companion", "--example", "n3", "--swap", "2"):
        "5524add6773a13afe59c1a512f60cb7c8e39c67d5a6240d0e0b9098fe98dbde6",
    # recorded before conjugate_swap built its C and D through frames.dense
    ("companion", "--example", "b_zt(1+1/2i,1/3)", "--swap", "1"):
        "f687871b685b203bb1402701c28a167983359678186623d277903294126c6825",
    ("companion", "--example", "vaisman54", "--swap", "1,2"):
        "ad815ae7d8af6667456f60a3a7adc4110627cb7395a10ac55df6afd713e93840",
    # the = form: argparse reads "--grid -1,..." as a missing argument
    ("sweep", "--grid=-1,0,1/2"):
        "8613221ac0b0ef27320f5b4926e9957d5e016fd8924a320a56474234ec0a5b2d",
    # the exact suite with a float sampled minimum, recorded before the exact
    # sectional and Ricci curvature moved onto the shared contractions, and
    # again with the green check ricci.from_table (5787f9dd... before it)
    ("verify", "--example", "wallach", "--seed", "3"):
        "191c01f00edbe2b1602283937403af74f3efd6477fe831cbb14d8dc882c9e97e",
    # recorded before the solvability series, the Bismut Ricci form and the
    # parallel-torsion residuals were computed from their least parts:
    # vaisman54 at a = 10^-6 (a nonzero Bismut Ricci form), a_st(1/2, 1/3)
    # and b_zt(1/2 + 1/3 i, 2) (solvable, not nilpotent)
    ("classify", "--input", str(DATA / "vaisman54_micro.json")):
        "0e91f8dd7d463fc84a9e220fa9c0086fb310ed15aeebc596c205e6d103cd16f7",
    ("classify", "--input", str(DATA / "a_st.json")):
        "91a41a2430e7c9543950389a108a0b7c58576a293b1f6deb0d5b801ea5dc7556",
    ("classify", "--input", str(DATA / "b_zt.json")):
        "cdb01b05ed1a2495afd229d128673a9cd4c7c4a5dd9e4a0035d5fa2011d29e16",
}


@pytest.mark.parametrize("argv", sorted(EXACT_REPORT_SHA256))
def test_exact_reports_are_byte_identical(capsys, argv):
    _, out, _ = run_cli(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_REPORT_SHA256[argv]


# classify of an a_st and a b_zt input with parameters of height up to 10^6,
# at torsion scales 10^-6 and 10^6: solvable, not nilpotent, so both series
# run their full length; pinned from the reports of the dense series
LONG_SERIES_REPORT_SHA256 = {
    "a_st_heavy.json": "a1f8721e364f50747cd5191b2dd30ffc8f08fdd5fb52e8165429dfc049cd6b77",
    "b_zt_heavy.json": "e501002249979df4c0516960292546e4ff77ddc382b5d1ba4e9a177b32ee769a",
}


@pytest.mark.parametrize("name", sorted(LONG_SERIES_REPORT_SHA256))
def test_long_series_reports_are_byte_identical(capsys, name):
    _, out, _ = run_cli(capsys, "classify", "--input", str(DATA / name))
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_SERIES_REPORT_SHA256[name]


# the module run from the source tree, as the in-process tests import it
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SOURCE_ENV = dict(os.environ, PYTHONPATH=str(SRC))


# each command's option lines of `btpgeo <command> --help`, as (invocation,
# help) pairs, and the arguments it parses with only its required options,
# pinned from the subparser tree the command table replaced
COMMAND_OPTIONS = {
    "classify": ([("-h, --help", "show this help message and exit"), ("--input INPUT",),
                  ("--out OUT",)],
                 ["--input", "x"], {"input": "x", "out": None}),
    "verify": ([("-h, --help", "show this help message and exit"), ("--example EXAMPLE",),
                ("--seed SEED",), ("--torsion-a TORSION_A",), ("--out OUT",)],
               ["--example", "n3"],
               {"example": "n3", "seed": None, "torsion_a": None, "out": None}),
    "wallach": ([("-h, --help", "show this help message and exit"), ("--float",),
                 ("--seed SEED",), ("--samples SAMPLES",), ("--out OUT",)],
                [], {"float_mode": False, "seed": None, "samples": 10000, "out": None}),
    "sweep": ([("-h, --help", "show this help message and exit"),
               ("--grid GRID", "comma-separated rationals"), ("--torsion-a TORSION_A",),
               ("--out OUT",)],
              [], {"grid": None, "torsion_a": None, "out": None}),
    "companion": ([("-h, --help", "show this help message and exit"), ("--example EXAMPLE",),
                   ("--swap SWAP", "comma-separated 1-based indices"),
                   ("--torsion-a TORSION_A",), ("--out OUT",)],
                  ["--example", "n3"],
                  {"example": "n3", "swap": "", "torsion_a": None, "out": None}),
}


def _help(capsys, monkeypatch, *argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_command_help_lists_its_options(capsys, monkeypatch, command):
    out = _help(capsys, monkeypatch, command, "--help")
    assert out.startswith(f"usage: btpgeo {command} [-h]")
    lines = out[out.index("options:\n"):].splitlines()[1:]
    assert [tuple(re.split(r"\s{2,}", line.strip())) for line in lines] == \
        COMMAND_OPTIONS[command][0]


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_command_options_keep_their_dests_and_defaults(command):
    _, required, parsed = COMMAND_OPTIONS[command]
    top = cli.build_parser().parse_args([command, *required])
    assert top.command == command and top.args == required
    assert vars(cli._command_parser(command).parse_args(required)) == parsed


def test_double_dash_after_the_command_is_dropped(capsys):
    # the top-level parser drops a '--' right after the command; argv that
    # starts with a command is otherwise handed to that command's parser alone
    argv = ["--input", str(DATA / "n3.json")]
    plain = run_cli(capsys, "classify", *argv)
    assert plain[0] == 0
    assert run_cli(capsys, "classify", "--", *argv) == plain


def test_top_level_help_names_every_command(capsys, monkeypatch):
    out = _help(capsys, monkeypatch, "--help")
    for name, command in cli.COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(command.help)}$", out, re.M), name
    assert list(cli.COMMANDS) == list(COMMAND_OPTIONS)


def _main_outcome(argv, columns):
    """Exit code, stdout and stderr of main(argv) with COLUMNS set."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS=columns):
        try:
            code = main(list(argv))
        except SystemExit as exc:       # help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in COMMAND_OPTIONS),
                                  ["frobnicate"], ["verify", "--example", "n3", "--bogus"]],
                         ids=" ".join)
def test_help_and_usage_do_not_follow_the_terminal_width(argv):
    outcomes = {columns: _main_outcome(argv, columns) for columns in ("30", "80", "200")}
    assert outcomes["30"] == outcomes["80"] == outcomes["200"], argv
    assert outcomes["80"][0] in (0, 3)
    # COLUMNS reaches argparse: its own layout follows it
    with mock.patch.dict(os.environ, COLUMNS="30"):
        narrow = _oracles.build_parser().format_help()
    with mock.patch.dict(os.environ, COLUMNS="200"):
        assert _oracles.build_parser().format_help() != narrow


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["verify", "--example", "n3", "--bogus"]])
def test_usage_errors_exit_3_without_traceback(argv):
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", *argv],
                          capture_output=True, text=True, env=SOURCE_ENV)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: btpgeo") and "\nerror: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "classify"],
                          capture_output=True, env=SOURCE_ENV)
    assert proc.returncode == 3


def test_closed_stdout_exits_141_without_traceback():
    # the reader of the pipe is gone before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "verify",
                               "--example", "n3"], stdout=write_end,
                              stderr=subprocess.PIPE, env=SOURCE_ENV)
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 141


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", "verify",
                           "--example", "n3"], capture_output=True, env=SOURCE_ENV)
    assert proc.returncode == 0


# ---- which commands load numpy, dataclasses, inspect, argparse and gettext ------

# runs one CLI call and reports on stderr, after it, which of numpy,
# dataclasses, inspect, argparse and gettext were imported; help and usage
# errors exit through SystemExit
_PROBED = ("numpy", "dataclasses", "inspect", "argparse", "gettext")
_IMPORT_PROBE = ("import sys\nfrom btpgeo.cli import main\ntry:\n    code = main(sys.argv[1:])\n"
                 "except SystemExit as exc:\n    code = exc.code\nsys.stdout.flush()\n"
                 f"print('loaded:', *[m for m in {_PROBED!r} if m in sys.modules], "
                 "file=sys.stderr)\nsys.exit(code)")

EXACT_LIE_COMMANDS = (
    [("classify", "--input", str(path)) for path in sorted(DATA.glob("*.json"))]
    + [("verify", "--example", name) for name in ("n3", "a_st", "b_zt", "vaisman54")]
    + [("sweep",), ("companion", "--example", "n3", "--swap", "2")])


def _loaded_modules(argv, codes=(0, 1, 2)):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True,
                          text=True, env=SOURCE_ENV)
    assert proc.returncode in codes, proc.stderr
    last = proc.stderr.splitlines()[-1].split()
    assert last[:1] == ["loaded:"], proc.stderr
    return set(last[1:])


def _loads_numpy(argv):
    return "numpy" in _loaded_modules(argv)


def _argv_id(argv):
    return " ".join(pathlib.Path(a).name for a in argv)


@pytest.mark.parametrize("argv", EXACT_LIE_COMMANDS, ids=_argv_id)
def test_exact_lie_commands_run_without_numpy(argv):
    assert not _loads_numpy(argv)


@pytest.mark.parametrize("argv", EXACT_LIE_COMMANDS, ids=_argv_id)
def test_exact_lie_commands_import_no_dataclasses_or_inspect(argv):
    assert not _loaded_modules(argv) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    ("verify", "--example", "n3"),
    ("verify", "--example", "n3", "--torsion-a", "2"),
    ("verify", "--example", "vaisman54", "--torsion-a", "3"),
    ("verify", "--example", "n3", "--seed", "3"),                   # exits 3
    ("verify", "--example", "a_st", "--torsion-a", "2"),            # exits 3
], ids=_argv_id)
def test_no_verify_call_imports_inspect(argv):
    # the suite's parameters, which --seed and --torsion-a are checked
    # against, come from the goldens.SUITE_PARAMETERS table
    assert "inspect" not in _loaded_modules(argv, codes=(0, 3))


def test_suite_parameter_table_matches_each_suite_signature():
    # the table verify reads mirrors the suites' own signatures, so it
    # cannot go stale; the suites stay plain functions
    import inspect
    for name, suite in goldens.SUITES.items():
        assert inspect.isfunction(suite)
        assert tuple(inspect.signature(suite).parameters) == \
            goldens.SUITE_PARAMETERS.get(name, ()), name
    assert set(goldens.SUITE_PARAMETERS) <= set(goldens.SUITES)


@pytest.mark.parametrize("argv", [
    *EXACT_LIE_COMMANDS, ("wallach",), ("wallach", "--float", "--seed", "1", "--samples", "10"),
], ids=_argv_id)
def test_no_command_imports_argparse_or_gettext(argv):
    assert not _loaded_modules(argv) & {"argparse", "gettext"}


@pytest.mark.parametrize("argv", [("classify", "--help"), ("verify", "--example", "n3", "--bogus")],
                         ids=_argv_id)
def test_help_and_usage_errors_load_argparse(argv):
    # help exits 0 and the usage error 3, through SystemExit; argv that the
    # direct read does not take goes to argparse
    assert "argparse" in _loaded_modules(argv, codes=(0, 3))


def test_float_and_flag_threefold_commands_load_numpy(tmp_path):
    # float classify ranks by singular values, the float flag metric and the
    # float sectional sample of the wallach suite work on numpy arrays, and
    # so does the sl2c frame recovery; the exact flag-threefold commands do
    # not (below)
    doc = _scaled_float_doc(lie.family_a(Fraction(1, 2), Fraction(1, 3)), 1.0)
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    for argv in (("classify", "--input", str(path)), ("wallach", "--float", "--seed", "1"),
                 ("verify", "--example", "wallach", "--seed", "3"),
                 ("verify", "--example", "sl2c")):
        assert _loads_numpy(argv), argv


@pytest.mark.parametrize("argv", [("wallach",), ("verify", "--example", "wallach")],
                         ids=_argv_id)
def test_exact_flag_threefold_commands_run_without_numpy(argv):
    # the exact chart tables, golden checks and direction stacks are maps of
    # nonzero entries, contracted by btpgeo.tensor
    assert not _loads_numpy(argv)


@pytest.mark.parametrize("module", ["btpgeo.charts", "btpgeo.tensor", "btpgeo.goldens"])
def test_chart_modules_import_without_numpy(module):
    proc = subprocess.run([sys.executable, "-c", f"import sys, {module}; "
                           "print('numpy' in sys.modules)"], capture_output=True, text=True,
                          env=SOURCE_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# ---- the argv that commands are sent ----------------------------------------------

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_benchmark_and_tools_argv_is_read_without_argparse(tmp_path, monkeypatch):
    # every argv of the benchmark's workloads at two seeds, of the extra
    # commands of tools/report_diff.py and of the commands of
    # tools/fresh_process.py but help and the usage error is read directly,
    # as argparse reads it
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from btpbench import workloads
    argvs = [list(job.argv) for workload in workloads.WORKLOADS for seed in (1, 2)
             for job in workloads.make_jobs(workload, seed, str(tmp_path / f"{workload}{seed}"))]
    argvs += [argv for group in _tool("report_diff").EXTRA.values() for argv in group]
    fresh = _tool("fresh_process").COMMANDS
    argvs += [argv for name, (argv, _) in fresh.items() if name not in ("help", "usage_error")]
    assert len(argvs) > 250      # 298 at seeds 1 and 2
    with mock.patch.object(cli, "build_parser", side_effect=AssertionError("argparse built")):
        for argv in argvs:
            assert argv[0] in cli.COMMANDS and argv[1:2] != ["--"], argv
            assert vars(cli._command_parser(argv[0]).parse_args(argv[1:])) == \
                vars(_oracles._command_parser(argv[0]).parse_args(argv[1:])), argv
    for name in ("help", "usage_error"):
        assert cli._read(fresh[name][0][0], fresh[name][0][1:]) is None, name


# ---- argv fuzz ------------------------------------------------------------------

# values and stray tokens on the edge between the direct read and argparse:
# '-', a value starting with a space, an '=' in a value, a bare option, and
# an '=' form with no value
_VALUES = st.sampled_from(["", "--", "-1", "0", "1", "2", "1/2", "-1/3", "x", "1,,2", "0,1",
                           "-1,0,1", "3", "1,3", "2i", "1e-3", "-", " -1", "a=b"])
_EXAMPLES = st.sampled_from(["n3", "a_st", "b_zt", "sl2c", "wallach", "vaisman54", "abelian",
                             "bogus", "", "a_st(1,-1)", "a_st(1,,2)", "b_zt(2i,1)", "b_zt(1)",
                             "a_st(1/0,1)"])
_INPUTS = st.sampled_from([str(p) for p in sorted(DATA.iterdir())] + ["/nonexistent.json"])
_STRAY = st.sampled_from(["--", "-h", "--bogus", "extra", "--out", "--float=", "--input="])
_OUT = st.just("/nonexistent/dir/r.json")     # never a path that can be written
_OPTIONS = {
    "classify": {"--input": _INPUTS, "--out": _OUT},
    "verify": {"--example": _EXAMPLES, "--seed": _VALUES, "--torsion-a": _VALUES,
               "--out": _OUT},
    "wallach": {"--float": None, "--seed": _VALUES, "--out": _OUT},
    "sweep": {"--grid": _VALUES, "--torsion-a": _VALUES, "--out": _OUT},
    "companion": {"--example": _EXAMPLES, "--swap": _VALUES, "--torsion-a": _VALUES,
                  "--out": _OUT},
}

_REQUIRED = {"classify": "--input", "verify": "--example", "companion": "--example"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command in _REQUIRED and draw(st.integers(0, 4)):
        argv += [_REQUIRED[command], draw(_OPTIONS[command][_REQUIRED[command]])]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            argv.append(draw(_STRAY))
            continue
        flag = draw(st.sampled_from(sorted(_OPTIONS[command])))
        values = _OPTIONS[command][flag]
        if values is None:
            argv.append(flag)
        elif kind == 1:
            argv.append(f"{flag}={draw(values)}")
        else:
            argv += [flag, draw(values)]
    if command == "wallach":
        argv += ["--samples", draw(st.sampled_from(["1", "2", "5", "0", "x"]))]
    return argv


@settings(derandomize=True, max_examples=150, deadline=10_000,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:       # argparse's help and usage errors
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 141), (argv, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert [line for line in err.splitlines() if line.startswith("error:")] \
            == [err.splitlines()[-1]], (argv, err)


# ---- the parser against argparse ------------------------------------------------

def _parse_outcome(build_parser, command_parser, argv):
    """What main makes of argv before it calls the command, through the given
    parsers: ("ok", command, parsed options), or (exit code, stdout, stderr)
    of help and usage errors, with argparse's layout at 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            if not argv or argv[0] not in cli.COMMANDS or argv[1:2] == ["--"]:
                top = build_parser().parse_args(argv)
                argv = [top.command, *top.args]
            args = vars(command_parser(argv[0]).parse_args(argv[1:]))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
        except cli.CliError as exc:
            return exc.code, out.getvalue(), f"error: {exc}\n"
    listed = [dest for dest, value in args.items() if isinstance(value, list)]
    if listed:      # argparse's reading of '--opt=--', which main rejected
        return cli.EXIT_USAGE, "", f"error: --{listed[0].replace('_', '-')} needs a value\n"
    return "ok", argv[0], args


def _parses_as_argparse_did(argv):
    assert _parse_outcome(cli.build_parser, cli._command_parser, list(argv)) == \
        _parse_outcome(_oracles.build_parser, _oracles._command_parser, list(argv)), argv


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_argv())
def test_the_parser_reads_fuzzed_argv_as_argparse_did(argv):
    _parses_as_argparse_did(argv)


PARSE_EDGES = [
    # top level: help, a missing or unknown command, '--' before the command
    [], ["-h"], ["--he"], ["--help=x"], ["-hx"], ["-hh"], ["-h=h"], ["-h="], ["-hh=x"],
    ["frobnicate"], ["frobnicate", "-h"], ["-h", "frobnicate"], ["--bogus"],
    ["--bogus", "classify", "--input", "x"], ["--"], ["--bogus", "--"], ["-1"],
    ["--", "classify", "--input", "x"], ["--", "--", "classify"], ["--", "-h"],
    ["--", "classify", "--", "--input", "x"],
    # prefixes, the ambiguous --s, and '=' with no option before it
    ["classify", "--inp", "x"], ["classify", "--inp=x"], ["classify", "--i=x", "--o", "y"],
    ["wallach", "--s", "1"], ["wallach", "--s=1"], ["wallach", "--se", "1", "--sa", "2"],
    ["wallach", "--fl"], ["wallach", "-h", "--s"], ["classify", "--=x"], ["classify", "--="],
    ["classify", "---input", "x"], ["classify", "-i", "x"], ["classify", "-x=y"],
    # help after a bad option or value, and help given a value
    ["classify", "--bogus", "-h"], ["classify", "stray", "--he"], ["classify", "-h", "--bogus"],
    ["wallach", "--seed", "x", "-h"], ["wallach", "--seed", "-h"], ["classify", "--help=x"],
    ["classify", "--he="], ["classify", "--help=h"], ["classify", "-hx"], ["classify", "-hh"],
    ["verify", "-h=h"],
    ["wallach", "--float=x"], ["wallach", "--float="], ["wallach", "--float", "--float"],
    # '--opt=--'
    ["sweep", "--grid=--"], ["verify", "--example", "n3", "--torsion-a=--"],
    ["verify", "--example=--", "-h"], ["verify", "--example=--", "--bogus"],
    ["verify", "--example=--", "--seed=--"], ["classify", "--input=--", "--input", "x"],
    ["wallach", "--seed=--"], ["classify", "--in=--"],
    # values that start with '-'
    ["verify", "--example", "n3", "--torsion-a", "-1"],
    ["verify", "--example", "n3", "--torsion-a", "-1/2"],
    ["verify", "--example", "n3", "--torsion-a=-1/2"], ["wallach", "--seed", "-1"],
    ["wallach", "--seed", "-1.5"], ["wallach", "--seed", "-.5"], ["wallach", "--seed", "-1e3"],
    ["sweep", "--grid", "-1,0"], ["sweep", "--grid", "-1 0"], ["sweep", "--grid=-1,0"],
    ["sweep", "--grid", "--gr"], ["sweep", "--grid", "-"], ["classify", "--input", "--in x"],
    # '--' before, between and after options
    ["classify", "--", "--input", "x"], ["classify", "--input", "x", "--"],
    ["classify", "--input", "--", "x"], ["classify", "--input", "x", "--", "--out", "y"],
    ["classify", "--", "--"], ["classify", "--", "--", "--input", "x"],
    ["classify", "--input", "x", "--", "-h"], ["classify", "--", "-h"],
    # repeated options; the last wins
    ["classify", "--input", "a", "--input", "b"], ["wallach", "--seed", "1", "--seed", "2"],
    ["wallach", "--seed", "1", "--seed", "x"], ["wallach", "--seed", "x", "--seed", "1"],
    # empty values, and what int reads
    ["classify", "--input", ""], ["classify", "--input="], ["sweep", "--grid", ""],
    ["wallach", "--seed", ""], ["wallach", "--seed="], ["wallach", "--seed", " 3 "],
    ["wallach", "--seed", "+3"], ["wallach", "--seed", "1_0"], ["wallach", "--samples", "9" * 5000],
    # stray tokens and missing required options
    ["classify"], ["verify"], ["companion", "--swap", "1"], ["classify", "stray"],
    ["classify", "--input", "x", "stray", "--bogus"], ["classify", "-", "--input", "x"],
    ["classify", "", "--bogus"], ["verify", "--example", "n3", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSE_EDGES, ids=lambda argv: " ".join(argv)[:40] or "none")
def test_the_parser_reads_edge_argv_as_argparse_did(argv):
    _parses_as_argparse_did(argv)


# ---- JSON fuzz ------------------------------------------------------------------

_DOCS = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))]
# each draw is a fresh copy, since the mutations below edit lists in place
_JSON_ANY = st.sampled_from([None, True, False, -1, 0, 1, 2, 3, 4, 16, 17, 2 ** 64, 1.0, 2.5,
                             float("nan"), float("inf"), "", "3", "x", [], {}, [[]], [1],
                             {"re": "1"}]).map(copy.deepcopy)
_MAGNITUDES = st.sampled_from([0, 1, -1, 2, 10 ** 6, 10 ** 12, 10 ** 300, 10 ** 400,
                               0.0, -0.0, 1e-300, 1e-12, 1e12, 1e154, 1e300, 1.7e308,
                               float("nan"), float("inf"), float("-inf")])
_RATIONAL_TEXT = st.sampled_from(["0", "1", "-1/2", "1/0", "0/0", "1e-5", "1.5", " 2 ", "x",
                                  "", "+3", "--1", "1/-2", "9" * 5000, "1/" + "7" * 400,
                                  "1" + "0" * 300, "inf", "nan", "2i"])
_COEFS = st.one_of(_MAGNITUDES, _RATIONAL_TEXT, _JSON_ANY,
                   st.builds(lambda re, im: {"re": re, "im": im},
                             st.one_of(_RATIONAL_TEXT, _MAGNITUDES),
                             st.one_of(_RATIONAL_TEXT, _MAGNITUDES)))


def _rescale(v, scale):
    """A coefficient part times scale: exact text stays exact text, and a
    float scale makes it a float; anything else is left as it is."""
    if not isinstance(v, str):
        return v
    try:
        x = Fraction(v)
        return float(x) * scale if isinstance(scale, float) else str(x * scale)
    except (ValueError, ZeroDivisionError, OverflowError):
        return v


def _entries(doc, key):
    return doc[key] if isinstance(doc.get(key), list) else None


@st.composite
def _json_doc(draw):
    """The text of a document of tests/data with one to four mutations of its
    types, indices, entries (duplicated, moved between C and D, dropped) and
    magnitudes, cut short one time in ten."""
    doc = copy.deepcopy(draw(st.sampled_from(_DOCS)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.integers(0, 6))
        key = draw(st.sampled_from(["C", "D"]))
        rows = _entries(doc, key)
        if op == 0:                         # a top-level field replaced or dropped
            field = draw(st.sampled_from(["n", "C", "D", "label"]))
            if draw(st.booleans()):
                doc[field] = draw(_JSON_ANY)
            else:
                doc.pop(field, None)
        elif op == 1 and rows:              # an index of an entry
            entry = rows[draw(st.integers(0, len(rows) - 1))]
            if isinstance(entry, dict):
                entry[draw(st.sampled_from("jik"))] = draw(st.one_of(
                    st.integers(-1, 5), _JSON_ANY))
        elif op == 2 and rows:              # a coefficient
            entry = rows[draw(st.integers(0, len(rows) - 1))]
            if isinstance(entry, dict):
                entry["coef"] = draw(_COEFS)
        elif op == 3 and rows:              # an entry duplicated, or moved to the other list
            entry = rows[draw(st.integers(0, len(rows) - 1))]
            other = _entries(doc, "D" if key == "C" else "C")
            if draw(st.booleans()):
                rows.append(copy.deepcopy(entry))
            elif other is not None:
                rows.remove(entry)
                other.append(entry)
        elif op == 4 and rows:              # a key of an entry dropped, or the entry
            pos = draw(st.integers(0, len(rows) - 1))
            if draw(st.booleans()) and isinstance(rows[pos], dict):
                rows[pos].pop(draw(st.sampled_from(["j", "i", "k", "coef"])), None)
            else:
                del rows[pos]
        elif op == 5 and rows is not None:  # a new entry
            rows.append({"j": draw(st.integers(1, 3)), "i": draw(st.integers(1, 3)),
                         "k": draw(st.integers(1, 3)), "coef": draw(_COEFS)})
        elif op == 6:                       # every coefficient of a list rescaled
            scale = draw(st.sampled_from([Fraction(1, 10 ** 6), 10 ** 12, 1e-300, 1e300]))
            for entry in rows or []:
                if isinstance(entry, dict) and isinstance(entry.get("coef"), dict):
                    entry["coef"] = {part: _rescale(v, scale)
                                     for part, v in entry["coef"].items()}
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 9)) == 0 else text


@settings(derandomize=True, max_examples=150, deadline=10_000,
          suppress_health_check=[HealthCheck.too_slow])
@given(_json_doc())
def test_json_fuzz_exits_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "json_fuzz.json"
    path.write_text(doc)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["classify", "--input", str(path)])
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 141), (doc, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert [line for line in err.splitlines() if line.startswith("error:")] \
            == [err.splitlines()[-1]], (doc, err)
