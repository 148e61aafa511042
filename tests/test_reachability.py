"""Every function in ``src/btpgeo`` is reached by the program's own commands.

One fresh interpreter installs a ``sys.setprofile`` hook before it imports
btpgeo, then runs a fixed command set in process through ``cli.main``:
``classify`` of each file in ``tests/data`` and of one float algebra, every
``verify --example``, ``wallach`` exact and ``--float --seed 1``, the
``sweep`` and ``companion`` argvs of ``tools/report_diff.py``, ``companion``
of the ``abelian`` example and of a parameterized ``b_zt``, a usage error,
``--help``, and then the five demos (through ``runpy``).  Each function
defined in ``src/btpgeo`` must be entered, or be named in ``ALLOWED`` with
the reason it is not; an allowed name that is entered fails too, so the
list cannot go stale.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "btpgeo"

NUMBER_PROTOCOL = "the number protocol: defined so that both scalar kinds answer alike"
IMMUTABLE = "an immutability guard: raises on any write"
REPR = "a repr, for interactive use"
BENCH = "wrapped or read by the benchmark (bench/), which no command calls"
ACCEPTANCE = "called by tests/test_acceptance.py, which no command calls"
JET_API = ("the jet API (ring operations, constants and the key check of the validating "
           "constructor) over the term-map kernels and canonical keys the chart builders use")

ALLOWED = {
    "charts.ChartMetric.__setattr__": IMMUTABLE,
    "charts.sectional_curvature": ACCEPTANCE,
    "forms.CoframeContext.__setattr__": IMMUTABLE,
    "jets.Jet2.__repr__": REPR,
    "jets.Jet2.__repr__.<locals>.vname": REPR,
    "jets.Jet2.__mul__": BENCH,
    "jets.Jet2.__truediv__": NUMBER_PROTOCOL,
    "jets.Jet2._key": JET_API,
    "jets.Jet2.constant": JET_API,
    "jets.Jet2.reciprocal": JET_API,
    "jets.Jet2.deriv": ACCEPTANCE,
    "jets.jet_matrix_inverse": BENCH,
    "jets.jet_matrix_inverse.<locals>.matmul": BENCH,
    "lie.HermitianLieAlgebra.__repr__": REPR,
    "lie.chern_curvature": ACCEPTANCE,
    "scalars.ExactComplex.__abs__": NUMBER_PROTOCOL,
    "scalars.ExactComplex.__hash__": NUMBER_PROTOCOL,
    "scalars.ExactComplex.__pos__": NUMBER_PROTOCOL,
    "scalars.ExactComplex.__rtruediv__": NUMBER_PROTOCOL,
    "scalars.ExactComplex.__setattr__": IMMUTABLE,
    "scalars.ExactComplex.abs2": NUMBER_PROTOCOL,
    "scalars.ExactComplex.is_zero": ACCEPTANCE,
    "scalars.JsonTable.__setattr__": IMMUTABLE,
    "scalars.Terms.__hash__": NUMBER_PROTOCOL,
    "scalars.Terms.__neg__": NUMBER_PROTOCOL,
    "scalars.Terms.__setattr__": IMMUTABLE,
}

# runs in the fresh interpreter: the (file, first line) of every code object
# entered, as JSON on stdout
RUNNER = r"""
import contextlib, glob, io, json, os, runpy, sys, tempfile
root = sys.argv[1]
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.path.insert(0, os.path.join(root, "src"))
sys.setprofile(hook)
from btpgeo import cli
extra = runpy.run_path(os.path.join(root, "tools", "report_diff.py"))["EXTRA"]
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
    json.dump({"n": 3, "label": "n3 in float", "D": [
        {"j": 1, "i": 3, "k": 1, "coef": 1.0}, {"j": 2, "i": 3, "k": 2, "coef": {"re": -1.0}}]}, f)
data = sorted(glob.glob(os.path.join(root, "tests", "data", "*.json"))) + [f.name]
argvs = ([["classify", "--input", path] for path in data]
         + [["verify", "--example", name]
            for name in ("n3", "a_st", "b_zt", "sl2c", "vaisman54", "wallach")]
         + [["wallach"], ["wallach", "--float", "--seed", "1"]]
         + extra["sweep"] + extra["companion"]
         + [["companion", "--example", "abelian", "--swap", "1"],
            ["companion", "--example", "b_zt(1+1/2i,1/3)", "--swap", "1"],
            ["verify", "--bogus"], ["--help"]])
sink = io.StringIO()
try:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            try:
                cli.main(argv)
            except SystemExit:
                pass
        for demo in sorted(glob.glob(os.path.join(root, "demos", "*.py"))):
            runpy.run_path(demo, run_name="__main__")
finally:
    sys.setprofile(None)
    os.unlink(f.name)
json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in entered}), sys.stdout)
"""


def defined_functions():
    """{(file, first line): "module.qualname"} of every def in src/btpgeo;
    a decorated def starts at its first decorator, as its code object does."""
    out = {}

    def walk(node, prefix, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[str(path), first] = f"{module}.{name}"
                walk(child, name + ".<locals>.", path, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path, module)
            else:
                walk(child, prefix, path, module)
    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), "", path, path.stem)
    return out


def entered_functions(defined):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(ROOT)], capture_output=True,
                          text=True, env=env, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return {defined[f, line] for f, line in json.loads(proc.stdout) if (f, line) in defined}


def test_every_function_is_entered_or_allowed():
    defined = defined_functions()
    entered = entered_functions(defined)
    names = set(defined.values())
    assert sorted(set(ALLOWED) - names) == [], "allowed names that are not defined"
    assert sorted(names - entered - set(ALLOWED)) == [], "functions no command enters"
    assert sorted(entered & set(ALLOWED)) == [], "allowed functions a command enters"
