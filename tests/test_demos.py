"""Every demo script runs to completion against the source tree, and the
exact output of the invariant-forms demo matches its committed text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr


def test_invariant_forms_demo_prints_its_golden_text():
    # form reprs list monomials in sorted (phi, phibar) index order
    proc = run_demo(ROOT / "demos" / "05_invariant_forms.py")
    golden = ROOT / "tests" / "data" / "demo_05_invariant_forms.txt"
    assert proc.stdout == golden.read_text()
