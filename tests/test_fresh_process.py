"""Tests of tools/fresh_process.py: three timed runs of one command, and the
verdict on the parent's run-to-run spread over stubbed timings."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_fresh_process_script_times_one_command(tmp_path):
    # three runs a side, so that the floor is compared with the command by
    # their fastest runs: a single run of either, and on a loaded host a
    # median of three, can stray by more than their gap
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"change": "kept"}))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fresh_process.py"),
                           "--parent", str(ROOT), "--change", str(ROOT), "--out", str(out),
                           "--runs", "3", "--commands", "classify"],
                          capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["change"] == "kept"
    block = doc["fresh_process"]
    assert block["runs"] == 3 and list(block["commands"]) == ["classify"]
    row = block["commands"]["classify"]
    for side in ("parent", "change"):
        assert len(row[side]["runs_ms"]) == 3 and row[side]["median_ms"] > 0
        assert row[side]["numpy_loaded"] is False and row[side]["numpy_import_ms"] is None
    assert row["identical"] == {"stdout": True, "stderr": True, "exit_code": True}
    # the interpreter floor: timed like the commands, and below each of them
    for side in ("parent", "change"):
        floor = block["floor"][side]
        assert len(floor["runs_ms"]) == 3 and floor["median_ms"] > 0
        assert 0 < min(floor["runs_ms"]) < min(row[side]["runs_ms"])
    table = proc.stdout.splitlines()
    assert table[1].startswith("floor") and table[2].startswith("classify")


def test_fresh_process_script_tells_which_outputs_differ(tmp_path):
    # a change tree whose classify report carries one more ref
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src", change / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests" / "data", change / "tests" / "data")
    cli = change / "src" / "btpgeo" / "cli.py"
    text = cli.read_text()
    assert text.count("CLASSIFY_REFS = [") == 1
    cli.write_text(text.replace("CLASSIFY_REFS = [", 'CLASSIFY_REFS = ["an extra ref",'))
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fresh_process.py"),
                           "--parent", str(ROOT), "--change", str(change), "--out", str(out),
                           "--runs", "1", "--commands", "classify"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    row = json.loads(out.read_text())["fresh_process"]["commands"]["classify"]
    assert row["identical"] == {"stdout": False, "stderr": True, "exit_code": True}


def _load_tool():
    spec = importlib.util.spec_from_file_location("fresh_process",
                                                  ROOT / "tools" / "fresh_process.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("shift_ms, verdict", [(0.0, "inside"), (40.0, "outside")])
def test_fresh_process_tells_a_median_outside_the_parent_spread(
        tmp_path, monkeypatch, capsys, shift_ms, verdict):
    # each side times the same sequence of runs, as two identical trees on a
    # quiet host would; a change 40 ms slower on every run lies outside
    tool = _load_tool()
    seen = {}

    def run_once(tree, name):
        k = seen[tree] = seen.get(tree, -1) + 1
        return 100.0 + 7 * k % 10 + (shift_ms if tree.endswith("change") else 0.0)

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "import_profile", lambda tree, name: {"numpy_loaded": False})
    monkeypatch.setattr(tool, "outputs", lambda tree, name: {"exit_code": 0})
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", str(tmp_path / "parent"), "--change",
                      str(tmp_path / "change"), "--out", str(out),
                      "--commands", "classify"]) == 0
    block = json.loads(out.read_text())["fresh_process"]
    assert block["runs"] == 15
    floor = block["floor"]
    assert len(floor["parent"]["runs_ms"]) == len(floor["change"]["runs_ms"]) == 15
    row = block["commands"]["classify"]
    assert row["change_median_outside_parent_quartiles"] is (verdict == "outside")
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("classify"))
    assert verdict in line.split()
