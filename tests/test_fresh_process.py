"""Smoke tests of tools/fresh_process.py: one timed run of one command."""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_fresh_process_script_times_one_command(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"change": "kept"}))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fresh_process.py"),
                           "--parent", str(ROOT), "--change", str(ROOT), "--out", str(out),
                           "--runs", "1", "--commands", "classify"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["change"] == "kept"
    block = doc["fresh_process"]
    assert block["runs"] == 1 and list(block["commands"]) == ["classify"]
    row = block["commands"]["classify"]
    for side in ("parent", "change"):
        assert len(row[side]["runs_ms"]) == 1 and row[side]["median_ms"] > 0
        assert row[side]["numpy_loaded"] is False and row[side]["numpy_import_ms"] is None
    assert row["identical"] == {"stdout": True, "stderr": True, "exit_code": True}
    assert "classify" in proc.stdout


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
