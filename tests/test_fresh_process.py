"""Smoke test of tools/fresh_process.py: one timed run of one command."""

import json
import pathlib
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
    assert "classify" in proc.stdout
