"""Smoke test of the in-process exhaustive-search timing script."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_exhaustive_inprocess_one_pass(tmp_path):
    # one pass per group: the summary takes the lone time as its quartiles
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "exhaustive_inprocess.py"),
         "--side", f"src={ROOT / 'src'}", "--pairs", "1", "--passes", "1", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert json.loads(proc.stdout) == doc
    assert set(doc) == {
        "what", "argv", "git_head", "worktree_changed", "machine", "python", "numpy", "results",
    }
    assert set(doc["machine"]) == {"platform", "machine", "cpus"}
    (groups,) = doc["results"].values()
    assert set(groups) == {"panel_n7", "gnp_7_half", "gnp_8_half", "Gz]C?{"}
    for summary in groups.values():
        assert summary["passes"] == 1
        assert summary["q1_ms"] == summary["median_ms"] == summary["q3_ms"] > 0
