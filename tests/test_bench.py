"""Tests of the scripts under bench/: the in-process exhaustive-search
timing and the family's T5/T6 split."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from qcones import parse_spec_text, realize
from qcones.family import _profile

from helpers import (
    claw_level, enumerate_family_by_partitions, exact_q_and_a_traces, family_claw_counts,
)

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


def test_family_moment_split_matches_exact_traces():
    # the script's verdicts against matrix powers of every realized member
    # of the target's profiles, the `claw_level`s of its `family._profile`
    # at the claw counts of `family_claw_counts`
    target = "K1 v C8 + C4 + C3 + 2K2 + K1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "family_moment_split.py"), target],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    spec = parse_spec_text(target)
    t = exact_q_and_a_traces(realize(spec), 6)[0]
    verdicts, profile = Counter(), _profile(*t[:3], spec.n)
    for n4 in family_claw_counts(spec):
        for cand in enumerate_family_by_partitions(claw_level(profile, n4)):
            c = exact_q_and_a_traces(realize(cand), 6)[0]
            if cand != spec and c[:4] == t[:4]:
                verdicts["t5" if c[4] != t[4] else "t6" if c[5] != t[5] else "same"] += 1
    assert json.loads(proc.stdout) == {target: {
        "n": spec.n,
        "candidates": sum(verdicts.values()),
        "rejected_by_t5": verdicts["t5"],
        "rejected_by_t6": verdicts["t6"],
        "share_t1_to_t6": verdicts["same"],
    }}
    assert verdicts["t5"] and verdicts["same"]
