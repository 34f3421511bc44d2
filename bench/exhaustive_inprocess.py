"""In-process timing of `search_exhaustive` on two source trees.

Each side runs in its own interpreter with its tree first on sys.path, and
the sides alternate, pair by pair.  A worker builds the order-7 and order-8
tables with one untimed pass, then times whole passes over each target
group: the n = 7 benchmark panel, 30 seeded G(7, 1/2) and 30 G(8, 1/2)
graphs, and `Gz]C?{`, at the default tolerance.  The summary gives, per
side and group, the median and quartiles of the passes' milliseconds per
search, with the machine, the versions and the argv.

    mkdir -p build/parent && git archive HEAD~1 | tar -x -C build/parent
    python bench/exhaustive_inprocess.py --side parent=build/parent/src --side change=src \\
        --pairs 6 --passes 15 --out BENCH_exhaustive_t4.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

PANEL = ("K1 v C3 + K2 + K1", "K1 v C4 + K2", "K1 v C6", "K1 v 3K2", "K1 v C3 + C3")
RANDOM_DRAWS = 30


def _groups():
    import numpy as np
    from qcones import MultiGraph, decode_graph6, parse_spec_text, realize

    def gnp(n, seed):
        a = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1).astype(np.int64)
        return MultiGraph(a + a.T)

    return {
        "panel_n7": [realize(parse_spec_text(s)) for s in PANEL] + [decode_graph6("F@Foo")],
        "gnp_7_half": [gnp(7, seed) for seed in range(RANDOM_DRAWS)],
        "gnp_8_half": [gnp(8, seed) for seed in range(RANDOM_DRAWS)],
        "Gz]C?{": [decode_graph6("Gz]C?{")],
    }


def _worker(passes: int) -> None:
    from qcones import search_exhaustive

    out = {}
    for name, targets in _groups().items():
        for g in targets:  # builds the tables
            search_exhaustive(g)
        times = []
        for _ in range(passes):
            start = time.perf_counter()
            for g in targets:
                search_exhaustive(g)
            times.append((time.perf_counter() - start) * 1e3 / len(targets))
        out[name] = times
    print(json.dumps(out))


def _summary(times: list[float]) -> dict:
    # quantiles() wants two points before Python 3.13: one pass is its own quartiles
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_ms": round(med, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4),
            "passes": len(times)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", action="append", default=[], metavar="NAME=SRC")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--passes", type=int, default=15)
    ap.add_argument("--out")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        _worker(args.passes)
        return
    sides = dict(s.split("=", 1) for s in args.side)
    runs = {name: {} for name in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for name in order:
            env = {**os.environ, "PYTHONPATH": os.path.abspath(sides[name])}
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", "--passes", str(args.passes)],
                env=env, capture_output=True, text=True, check=True,
            )
            for group, times in json.loads(proc.stdout).items():
                runs[name].setdefault(group, []).extend(times)
    import numpy

    def git(*cmd):
        return subprocess.run(["git", *cmd], capture_output=True, text=True).stdout.strip()

    doc = {
        "what": "search_exhaustive in process, default tol, ms per search over whole passes",
        "argv": sys.argv,
        "git_head": git("rev-parse", "HEAD"),
        "worktree_changed": bool(git("status", "--porcelain", "--untracked-files=no")),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "results": {name: {g: _summary(t) for g, t in groups.items()}
                    for name, groups in runs.items()},
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
