"""qcones benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload cone_queries --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 [--trace 1]

Every operation is one in-process ``qcones.cli.main(argv)`` call with stdout
captured.  With ``--trace 0`` the run measures the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` it runs the first round untraced and
then traced, and reports the per-layer metrics.  Each round's outputs are
checked as soon as the round ends, outside the operation timings.  The last
stdout line is the result object; the line before it is the run's input
profile.  ``--all`` runs every workload in a fresh interpreter and prints
each metric by name with its unit.
"""

import os

# Pinned before numpy loads; the benchmark is one client on small matrices.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path

import numpy as np

from calibrate import reference_factor
from checks import CheckError, Checker
from tracing import Tracer, layer_metrics, ratio
from workloads import WORKLOADS, make_round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# The reference kernel runs between operations once this much wall time has
# passed since its last pass, so its share of a run does not depend on how
# long an operation takes.
KERNEL_INTERVAL_S = 0.2
# An operation's calibration factor: the median of the kernel passes from
# this long before it starts to this long after it ends.
FACTOR_WINDOW_S = 3.0

WARM_UP = ["spectrum", "K1 v C3 + K2 + K1"]
# Timed in a fresh interpreter, then divided by that interpreter's
# calibration factor, taken once its imports are warm.
SETUP_CODE = f"""
import contextlib, io, statistics, time
start = time.perf_counter()
import qcones.cli
with contextlib.redirect_stdout(io.StringIO()):
    qcones.cli.main({WARM_UP!r})
elapsed = time.perf_counter() - start
from calibrate import reference_factor
print(elapsed, statistics.median(reference_factor() for _ in range(5)))
"""


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of importing qcones plus one warm-up
    call: (calibrated, uncalibrated) seconds."""
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, factor = map(float, done.stdout.split())
        raw.append(elapsed)
        calibrated.append(elapsed / factor)
    return statistics.median(calibrated), statistics.median(raw)


def run_op(cli, op):
    """One CLI call: (seconds, exit code or error text, captured stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crashed run
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


class Run:
    """What a timed run keeps of its operations once a round is checked:
    latencies and the input profile, not the outputs."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.checker = Checker()
        self.rounds = self.attempted = self.failed = self.wrong = self.graph6 = 0
        self.latencies, self.spans, self.samples = [], [], []
        self.orders, self.commands, self.lemmas = Counter(), Counter(), Counter()
        self.per_target = []

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), reference_factor()))

    def add(self, results) -> None:
        """Check one round's (op, latency, code, stdout) and keep the facts."""
        failed, wrong, facts = check_all(self.checker, results)
        self.attempted += len(results)
        self.failed += failed
        self.wrong += wrong
        for (op, *_), fact in zip(results, facts):
            self.orders[op.n] += 1
            self.commands[op.kind] += 1
            if op.lemma:
                self.lemmas[op.lemma] += 1
            self.graph6 += op.graph6
            if fact:
                self.per_target.append({"n": op.n, "input": op.argv[1], **fact})
        self.rounds += 1

    def factors(self) -> list:
        """Each operation's calibration factor, from the kernel passes near it."""
        times = [t for t, _ in self.samples]
        return [
            statistics.median(f for _, f in self.samples[
                bisect_left(times, begin - FACTOR_WINDOW_S):bisect_right(times, end + FACTOR_WINDOW_S)])
            for begin, end in self.spans
        ]


def run_rounds(cli, workload: str, seed: int, seconds: float) -> tuple:
    """Whole rounds until the next one would end after ``seconds`` of wall
    time; at least one.  The wall time counts the reference kernel and the
    output checks, so a run lasts about ``seconds`` however fast the program is.

    Each round is checked as soon as it ends and its outputs are dropped, so
    what the benchmark holds does not grow with the number of rounds.  The
    peak RSS is read after the first round, before its outputs are checked
    (the checks load networkx): one round of fixed composition is a fixed
    amount of work.  Returns the run and that peak in MB."""
    run, peak_rss_mb = Run(workload, seed), None
    start = time.perf_counter()
    run.sample()
    while True:
        round_start = time.perf_counter()
        results = []
        for op in make_round(workload, seed, run.rounds):
            latency, code, out = run_op(cli, op)
            end = time.perf_counter()
            run.latencies.append(latency)
            run.spans.append((end - latency, end))
            results.append((op, latency, code, out))
            if end - run.samples[-1][0] >= KERNEL_INTERVAL_S:
                run.sample()
        run.sample()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.add(results)
        del results
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            return run, peak_rss_mb


def check_all(checker, results) -> tuple[int, int, list]:
    """(failed operations, wrong outputs, profile facts per operation).

    An operation fails when it raises, exits non-zero or its output fails a
    check.  Every failure but a raised exception, which leaves no output,
    counts as a wrong output."""
    failed, wrong, facts = 0, 0, []
    for op, _, code, out in results:
        try:
            facts.append(checker.check(op, code, out))
        except CheckError as exc:
            failed += 1
            wrong += isinstance(code, int)
            facts.append(None)
            print(f"operation failed: {op.argv[:3]}: {exc}", file=sys.stderr)
    return failed, wrong, facts


def profile(run: Run) -> dict:
    n = run.attempted
    prof = {
        "workload": run.workload,
        "seed": run.seed,
        "rounds": run.rounds,
        "blas_threads": int(BLAS_THREADS),
        "failed_ratio": run.failed / n,
        "orders": dict(sorted(run.orders.items())),
        "commands": dict(run.commands),
        "lemmas": dict(run.lemmas),
        "graph6_share": run.graph6 / n,
        "latency_samples": n,
        "beyond_p95": n - -(-95 * n // 100),
    }
    if run.per_target:
        prof["per_target"] = run.per_target
    return prof


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than one order statistic when the operation
    costs are spread over two decades."""
    from scipy.special import betainc  # after the peak RSS is read

    x = np.sort(values)
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def latency_stats(latencies, factors, rounds: int) -> dict:
    """Throughput (median over rounds) and latency quantiles, with each
    operation's time divided by its calibration factor."""
    lat = [t / f for t, f in zip(latencies, factors)]
    size = len(lat) // rounds
    return {
        "ops_per_s": statistics.median(size / sum(lat[i:i + size]) for i in range(0, len(lat), size)),
        "op_p50_ms": 1000 * hd_quantile(lat, 0.5),
        "op_p95_ms": 1000 * hd_quantile(lat, 0.95),
    }


def traced_round(cli, workload: str, seed: int) -> tuple:
    """Round 0 untraced, then the same operations traced."""
    ops = make_round(workload, seed, 0)
    plain = [(op, *run_op(cli, op)) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append((op, *run_op(cli, op)))
    finally:
        tracer.remove()
    return plain, traced, tracer


def per_layer(plain, traced, spans) -> dict:
    metrics = layer_metrics(spans)
    fam, exh = "search.search_family", "search.search_exhaustive"
    metrics[f"{fam}.hit_ratio"] = ratio(metrics.get(f"{fam}.hits", 0), metrics.get(f"{fam}.candidates", 0))
    metrics[f"{exh}.useful_ratio"] = ratio(metrics.get(f"{exh}.classes", 0), metrics.get(f"{exh}.reverified", 0))
    plain_wall = sum(r[1] for r in plain)
    traced_wall = sum(r[1] for r in traced)
    metrics.update({
        "trace.untraced_ops_per_s": len(plain) / plain_wall,
        "trace.traced_ops_per_s": len(traced) / traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.op_wall_s": traced_wall,
        "trace.self_sum_s": sum(v for k, v in metrics.items() if k.endswith(".self_s")),
    })
    return metrics


def run_workload(args) -> int:
    specs = load_metric_specs()
    import qcones.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(WARM_UP)
    if args.trace:
        plain, traced, tracer = traced_round(cli, args.workload, args.seed)
        run = Run(args.workload, args.seed)
        run.add(plain)
        run.add(traced)
    else:
        setup_s, raw_setup_s = measure_setup()
        run, peak_rss_mb = run_rounds(cli, args.workload, args.seed, args.seconds)
    prof = profile(run)
    if not args.trace:
        factors = run.factors()
        prof["uncalibrated"] = {"setup_s": raw_setup_s, **latency_stats(run.latencies, [1.0] * run.attempted, run.rounds)}
        prof["calibration_factor"] = {"median": statistics.median(factors), "min": min(factors), "max": max(factors),
                                      "kernel_passes": len(run.samples)}
    print(json.dumps({"profile": prof}))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values, wanted = per_layer(plain, traced, tracer.spans), specs["per_layer"]
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  **latency_stats(run.latencies, factors, run.rounds)}
        wanted = specs["end_to_end"]
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in wanted.items()}
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter; a table of every metric."""
    summary = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        prof_line, result_line = done.stdout.strip().splitlines()[-2:]
        prof, result = json.loads(prof_line)["profile"], json.loads(result_line)
        print(f"== {workload}: {result['attempted']} operations in {prof['rounds']} rounds, "
              f"{result['failed']} failed")
        print(f"  {'failed_ratio':40s} {prof['failed_ratio']:14.6g} ratio")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
        summary[workload] = result
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcones" / "__init__.py").is_file():
        print(f"qcones sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
