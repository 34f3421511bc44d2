"""Tests of the benchmark itself: seeded generators and the output checks.

    python3 -m pytest perfbench -q
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qcones.cli as cli  # noqa: E402
import run as bench  # noqa: E402
from checks import CheckError, Checker, exact_moments  # noqa: E402
from specs import adjacency, decode_graph6, encode_graph6, make_spec, parse_spec, spec_text  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Op, make_round  # noqa: E402

FLAGSHIP = make_spec((3,), (2, 1))


def run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.argv)
    return code, json.loads(out.getvalue())


def spec_op(kind, argv, spec=FLAGSHIP, **extra):
    a = adjacency(spec)
    return Op(kind, [argv[0], spec_text(spec), *argv[1:]], a.shape[0], a, spec, **extra)


def assert_rejected(op, doc):
    with pytest.raises(CheckError):
        Checker().check(op, 0, json.dumps(doc))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rounds_are_deterministic_per_seed(workload):
    first = [op.argv for op in make_round(workload, 3, 1)]
    assert first == [op.argv for op in make_round(workload, 3, 1)]
    assert first != [op.argv for op in make_round(workload, 4, 1)]
    assert first != [op.argv for op in make_round(workload, 3, 2)]


def test_inputs_round_trip_through_text_and_graph6():
    ops = make_round("cone_queries", 5, 0)
    assert any(op.graph6 for op in ops) and any("C2" in op.argv[1] for op in ops)
    for op in ops:
        if op.graph6:
            assert np.array_equal(decode_graph6(op.argv[1]), op.adjacency)
        else:
            assert parse_spec(op.argv[1]) == op.spec


def test_exact_moments_of_a_triangle():
    # K3: Q = 2I + A has spectrum {4, 1, 1} and A has {2, -1, -1}
    a = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    assert exact_moments(a) == {"t1": 6, "t2": 18, "t3": 66, "t4": 258, "s4": 18}


def test_spectrum_check_rejects_a_perturbed_eigenvalue():
    op = spec_op("spectrum", ["spectrum", "--both"])
    code, doc = run(op)
    Checker().check(op, code, json.dumps(doc))
    for route in ("numeric", "closed"):
        bad = copy.deepcopy(doc)
        bad["result"][route]["values"][2] += 1e-6
        assert_rejected(op, bad)


def test_spectrum_check_rejects_a_wrong_exit_code_and_non_json():
    op = spec_op("spectrum", ["spectrum", "--numeric"])
    code, doc = run(op)
    with pytest.raises(CheckError):
        Checker().check(op, 3, json.dumps(doc))
    with pytest.raises(CheckError):
        Checker().check(op, code, "index,value\n")


@pytest.mark.parametrize("moment", ["t1", "t2", "t3", "t4", "s4"])
def test_moments_check_rejects_a_moment_off_by_one(moment):
    op = spec_op("moments", ["moments", "--from", "both"], make_spec((4, 3), (2, 2, 1)))
    code, doc = run(op)
    Checker().check(op, code, json.dumps(doc))
    bad = copy.deepcopy(doc)
    bad["result"]["counts_moments"][moment] += 1
    assert_rejected(op, bad)


def test_mate_checks_reject_a_wrong_mate_spectrum():
    op = spec_op("mate13", ["mate", "--theorem", "13"])
    code, doc = run(op)
    Checker().check(op, code, json.dumps(doc))
    bad = copy.deepcopy(doc)
    bad["result"]["spectra"]["mate"]["values"][0] += 1e-6
    assert_rejected(op, bad)
    bad = copy.deepcopy(doc)
    bad["result"]["cospectral_within_tolerance"] = False
    assert_rejected(op, bad)

    op = spec_op("mate11", ["mate", "--theorem", "11"], make_spec((6,), (2, 2, 1)))
    code, doc = run(op)
    Checker().check(op, code, json.dumps(doc))
    bad = copy.deepcopy(doc)
    bad["result"]["distance"] *= 2
    assert_rejected(op, bad)


def test_probe_check_rejects_a_failed_probe():
    op = spec_op("probe", ["probe", "--lemma", "2.4"], lemma="2.4")
    code, doc = run(op)
    Checker().check(op, code, json.dumps(doc))
    bad = copy.deepcopy(doc)
    bad["result"]["status"] = "fail"
    assert_rejected(op, bad)


def test_family_check_rejects_a_dropped_or_duplicated_hit():
    op = spec_op("family", ["search", "--family"])
    code, doc = run(op)
    facts = Checker().check(op, code, json.dumps(doc))
    assert facts["classes"] == 2
    for edit in (lambda h: h.pop(), lambda h: h.pop(0), lambda h: h.append(h[0])):
        bad = copy.deepcopy(doc)
        edit(bad["result"]["hits"])
        bad["result"]["classes"] = len(bad["result"]["hits"])
        assert_rejected(op, bad)


def test_exhaustive_check_rejects_a_dropped_or_duplicated_hit():
    a = adjacency(FLAGSHIP)
    op = Op("exhaustive", ["search", encode_graph6(a), "--exhaustive", "--jobs", "1"], 7, a, FLAGSHIP, True)
    code, doc = run(op)
    facts = Checker().check(op, code, json.dumps(doc))
    assert facts["classes"] == 2
    for edit in (lambda h: h.pop(), lambda h: h.append(h[0])):
        bad = copy.deepcopy(doc)
        edit(bad["result"]["hits"])
        bad["result"]["classes"] = len(bad["result"]["hits"])
        assert_rejected(op, bad)


def test_tracer_restores_the_package_and_self_times_add_up():
    original = cli.q_spectrum
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.q_spectrum is not original
        tracer.op = 0
        run(spec_op("mate13", ["mate", "--theorem", "13"]))
    finally:
        tracer.remove()
    assert cli.q_spectrum is original
    metrics = layer_metrics(tracer.spans)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["cli.main.calls"] == 1
    assert self_sum == pytest.approx(metrics["cli.main.busy_s"])
    assert metrics["moments.moments_from_counts.calls"] == 2
    assert metrics["graphs.count_subgraphs.tuples"] == 2 * (35 + 35)


def test_layer_metrics_keep_a_call_that_raised():
    spans = [["cli.main", 0.0, 1.0, -1, 0, None], ["search.search_family", 0.25, 0.75, 0, 0, None]]
    metrics = layer_metrics(spans)
    assert metrics["search.search_family.calls"] == 1
    assert "search.search_family.candidates" not in metrics
    assert metrics["cli.main.self_s"] == pytest.approx(0.5)


def test_a_checked_round_keeps_counts_not_outputs():
    op = spec_op("spectrum", ["spectrum", "--numeric"])
    code, doc = run(op)
    out = json.dumps(doc)
    tally = bench.Run("cone_queries", 1)
    tally.add([(op, 0.01, code, out), (op, 0.01, 3, out), (op, 0.01, "raised ValueError: x", "")])
    assert (tally.rounds, tally.attempted, tally.failed, tally.wrong) == (1, 3, 2, 1)
    assert tally.commands == {"spectrum": 3} and not tally.per_target
    assert bench.profile(tally)["failed_ratio"] == 2 / 3


def test_an_operation_factor_is_the_median_of_the_kernel_passes_near_it():
    tally = bench.Run("cone_queries", 1)
    tally.samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (10.0, 5.0), (20.0, 7.0)]
    tally.spans = [(1.5, 1.6), (10.0, 10.5), (19.0, 25.0)]
    assert bench.FACTOR_WINDOW_S == 3.0
    assert tally.factors() == [2.0, 5.0, 7.0]
