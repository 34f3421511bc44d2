"""Command-line contract: JSON documents, CSV tables, exit codes."""

import json
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from qcones import (
    ConeSpec,
    FormatError,
    MomentVector,
    ScaleError,
    closed_spectrum,
    decode_graph6,
    encode_graph6,
    q_spectrum,
    realize,
)
from qcones import cli
from qcones.cli import format_spec_text, main, parse_spec_text
from qcones.search import PROBE_IDS

from helpers import cycle_graph, disjoint_union, eager_groups, g_family_spec

FLAGSHIP_TEXT = "K1 v C3 + 1K2 + 1K1"
MOMENT_REL_TOL = 1e-7

GOLDEN_SPECTRUM_CSV = """\
index,closed,numeric,source
1,7.69075779415,7.69075779415,quartic-1
2,4.2040547983,4.2040547983,quartic-2
3,2.37632709104,2.37632709104,quartic-3
4,2,2,3+2cos(2π/3)
5,2,2,3+2cos(4π/3)
6,1,1,1
7,0.728860316504,0.728860316504,quartic-4
"""

GOLDEN_NUMERIC_CSV = """\
index,value,source
1,7.69075779415,
2,4.2040547983,
3,2.37632709104,
4,2,
5,2,
6,1,
7,0.728860316504,
"""

GOLDEN_CLOSED_CSV = """\
index,value,source
1,7.69075779415,quartic-1
2,4.2040547983,quartic-2
3,2.37632709104,quartic-3
4,2,3+2cos(2π/3)
5,2,3+2cos(4π/3)
6,1,1
7,0.728860316504,quartic-4
"""

GOLDEN_COUNTS_CSV = """\
name,value
t1,20
t2,92
t3,560
t4,3876
s4,148
"""

GOLDEN_K3_MOMENTS_CSV = """\
name,counts,spectrum
t1,6,6
t2,18,18
t3,66,66
t4,258,258
s4,18,18
"""


# 3 ties 3+2cos(π/2) and 1 ties 3+2cos(π) bitwise; the constant's tag
# comes first
GOLDEN_TIED_CSV = """\
index,value,source
1,10.3899045136,quartic-1
2,4.46953986749,quartic-2
3,3,3
4,3,3+2cos(π/2)
5,3,3+2cos(3π/2)
6,2.32577525251,quartic-3
7,1,1
8,1,1
9,1,3+2cos(π)
10,0.814780366368,quartic-4
"""


def _no_realize(spec):
    raise AssertionError("the command built an n x n matrix")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


class TestSpecText:
    def test_parse_flagship(self):
        assert parse_spec_text(FLAGSHIP_TEXT) == ConeSpec(
            cycles=(3,), paths=(2, 1)
        )

    def test_parse_without_prefix(self):
        assert parse_spec_text("C3 + 1K2 + 1K1") == parse_spec_text(FLAGSHIP_TEXT)

    def test_parse_multiplicities(self):
        spec = parse_spec_text("K1 v C5 + 3K2 + 2K1 + K13")
        assert spec == ConeSpec(cycles=(5,), paths=(2, 2, 2, 1, 1), stars13=1)

    def test_parse_bare_counts(self):
        assert parse_spec_text("K2 + K1") == ConeSpec(paths=(2, 1))

    def test_format_canonical_order(self):
        spec = ConeSpec(cycles=(3, 4), paths=(3, 2, 1), stars13=1)
        assert format_spec_text(spec) == "K1 v K13 + C4 + C3 + P3 + 1K2 + 1K1"

    def test_leading_zeros_past_the_int_digit_limit(self):
        # int() counts leading zeros towards its 4300-digit limit
        zeros = "0" * 5000
        assert parse_spec_text(f"K1 v C{zeros}3 + {zeros}2K2") == ConeSpec(
            cycles=(3,), paths=(2, 2)
        )
        with pytest.raises(FormatError):
            parse_spec_text(f"K1 v {zeros}K1")

    def test_roundtrip(self):
        specs = [
            g_family_spec([5, 7], 1, 1),
            ConeSpec(paths=(2,), stars13=1),
            ConeSpec(cycles=(4,), paths=(6, 3, 1, 1)),
        ]
        for spec in specs:
            assert parse_spec_text(format_spec_text(spec)) == spec

    def test_unknown_term_position(self):
        with pytest.raises(FormatError) as err:
            parse_spec_text("K1 v Q9")
        assert "unknown term 'Q9' at position 6" in str(err.value)

    def test_empty_spec_rejected(self):
        with pytest.raises(FormatError):
            parse_spec_text("K1 v")

    def test_order_capped(self):
        with pytest.raises(ScaleError, match="cone order 5001 exceeds 4096 vertices"):
            parse_spec_text("K1 v C5000")


class TestSpectrumCommand:
    def test_both_routes_agree(self, capsys):
        code, doc, _ = run_json(capsys, "spectrum", FLAGSHIP_TEXT, "--both")
        assert code == 0
        assert doc["status"] == "ok"
        assert set(doc) == {"command", "input", "params", "result", "status"}
        assert doc["command"] == "spectrum"
        assert doc["result"]["distance"] <= 1e-13
        assert doc["result"]["n"] == 7

    def test_default_mode_is_both(self, capsys):
        code, doc, _ = run_json(capsys, "spectrum", FLAGSHIP_TEXT)
        assert code == 0
        assert "closed" in doc["result"] and "numeric" in doc["result"]

    def test_even_cycle_group(self, capsys):
        code, doc, _ = run_json(
            capsys, "spectrum", "K1 v C4 + 1K2 + 1K1", "--closed"
        )
        assert code == 0
        groups = doc["result"]["closed"]["groups"]
        ones = [g for g in groups if g["value"] == 1.0]
        assert len(ones) == 1
        assert ones[0]["multiplicity"] == 2
        assert ones[0]["sources"] == ["1", "3+2cos(π)"]

    def test_parse_error(self, capsys):
        code, doc, err = run_json(capsys, "spectrum", "K1 v Q9")
        assert code == 2
        assert doc["status"] == "error"
        assert doc["result"] is None
        assert "unknown term 'Q9' at position 6" in doc["error"]
        assert "qcones:" in err

    def test_closed_route_answers_any_cone(self, capsys):
        code, doc, _ = run_json(capsys, "spectrum", "K1 v P5 + 1K1", "--closed")
        assert code == 0
        closed = doc["result"]["closed"]
        _, doc, _ = run_json(capsys, "spectrum", "K1 v P5 + 1K1", "--numeric")
        numeric = doc["result"]["numeric"]["values"]
        # payloads carry 12 significant digits
        assert max(abs(a - b) for a, b in zip(closed["values"], numeric)) <= 1e-10
        assert len(closed["sources"]) == 7

    def test_closed_route_needs_a_cone(self, capsys):
        code, doc, _ = run_json(
            capsys, "spectrum", encode_graph6(cycle_graph(5)), "--closed"
        )
        assert code == 2
        assert doc["error"] == "closed form needs a cone spec input"

    def test_both_routes_on_a_digon_cone(self, capsys):
        code, doc, _ = run_json(capsys, "spectrum", "K1 v C2 + K2 + K1", "--both")
        assert code == 0
        assert doc["result"]["distance"] <= 1e-12

    def test_numeric_route_accepts_graph6(self, capsys):
        code, doc, _ = run_json(capsys, "spectrum", "Bw", "--numeric")
        assert code == 0
        assert doc["result"]["numeric"]["values"] == [4.0, 1.0, 1.0]

    def test_numeric_route_accepts_the_graph6_header(self, capsys):
        # the optional header holds the digit 6, which spec text also holds
        code, doc, _ = run_json(capsys, "spectrum", ">>graph6<<Bw", "--numeric")
        assert code == 0
        assert doc["result"]["n"] == 3
        assert doc["result"]["numeric"]["values"] == [4.0, 1.0, 1.0]

    def test_non_ascii_graph6_rejected(self, capsys):
        # "é" once decoded as "?" (six zero bits), so "Bé" answered as 3K1
        code, out, err = run_cli(capsys, "spectrum", "Bé", "--numeric")
        assert code == 2
        assert '"input": "B\\u00e9"' in out
        doc = json.loads(out)
        assert doc["status"] == "error" and doc["result"] is None
        assert doc["error"] == (
            "input is neither a cone spec (unknown term 'Bé' at position 1) "
            "nor graph6 (graph6 byte out of printable range)"
        )
        assert "qcones:" in err

    @pytest.mark.parametrize("text", [
        "K1 v C\u0663 + K2 + K1",  # an Arabic-Indic 3
        "K1 v C\uff13 + K2 + K1",  # a fullwidth 3
        "K1 v C3 +\u00a0K2 + K1",  # a no-break space
        "K1\u2003v C3 + K2 + K1",  # an em space
        "Bw\u00a0",  # graph6 of K3 and a no-break space
        "\u2003Bw",
        "C" + "\u0660" * 5 + "3",  # once read as a 6-digit number
        # the ASCII separators \x1c-\x1f, which str.isspace() accepts
        "K1 v C3\x1f+ K2 + K1",
        "\x1cK1 v C3 + K2 + K1",
        "Bw\x1d",
        "\x1eBw",
    ])
    def test_non_ascii_and_control_characters_rejected(self, capsys, text):
        # each once answered with exit 0, the Arabic-Indic digits with exit 5
        code, doc, _ = run_json(capsys, "spectrum", text)
        assert (code, doc["status"], doc["result"]) == (2, "error", None)
        with pytest.raises(FormatError, match="unknown term"):
            parse_spec_text(text)
        with pytest.raises(FormatError, match="out of printable range"):
            decode_graph6(text)

    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", FLAGSHIP_TEXT, "--both", "--format", "csv"
        )
        assert code == 0
        assert out == GOLDEN_SPECTRUM_CSV

    @pytest.mark.parametrize(
        "mode, golden", [("--numeric", GOLDEN_NUMERIC_CSV), ("--closed", GOLDEN_CLOSED_CSV)]
    )
    def test_single_route_csv_golden(self, capsys, mode, golden):
        code, out, _ = run_cli(capsys, "spectrum", FLAGSHIP_TEXT, mode, "--format", "csv")
        assert code == 0
        assert out == golden

    def test_tied_values_list_the_constant_first(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "K1 v C4 + 2K2 + K1", "--closed", "--format", "csv"
        )
        assert code == 0
        assert out == GOLDEN_TIED_CSV

    def test_closed_route_builds_no_matrix(self, capsys, monkeypatch):
        monkeypatch.setattr("qcones.cli.realize", _no_realize)
        code, doc, _ = run_json(capsys, "spectrum", "K1 v C300 + 2K2 + K1", "--closed")
        assert code == 0
        assert doc["result"]["n"] == 306

    def test_both_routes_agree_at_n47(self, capsys):
        # the plane-rotation solver did not converge on this F-family cone
        text = "K1 v K13 + C6 + C6 + C4 + C4 + C4 + 5K2 + 8K1"
        code, doc, _ = run_json(capsys, "spectrum", text, "--both")
        assert code == 0
        assert doc["result"]["n"] == 47
        assert doc["result"]["distance"] <= doc["result"]["tolerance"]

    def test_semidefinite_check_ignores_the_group_tolerance(self, capsys):
        # the claw's zero eigenvalue comes out of LAPACK slightly negative
        runs = [
            run_json(capsys, "spectrum", "K1 v 3K1", "--group-tol", tol) for tol in ("0", "1e-9")
        ]
        assert [code for code, _, _ in runs] == [0, 0]
        (_, loose, _), (_, default, _) = runs
        for route in ("closed", "numeric"):
            assert loose["result"][route]["values"] == default["result"][route]["values"]

    def test_semidefinite_check_survives_a_huge_group_tolerance(self, capsys, monkeypatch):
        monkeypatch.setattr("qcones.eigen._eigvalsh", lambda a: np.full(a.shape[:-1], -1e-6))
        code, doc, _ = run_json(
            capsys, "spectrum", FLAGSHIP_TEXT, "--numeric", "--group-tol", "1e300"
        )
        assert (code, doc["status"]) == (6, "internal")
        assert doc["error"] == "negative value -1e-06 in a degree-plus-adjacency spectrum"

    @pytest.mark.parametrize("text", [FLAGSHIP_TEXT, "K1 v C2 + P6 + K13 + K1"])
    def test_closed_route_checks_semidefiniteness(self, capsys, monkeypatch, text):
        # the main-part quotient is solved on the checked Q path too
        monkeypatch.setattr("qcones.eigen._eigvalsh", lambda a: np.full(a.shape[:-1], -1e-6))
        code, doc, _ = run_json(capsys, "spectrum", text, "--closed")
        assert (code, doc["status"], doc["result"]) == (6, "internal", None)
        assert doc["error"] == "negative value -1e-06 in a degree-plus-adjacency spectrum"

    @pytest.mark.parametrize("text", ["K1 v C999999999", "K1 v 999999999K1"])
    def test_order_capped_before_allocation(self, capsys, text):
        code, doc, _ = run_json(capsys, "spectrum", text)
        assert code == 5
        assert doc["status"] == "scale"

    @pytest.mark.parametrize(
        "argv", [("spectrum", "--closed"), ("moments",), ("moments", "--from", "counts")]
    )
    def test_order_capped_on_routes_without_a_matrix(self, capsys, argv):
        code, doc, _ = run_json(capsys, argv[0], "K1 v C5000", *argv[1:])
        assert code == 5
        assert doc["status"] == "scale"

    @pytest.mark.parametrize("term", ["C{}", "P{}", "{}K2", "{}K1"])
    def test_numbers_past_the_int_digit_limit(self, capsys, term):
        # int() raises a plain ValueError beyond 4300 digits
        code, doc, _ = run_json(capsys, "spectrum", "K1 v " + term.format("1" * 5000))
        assert code == 5
        assert doc["status"] == "scale"


def _grouped_specs(count=24):
    """Seeded cones with digons, 0-2 claws, and a value of multiplicity 8
    or more (many K2s, K1s or C4s); every third has a path of 100 to 120
    vertices, whose values near 1 lie under 1e-3 apart."""
    rng = random.Random(20261022)
    specs = []
    while len(specs) < count:
        cycles = [rng.choice((2, 2, 3, 4, 5, 6, 8)) for _ in range(rng.randint(0, 3))]
        paths = [rng.choice((1, 2, 3, 5)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 1 / 3:
            cycles += [4] * rng.randint(4, 6)
        else:
            paths += [rng.choice((1, 2))] * rng.randint(8, 14)
        if len(specs) % 3 == 0:
            paths.append(rng.choice((100, 110, 120)))
        spec = ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=rng.randint(0, 2))
        if spec not in specs:
            specs.append(spec)
    return specs


GROUPED_SPECS = _grouped_specs()


class TestPrintedGroups:
    """The `groups` that `spectrum --both` prints for each route, against
    the `eager_groups` oracle on the unrounded spectrum: value bits after
    the 12-digit rounding, multiplicities and tags."""

    def test_grid_covers_digons_claws_and_large_groups(self):
        assert sum(spec.has_digon() for spec in GROUPED_SPECS) >= 5
        assert {spec.stars13 for spec in GROUPED_SPECS} == {0, 1, 2}
        merged = 0
        for spec in GROUPED_SPECS:
            values = closed_spectrum(spec).values.tolist()
            groups = eager_groups(values, 1e-9)
            assert max(g.multiplicity for g in groups) >= 8, spec
            merged += len(eager_groups(values, 1e-3)) < len(groups)
        assert merged >= 5

    @pytest.mark.parametrize("group_tol", ["0", "1e-9", "1e-3"])
    def test_groups_match_the_oracle(self, capsys, group_tol):
        for spec in GROUPED_SPECS:
            code, doc, _ = run_json(
                capsys, "spectrum", format_spec_text(spec), "--both", "--group-tol", group_tol
            )
            assert code == 0
            routes = {"closed": closed_spectrum(spec), "numeric": q_spectrum(realize(spec))}
            for route, s in routes.items():
                want = [
                    (float(f"{g.value:.12g}").hex(), g.multiplicity, list(g.sources))
                    for g in eager_groups(s.values.tolist(), float(group_tol), s.sources)
                ]
                got = [(g["value"].hex(), g["multiplicity"], g.get("sources", []))
                       for g in doc["result"][route]["groups"]]
                assert got == want, (spec, route)


class TestMomentsCommand:
    def test_flagship_counts(self, capsys):
        code, doc, _ = run_json(capsys, "moments", FLAGSHIP_TEXT)
        assert code == 0
        assert doc["result"]["counts_moments"] == {
            "t1": 20,
            "t2": 92,
            "t3": 560,
            "t4": 3876,
            "s4": 148,
        }

    def test_k3_both_routes(self, capsys):
        code, doc, _ = run_json(capsys, "moments", "Bw", "--from", "both")
        assert code == 0
        assert doc["result"]["counts_moments"]["t3"] == 66
        assert doc["result"]["relative_discrepancy"] <= 1e-13

    def test_counts_csv_golden(self, capsys):
        code, out, _ = run_cli(capsys, "moments", FLAGSHIP_TEXT, "--from", "counts", "--format", "csv")
        assert code == 0
        assert out == GOLDEN_COUNTS_CSV

    def test_spectrum_csv_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", FLAGSHIP_TEXT, "--from", "spectrum", "--format", "csv"
        )
        assert code == 0
        # the spectra's power sums print as the exact counts at 12 digits
        assert out == GOLDEN_COUNTS_CSV

    def test_counts_from_spec_text_build_no_matrix(self, capsys, monkeypatch):
        monkeypatch.setattr("qcones.cli.realize", _no_realize)
        code, doc, _ = run_json(capsys, "moments", "K1 v C4000 + P90", "--from", "counts")
        assert code == 0
        assert doc["result"]["n"] == 4091
        assert doc["result"]["counts_moments"]["t1"] == 2 * (4000 + 89 + 4090)

    def test_k3_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "Bw", "--from", "both", "--format", "csv"
        )
        assert code == 0
        assert out == GOLDEN_K3_MOMENTS_CSV

    def test_cone_beyond_the_brute_count_cap(self, capsys):
        text = "K1 v C4 + P40 + K13 + P30 + 3K2 + 15K1"
        code, doc, _ = run_json(capsys, "moments", text, "--from", "both")
        assert code == 0
        assert doc["result"]["n"] == 100
        assert doc["result"]["relative_discrepancy"] <= MOMENT_REL_TOL

    def test_graph6_cone_matches_spec_text(self, capsys):
        # a recognized graph6 cone (graph6 stops at n = 62) takes the closed form too
        text = "K1 v C4 + P30 + K13 + 3K2 + 5K1"
        _, doc, _ = run_json(capsys, "moments", text)
        code, g6_doc, _ = run_json(capsys, "moments", encode_graph6(realize(parse_spec_text(text))))
        assert code == 0
        assert g6_doc["result"]["spec"] == doc["result"]["spec"]
        assert g6_doc["result"]["counts_moments"] == doc["result"]["counts_moments"]

    def test_multigraph_rejected(self, capsys):
        code, doc, _ = run_json(capsys, "moments", "K1 v C2 + 1K1")
        assert code == 2
        assert doc["status"] == "error"

    @pytest.mark.parametrize("source", ["counts", "spectrum", "both"])
    def test_multigraph_rejected_on_every_route(self, capsys, source):
        code, doc, _ = run_json(capsys, "moments", "K1 v C2 + 1K1", "--from", source)
        assert code == 2
        assert doc["error"] == "moment identities are defined for simple graphs only"

    def test_empty_spec_rejected(self, capsys):
        code, doc, _ = run_json(capsys, "moments", "K1 v")
        assert code == 2


class TestMateCommand:
    def test_triangle_swap(self, capsys):
        code, doc, _ = run_json(
            capsys, "mate", FLAGSHIP_TEXT, "--theorem", "13"
        )
        assert code == 0
        result = doc["result"]
        assert result["mate"] == "K1 v K13 + 1K2"
        assert result["distance"] <= 1e-13
        assert result["cospectral_within_tolerance"] is True
        assert result["moment_delta"] == {
            "t1": 0,
            "t2": 0,
            "t3": 0,
            "t4": 0,
            "s4": 0,
        }
        assert len(result["spectra"]["mate"]["values"]) == 7

    def test_triangle_swap_at_the_count_cap(self, capsys):
        # n = 64: both realized graphs are still counted for the moment shift
        code, doc, _ = run_json(
            capsys, "mate", "K1 v C55 + C3 + 2K2 + K1", "--theorem", "13"
        )
        assert code == 0
        delta = doc["result"]["moment_delta"]
        assert [delta[k] for k in ("t1", "t2", "t3", "t4")] == [0, 0, 0, 0]
        assert doc["result"]["cospectral_within_tolerance"] is True

    def test_triangle_swap_above_the_count_cap(self, capsys):
        text = "K1 v C56 + C3 + 2K2 + K1"
        code, doc, err = run_json(capsys, "mate", text, "--theorem", "13")
        assert code == 5
        assert doc == {
            "command": "mate",
            "input": text,
            "params": {"theorem": "13", "tol": 1e-08},
            "result": None,
            "status": "scale",
            "error": "common-neighbour counting capped at n <= 64",
        }
        assert err == "qcones: common-neighbour counting capped at n <= 64\n"

    def test_even_cycle_candidate(self, capsys):
        code, doc, _ = run_json(
            capsys, "mate", "K1 v C6 + 2K2 + 1K1", "--theorem", "11"
        )
        assert code == 0
        result = doc["result"]
        assert result["candidate"] == "K1 v C4 + P3 + P3 + 1K1"
        assert result["delta_s4"] == 8
        assert result["delta_t4"] == 0
        assert result["distance"] == 0.831308314671
        assert result["cospectral_within_tolerance"] is False

    def test_inapplicable(self, capsys):
        code, doc, _ = run_json(
            capsys, "mate", "K1 v C4 + 1K2 + 1K1", "--theorem", "13"
        )
        assert code == 4
        assert doc["status"] == "inapplicable"

    def test_unknown_theorem(self, capsys):
        code, doc, _ = run_json(capsys, "mate", FLAGSHIP_TEXT, "--theorem", "12")
        assert code == 2

    def test_construction_error_is_an_internal_error(self, capsys, monkeypatch):
        # a T4 shift of 8 trips the construction's own residual check
        monkeypatch.setattr(
            "qcones.cones.moments_closed_form",
            lambda spec: MomentVector(0, 0, 0, 8 * (4 in spec.cycles), 8 * (4 in spec.cycles)),
        )
        code, doc, err = run_json(capsys, "mate", "K1 v C6 + 2K2 + 1K1", "--theorem", "11")
        assert code == 6
        assert doc["status"] == "internal"
        assert doc["result"] is None
        assert doc["error"] == "candidate moment shift 8 should be zero"
        assert "Traceback" not in err

    def test_even_cycle_candidate_computes_each_piece_once(self, capsys, monkeypatch):
        import qcones.cli
        import qcones.cones

        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # cones builds the candidate as a spec: it binds neither realize nor
        # q_spectrum, so every graph and spectrum comes from the cli
        counted(qcones.cli, "realize")
        counted(qcones.cli, "q_spectrum")
        counted(qcones.cones, "moments_closed_form")
        code, doc, _ = run_json(capsys, "mate", "K1 v C8 + 3K2 + 2K1", "--theorem", "11")
        assert code == 0
        assert doc["result"]["candidate"] == "K1 v C4 + P5 + P3 + 1K2 + 2K1"
        assert calls == {"realize": 2, "q_spectrum": 2, "moments_closed_form": 2}

    @pytest.mark.parametrize("text, theorem, code", [
        ("K1 v C4 + 1K2 + 1K1", "13", 4),
        ("K1 v C4000 + 40K2 + 14K1", "13", 4),
        ("K1 v C5 + 2K2 + 1K1", "11", 4),
        ("K1 v C3999 + 40K2 + 15K1", "11", 4),
        ("K1 v C56 + C3 + 2K2 + K1", "13", 5),
        ("K1 v C3 + C3990 + 40K2 + 14K1", "13", 5),
    ])
    def test_refusals_come_before_any_eigensolve(self, capsys, monkeypatch, text, theorem, code):
        def no_solve(graph):
            raise AssertionError("the command solved a spectrum")

        monkeypatch.setattr("qcones.cli.q_spectrum", no_solve)
        # the construction and theorem 13's count cap are checked on the
        # spec, before any matrix is built
        monkeypatch.setattr("qcones.cli.realize", _no_realize)
        got, doc, err = run_json(capsys, "mate", text, "--theorem", theorem)
        assert got == code
        assert doc["status"] == ("inapplicable" if code == 4 else "scale")
        if code == 5:
            assert err == "qcones: common-neighbour counting capped at n <= 64\n"


class TestLapackFailure:
    """A LAPACK failure is an internal error: exit 6, a JSON document, no traceback."""

    @pytest.fixture(autouse=True)
    def broken_lapack(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)

    @pytest.mark.parametrize("argv", [
        ("spectrum", FLAGSHIP_TEXT, "--numeric"),
        ("spectrum", FLAGSHIP_TEXT, "--closed"),
        ("search", FLAGSHIP_TEXT, "--exhaustive"),
    ])
    def test_exits_6(self, capsys, argv):
        code, doc, err = run_json(capsys, *argv)
        assert code == 6
        assert doc["status"] == "internal"
        assert doc["result"] is None
        assert "LAPACK eigensolver failed" in doc["error"]
        assert "Traceback" not in err


class TestSearchCommand:
    def test_family_unique(self, capsys):
        code, doc, _ = run_json(
            capsys, "search", "K1 v C5 + C7 + 1K2 + 1K1", "--family"
        )
        assert code == 0
        result = doc["result"]
        assert result["mode"] == "family"
        assert result["classes"] == 1
        assert result["cardinality"] == 35
        assert result["hits"][0]["spec"] == "K1 v C7 + C5 + 1K2 + 1K1"
        assert result["hits"][0]["isomorphic"] is True

    def test_exhaustive_flagship(self, capsys):
        code, doc, _ = run_json(capsys, "search", FLAGSHIP_TEXT, "--exhaustive")
        assert code == 0
        result = doc["result"]
        assert result["classes"] == 2
        assert result["cardinality"] == 1 << 21
        assert {h["graph6"] for h in result["hits"]} == {"FtnC?", "FtrE?"}
        mates = [h for h in result["hits"] if not h["isomorphic"]]
        assert len(mates) == 1
        assert mates[0]["degree_sequence"] == [2, 2, 2, 2, 2, 4, 6]

    def test_jobs_change_nothing(self, capsys):
        _, serial, _ = run_cli(capsys, "search", FLAGSHIP_TEXT, "--exhaustive")
        _, parallel, _ = run_cli(
            capsys, "search", FLAGSHIP_TEXT, "--exhaustive", "--jobs", "3"
        )
        assert serial == parallel

    def test_jobs_below_one_rejected(self, capsys):
        code, doc, _ = run_json(
            capsys, "search", FLAGSHIP_TEXT, "--exhaustive", "--jobs", "0"
        )
        assert code == 2
        assert doc == {
            "command": "search",
            "input": FLAGSHIP_TEXT,
            "params": {"mode": "exhaustive", "tol": 1e-08},
            "result": None,
            "status": "error",
            "error": "--jobs must be >= 1",
        }

    @pytest.mark.parametrize("text", ["K1 v C6 + 2K2 + 1K1", "K1 v C4000 + 40K2 + 14K1"])
    def test_scale_cap(self, capsys, monkeypatch, text):
        # the order is read off the spec before any matrix is built
        monkeypatch.setattr("qcones.cli.realize", _no_realize)
        monkeypatch.setattr("qcones.search.realize", _no_realize)
        code, doc, _ = run_json(capsys, "search", text, "--exhaustive")
        assert code == 5
        assert doc["status"] == "scale"

    def test_family_order_capped_before_enumeration(self, capsys):
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "search", "K1 v C70 + 2K2 + K1", "--family")
        assert time.perf_counter() - start < 1.0
        assert code == 5
        assert doc["status"] == "scale"

    def test_family_needs_spec(self, capsys):
        # C5 has no apex vertex, so no cone spec can be recovered.
        code, doc, _ = run_json(
            capsys, "search", encode_graph6(cycle_graph(5)), "--family"
        )
        assert code == 2


class TestProbeCommand:
    def test_cone_interlacing(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", FLAGSHIP_TEXT, "--lemma", "2.3"
        )
        assert code == 0
        assert doc["result"]["status"] == "pass"

    def test_graph6_nullity(self, capsys):
        text = encode_graph6(disjoint_union([cycle_graph(4), cycle_graph(3)]))
        code, doc, _ = run_json(capsys, "probe", text, "--lemma", "2.4")
        assert code == 0
        assert doc["result"]["status"] == "pass"

    def test_unknown_lemma(self, capsys):
        code, doc, _ = run_json(capsys, "probe", FLAGSHIP_TEXT, "--lemma", "9.9")
        assert code == 2

    def test_skip_reports_ok(self, capsys):
        code, doc, _ = run_json(capsys, "probe", FLAGSHIP_TEXT, "--lemma", "5.1")
        assert code == 0
        assert doc["result"]["status"] == "skipped"

    def test_path_versus_cycle_gap_below_margin_is_skipped(self, capsys):
        # the P11 -> C3 + P8 rewiring beats the path by about 1.2e-10
        code, doc, _ = run_json(capsys, "probe", "K1 v P11 + K2 + K1", "--lemma", "5.1")
        assert code == 0
        assert doc["result"]["status"] == "skipped"
        assert doc["result"]["witness"] is None

    def test_edge_deletion_over_budget(self, capsys):
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "probe", "K1 v C400 + K2 + K1", "--lemma", "2.2")
        assert time.perf_counter() - start < 1.0
        assert code == 5
        assert doc["status"] == "scale"

    def test_path_versus_cycle_at_n47(self, capsys):
        text = "K1 v K13 + C6 + C6 + C4 + C4 + P6 + 4K2 + 8K1"
        code, doc, _ = run_json(capsys, "probe", text, "--lemma", "5.1")
        assert code == 0
        assert doc["result"]["status"] == "pass"


@pytest.mark.parametrize(
    "argv, params",
    [
        (("spectrum", FLAGSHIP_TEXT),
         {"mode": "both", "tol": 1e-08, "group_tol": 1e-09, "format": "json"}),
        (("spectrum", FLAGSHIP_TEXT, "--numeric", "--tol", "1e-6", "--group-tol", "1e-7"),
         {"mode": "numeric", "tol": 1e-06, "group_tol": 1e-07, "format": "json"}),
        (("moments", FLAGSHIP_TEXT, "--from", "both"), {"from": "both", "format": "json"}),
        (("mate", FLAGSHIP_TEXT, "--theorem", "13"), {"theorem": "13", "tol": 1e-08}),
        (("search", FLAGSHIP_TEXT, "--family"), {"mode": "family", "tol": 1e-08}),
        (("search", FLAGSHIP_TEXT, "--exhaustive", "--tol", "1e-6"),
         {"mode": "exhaustive", "tol": 1e-06}),
        (("probe", FLAGSHIP_TEXT, "--lemma", "2.4"), {"lemma": "2.4"}),
    ],
    ids=["spectrum-default", "spectrum-numeric", "moments", "mate", "search-family",
         "search-exhaustive", "probe"],
)
def test_params_golden(capsys, argv, params):
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["params"] == params


def test_one_process_runs_many_commands(capsys):
    # the parser is shared across calls; no mode may carry over
    modes = []
    for argv in (("spectrum", FLAGSHIP_TEXT, "--closed"), ("spectrum", FLAGSHIP_TEXT),
                 ("search", FLAGSHIP_TEXT, "--family")):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        modes.append(doc["params"]["mode"])
    assert modes == ["closed", "both", "family"]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", FLAGSHIP_TEXT, "--tol"),
        ("spectrum", FLAGSHIP_TEXT, "--group-tol"),
        ("mate", FLAGSHIP_TEXT, "--theorem", "13", "--tol"),
        ("search", FLAGSHIP_TEXT, "--family", "--tol"),
    ],
    ids=["spectrum-tol", "spectrum-group-tol", "mate-tol", "search-tol"],
)
def test_bad_tolerance_rejected(capsys, argv, value):
    code, out, _ = run_cli(capsys, *argv, value)
    # a NaN or Infinity token would make the document invalid JSON
    doc = json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in output"))
    assert code == 2
    assert doc["status"] == "error"
    assert "must be finite and >= 0" in doc["error"]


class _Parsed(Exception):
    """Raised in place of the first step after `main`'s parse."""


def _parse_outcome(capsys, parse, argv):
    """A parse's namespace as a dict, or the exit code, stdout and stderr
    of a parse that exits."""
    try:
        return vars(parse(list(argv)))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        (), ("-h",), ("--help",), ("-h", "spectrum"), ("--", "spectrum", FLAGSHIP_TEXT),
        ("bogus",), ("Spectrum",), ("spec",),
        ("spectrum", "-h"), ("spectrum", FLAGSHIP_TEXT, "-h"), ("search", "--help"),
        ("spectrum", FLAGSHIP_TEXT), ("moments", FLAGSHIP_TEXT, "--from", "both"),
        ("mate", FLAGSHIP_TEXT, "--theorem", "11"), ("probe", FLAGSHIP_TEXT, "--lemma", "2.4"),
        ("search", FLAGSHIP_TEXT, "--exhaustive", "--jobs", "2"),
        ("spectrum", FLAGSHIP_TEXT, "extra"), ("spectrum", FLAGSHIP_TEXT, "a", "--b"),
        ("probe", FLAGSHIP_TEXT, "--lemma", "2.4", "--bogus", "x"),
        ("spectrum", FLAGSHIP_TEXT, "--numeric", "--closed"),
        ("search", FLAGSHIP_TEXT, "--family", "--exhaustive"), ("search", FLAGSHIP_TEXT),
        ("spectrum", FLAGSHIP_TEXT, "--tol=1e-3"), ("spectrum", FLAGSHIP_TEXT, "--to", "1e-3"),
        ("mate", FLAGSHIP_TEXT, "--the", "13"),
        ("spectrum", "--", "X"), ("spectrum", FLAGSHIP_TEXT, "--tol", "-1"),
        ("spectrum",), ("mate", FLAGSHIP_TEXT),
        ("search", FLAGSHIP_TEXT, "--exhaustive", "--jobs", "x"),
        ("moments", FLAGSHIP_TEXT, "--from", "nope"),
    ],
    ids=repr,
)
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    # the same namespace, or the same exit, help text and error message
    def stop(args):
        raise _Parsed(args)

    def parse_in_main(argv):
        with pytest.raises(_Parsed) as parsed:
            main(argv)
        return parsed.value.args[0]

    monkeypatch.setattr(cli, "_check_tolerances", stop)
    want = _parse_outcome(capsys, cli._PARSER.parse_args, argv)
    assert _parse_outcome(capsys, parse_in_main, argv) == want


def test_a_command_is_parsed_once(capsys, monkeypatch):
    # a known command goes to its subparser alone: no top-level pass
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
    code, doc, _ = run_json(capsys, "spectrum", FLAGSHIP_TEXT, "--numeric")
    assert code == 0 and doc["params"]["mode"] == "numeric"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-c", "from qcones.cli import main; raise SystemExit(main())",
         "moments", FLAGSHIP_TEXT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["counts_moments"]["t1"] == 20


def test_module_entry_point_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qcones.cli",
         "spectrum", "K1 v C3 + K2 + K1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_import_builds_no_exhaustive_table():
    # the relabelling, class and moment tables cost about 0.15 s at n = 8;
    # only an exhaustive search of that order may pay for them (and only a
    # graph6 call for the codec's pair index of its order)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qcones, qcones.cli\n"
         "from qcones.orbits import _classes, _extension_moments, _image_bits\n"
         "from qcones.graph6 import _pair_index\n"
         "assert _image_bits.cache_info().currsize == 0\n"
         "assert _classes.cache_info().currsize == 0\n"
         "assert _extension_moments.cache_info().currsize == 0\n"
         "assert _pair_index.cache_info().currsize == 0\n"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_command_imports_a_module_after_the_cli():
    # a fresh interpreter, since another test may have loaded numpy.ma (which
    # np.unique pulls in, at 16-19 ms and 0.5-0.7 MB per process)
    probe_5_1 = "K1 v K13 + C6 + C6 + C4 + C4 + P6 + 4K2 + 8K1"
    calls = [
        (["spectrum", FLAGSHIP_TEXT, "--closed"], 0),
        (["spectrum", FLAGSHIP_TEXT, "--numeric"], 0),
        (["spectrum", FLAGSHIP_TEXT, "--both"], 0),
        (["spectrum", FLAGSHIP_TEXT, "--format", "csv"], 0),
        (["moments", FLAGSHIP_TEXT, "--from", "both"], 0),
        (["moments", encode_graph6(realize(parse_spec_text(FLAGSHIP_TEXT))), "--from", "both"], 0),
        (["mate", "K1 v C6 + 2K2 + 1K1", "--theorem", "11"], 0),
        (["mate", FLAGSHIP_TEXT, "--theorem", "13"], 0),
        (["search", FLAGSHIP_TEXT, "--family"], 0),
        (["search", "FT{GW", "--exhaustive"], 0),
        *((["probe", probe_5_1 if lemma == "5.1" else FLAGSHIP_TEXT, "--lemma", lemma], 0)
          for lemma in PROBE_IDS),
        (["spectrum", "K1 v C3 +"], 2),
    ]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, json, sys\n"
         "from qcones.cli import main\n"
         "before = set(sys.modules)\n"
         "for argv, want in json.loads(sys.argv[1]):\n"
         "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
         "        code = main(argv)\n"
         "    assert code == want, (argv, code)\n"
         "    gained = sorted(set(sys.modules) - before)\n"
         "    assert not gained, (argv, gained)\n",
         json.dumps(calls)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def large_cones(*orders):
    """A G and an F cone of each order; past n = 512 adjacent floats near
    the largest quartic root lie more than 1e-13 apart."""
    return [
        text
        for n in orders
        for text in (f"K1 v C{n - 6} + 2K2 + K1", f"K1 v K13 + C{n - 10} + 2K2 + K1")
    ]


def run_module(args, timeout):
    """Run `python -m qcones.cli` under a time bound; TimeoutExpired fails the test."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qcones.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc, time.perf_counter() - start


class TestLargeSpectra:
    @pytest.mark.parametrize("text", large_cones(520, 1024, 4096))
    def test_closed_finishes_in_two_seconds(self, text):
        proc, elapsed = run_module(["spectrum", text, "--closed"], timeout=2.0)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["result"]["closed"]["values"]) == doc["result"]["n"]
        assert elapsed < 2.0

    @pytest.mark.parametrize("text", large_cones(520, 1024))
    def test_both_modes_agree(self, text):
        proc, _ = run_module(["spectrum", text], timeout=20.0)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["distance"] <= 1e-8
