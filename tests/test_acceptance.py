"""Acceptance gate: one test per shipped claim, pinned tolerances throughout.

Each criterion below prints exactly one pass/fail line under `pytest -v`.
Sampling is seeded, so every run exercises the same grid.
"""

import random
import time

import numpy as np

from qcones import (
    ConeSpec,
    closed_spectrum,
    degree_profile,
    even_cycle_split_candidate,
    largest_q_eigenvalue,
    moments_closed_form,
    moments_from_counts,
    moments_from_spectrum,
    q_spectrum,
    realize,
    run_probe,
    search_exhaustive,
    search_family,
    spectrum_compare,
    sym_eigenvalues,
    triangle_star_mate,
)

from helpers import (
    CHUNK_SIZES,
    brute_search_family,
    cone_traces,
    exact_q_and_a_traces,
    g_family_spec,
    is_f_family,
    isomorphic,
    quartic_coeffs,
    quartic_roots,
    random_graph,
    set_chunk,
    slices_union,
)

SEED = 20260819
COSPECTRAL_TOL = 1e-8
MOMENT_REL_TOL = 1e-7
SPREAD_TOL = 1e-9

FLAGSHIP = g_family_spec([3], 1, 1)


def _g_family_grid(count=220):
    rng = random.Random(SEED)
    seen = []
    while len(seen) < count:
        t = rng.randint(1, 3)
        cycles = [rng.randint(3, 12) for _ in range(t)]
        spec = g_family_spec(cycles, rng.randint(1, 4), rng.randint(1, 4))
        if 7 <= spec.n <= 60 and spec not in seen:
            seen.append(spec)
    return seen


def _f_family_grid(count=220):
    rng = random.Random(SEED + 1)
    seen = []
    while len(seen) < count:
        cycles = [rng.randint(3, 12) for _ in range(rng.randint(0, 2))]
        paths = (2,) * rng.randint(1, 4) + (1,) * rng.randint(0, 3)
        spec = ConeSpec(cycles=tuple(cycles), paths=paths, stars13=1)
        if spec.n <= 60 and spec not in seen:
            seen.append(spec)
    return seen


G_GRID = _g_family_grid()
F_GRID = _f_family_grid()


def test_criterion_01_closed_g_spectra_match_numeric_grid():
    start = time.perf_counter()
    assert len(G_GRID) >= 200
    for spec in G_GRID:
        assert spec.is_g_family()
        dist = spectrum_compare(closed_spectrum(spec), q_spectrum(realize(spec)))
        assert dist <= COSPECTRAL_TOL, f"{spec} deviates by {dist}"
    assert time.perf_counter() - start <= 60.0


def test_criterion_02_closed_f_spectra_match_numeric_grid():
    start = time.perf_counter()
    assert len(F_GRID) >= 200
    for spec in F_GRID:
        assert is_f_family(spec)
        dist = spectrum_compare(closed_spectrum(spec), q_spectrum(realize(spec)))
        assert dist <= COSPECTRAL_TOL, f"{spec} deviates by {dist}"
    assert time.perf_counter() - start <= 60.0


def test_quotient_values_are_the_roots_of_the_papers_quartic():
    # the one-star family shares the quartic of its source, whose s is one larger
    tags = [f"quartic-{i}" for i in range(1, 5)]
    for spec in G_GRID + F_GRID:
        closed = closed_spectrum(spec)
        got = {tag: v for v, tag in zip(closed.values, closed.sources) if tag in tags}
        roots = quartic_roots(quartic_coeffs(spec.n, spec.q, spec.s + spec.stars13))
        assert sorted(got) == tags
        assert max(abs(got[tag] - r) for tag, r in zip(tags, roots)) <= 1e-12, spec


def test_criterion_03_triangle_star_mates_cospectral_non_isomorphic():
    mate = triangle_star_mate(FLAGSHIP)
    assert mate == ConeSpec(paths=(2,), stars13=1)
    exercised = 0
    for spec in [FLAGSHIP] + G_GRID:
        if 3 not in spec.cycles:
            continue
        mate = triangle_star_mate(spec)
        g, h = realize(spec), realize(mate)
        dist = spectrum_compare(q_spectrum(g), q_spectrum(h))
        assert dist <= COSPECTRAL_TOL, f"{spec} mate deviates by {dist}"
        assert sorted(g.degrees()) != sorted(h.degrees())
        exercised += 1
    assert exercised >= 20


def test_criterion_04_moment_identities_on_random_graphs():
    rng = random.Random(SEED + 2)
    assert moments_from_counts(realize(FLAGSHIP)) == (20, 92, 560, 3876, 148)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
        exact = moments_from_counts(g)
        spectral = moments_from_spectrum(
            q_spectrum(g), sym_eigenvalues(g.mult)
        )
        for a, b in zip(exact, spectral):
            assert abs(a - b) <= MOMENT_REL_TOL * max(1.0, abs(a))


def test_criterion_05_closed_moments_exact_on_grid():
    checked = 0
    for spec in G_GRID:
        if spec.n > 40:
            continue
        g = realize(spec)
        q, a = exact_q_and_a_traces(g, 4)
        assert moments_closed_form(spec) == moments_from_counts(g) == (*q, a[3])
        checked += 1
    assert checked >= 100


def test_family_search_matches_brute_path_on_grid():
    # the closed-form moment filter must keep exactly what brute counting kept
    checked = 0
    for spec in G_GRID:
        if spec.n > 24:
            continue
        assert search_family(spec) == brute_search_family(spec), spec
        checked += 1
    assert checked >= 100


def test_family_search_does_not_depend_on_chunk_size(monkeypatch):
    # one matrix, three matrices, then the default per batched eigensolve
    targets = [spec for spec in G_GRID if spec.n <= 24]
    reports = []
    for matrices in CHUNK_SIZES:
        reports.append([])
        for spec in targets:
            set_chunk(monkeypatch, matrices, spec.n)
            reports[-1].append(search_family(spec))
    assert reports[0] == reports[1] == reports[2]
    assert sum(len(r.hits) > 1 for r in reports[0]) > 0


def test_criterion_06_moment_shift_formulas_match_direct_differences():
    pairs = 0
    strict = 0
    for spec in G_GRID:
        if spec.n > 22:
            continue
        base = moments_from_counts(realize(spec))
        closed_base = moments_closed_form(spec)
        for cand in slices_union(degree_profile(spec))[:30]:
            if cand == spec:
                continue
            closed = moments_closed_form(cand)
            ds4, dt4 = closed.s4 - closed_base.s4, closed.t4 - closed_base.t4
            other = moments_from_counts(realize(cand))
            assert (other.s4 - base.s4, other.t4 - base.t4) == (ds4, dt4)
            assert other.t1 == base.t1 and other.t2 == base.t2
            pairs += 1
            if not cand.cycles:
                # pure-path rewiring of a cycle-bearing cone: strictly below
                assert dt4 < 0
                strict += 1
        if pairs >= 400:
            break
    assert pairs >= 100
    assert strict >= 10


def _partitions_into_blocks(total, min_part):
    if total == 0:
        yield ()
        return
    for part in range(min_part, total + 1):
        for rest in _partitions_into_blocks(total - part, part):
            yield (part,) + rest


def test_criterion_07_top_eigenvalue_invariant_under_redistribution():
    rng = random.Random(SEED + 3)
    seen = set()
    while len(seen) < 55:
        seen.add((rng.randint(1, 4), rng.randint(1, 4), rng.randint(4, 10)))
    for q, s, c in sorted(seen):
        members = [
            ConeSpec(cycles=parts, paths=(2,) * q + (1,) * s)
            for parts in _partitions_into_blocks(c, 2)
        ][:6]
        assert len(members) >= 2
        n = members[0].n
        closed = largest_q_eigenvalue(members[0])
        tops = []
        for member in members:
            assert largest_q_eigenvalue(member) == closed
            tops.append(float(q_spectrum(realize(member)).values[0]))
        assert max(tops) - min(tops) <= SPREAD_TOL
        assert abs(tops[0] - closed) <= COSPECTRAL_TOL
        assert n < closed < n + 2


def test_criterion_08_unit_eigenvalue_multiplicity_law():
    for spec in G_GRID:
        assert spec.is_g_family()
        even = sum(1 for k in spec.cycles if k % 2 == 0)
        expected = spec.s + spec.q - 1 + even
        assert closed_spectrum(spec).multiplicity_at(1.0) == expected


def test_criterion_09_structural_probes_never_fail():
    rng = random.Random(SEED + 4)
    applicable = 0
    failures = []

    def record(result):
        nonlocal applicable
        if result.status == "fail":
            failures.append(result)
        if result.status != "skipped":
            applicable += 1

    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
        record(run_probe(g, "2.2"))
        record(run_probe(g, "2.4"))
    for _ in range(80):
        cycles = [rng.randint(3, 8) for _ in range(rng.randint(0, 2))]
        paths = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        spec = ConeSpec(cycles=tuple(cycles), paths=paths)
        record(run_probe(realize(spec), "2.3"))
    for _ in range(60):
        spec = g_family_spec(
            [rng.randint(3, 4) for _ in range(rng.randint(2, 4))],
            rng.randint(1, 3),
            rng.randint(1, 3),
        )
        if spec.n >= 12:
            record(run_probe(realize(spec), "2.10"))
    for l in range(4, 21):
        for extra in ((2, 1), (2, 2, 1), (1, 1)):
            spec = ConeSpec(paths=(l,) + extra)
            record(run_probe(realize(spec), "5.1"))
    assert failures == []
    assert applicable >= 300


def test_criterion_10_exhaustive_search_finds_the_mate():
    start = time.perf_counter()
    report = search_exhaustive(realize(FLAGSHIP))
    elapsed = time.perf_counter() - start
    assert report.cardinality == 1 << 21
    assert len(report.hits) >= 2
    mate_graph = realize(triangle_star_mate(FLAGSHIP))
    assert any(
        isomorphic(h.candidate, mate_graph) for h in report.hits
    ), "theorem mate missing from exhaustive hits"
    assert elapsed <= 120.0


def _split_candidate_spec(k, q, s):
    return ConeSpec(cycles=(4,), paths=(k - 3, 3) + (2,) * (q - 2) + (1,) * s)


def _count_unit_interval(spectrum, tol: float = 1e-7) -> int:
    """Values in (0, 1]; within tol of an endpoint counts as on it."""
    return int(((spectrum.values > tol) & (spectrum.values <= 1.0 + tol)).sum())


def test_criterion_11_odd_cycle_exclusion_by_unit_interval_count():
    for k in (5, 7, 9):
        g_spec = g_family_spec([k], 2, 1)
        f_spec = _split_candidate_spec(k, 2, 1)
        g, f = realize(g_spec), realize(f_spec)
        assert sorted(g.degrees()) == sorted(f.degrees())
        m_g = _count_unit_interval(q_spectrum(g))
        m_f = _count_unit_interval(q_spectrum(f))
        assert m_g == g_spec.q + g_spec.s == 3
        assert m_f >= m_g + 1


def _t5(g) -> int:
    """tr(Q^5) in int64: exact for n <= 32, whose Q^5 entries stay below 62^5."""
    q = np.diag(g.degrees()) + g.mult
    return int(np.trace(np.linalg.matrix_power(q, 5)))


def test_criterion_12_even_cycle_candidate_matches_four_moments_not_the_fifth():
    checked = 0
    for k in range(6, 61, 2):
        for q in range(2, 7):
            for s in (1, 2, 3):
                g_spec = g_family_spec([k], q, s)
                candidate, _, _ = even_cycle_split_candidate(g_spec)
                assert candidate == _split_candidate_spec(k, q, s)
                tg, tc = cone_traces(g_spec, 5)[0], cone_traces(candidate, 5)[0]
                assert tg[:4] == tc[:4], (k, q, s)
                # T5 tells them apart, so the candidate is no cospectral mate
                assert tc[4] - tg[4] == -80, (k, q, s)
                dist = spectrum_compare(q_spectrum(realize(g_spec)), q_spectrum(realize(candidate)))
                assert dist > COSPECTRAL_TOL, (k, q, s, dist)
                checked += 1
    assert checked == 420
    # the dense route on the grid where int64 powers and the counts are exact
    for k in (6, 8, 10, 12, 20):
        for q, s in ((2, 1), (3, 1), (2, 2), (4, 3)):
            g_spec = g_family_spec([k], q, s)
            candidate, _, _ = even_cycle_split_candidate(g_spec)
            g, c = realize(g_spec), realize(candidate)
            mg, mc = moments_from_counts(g), moments_from_counts(c)
            assert (mg.t1, mg.t2, mg.t3, mg.t4) == (mc.t1, mc.t2, mc.t3, mc.t4)
            assert (_t5(g), _t5(c)) == (cone_traces(g_spec, 5)[0][4], cone_traces(candidate, 5)[0][4])
