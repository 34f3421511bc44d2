"""Family and exhaustive mate searches, isomorphism, recognition, probes."""

import itertools
import random
import time

import numpy as np
import pytest

from qcones import (
    ConeSpec,
    MultiGraph,
    ParameterError,
    QSpectrum,
    ScaleError,
    SearchHit,
    SearchReport,
    components_and_bipartiteness,
    encode_graph6,
    largest_q_eigenvalue,
    parse_spec_text,
    q_spectrum,
    realize,
    recognize_cone,
    run_probe,
    search_exhaustive,
    search_family,
    triangle_star_mate,
)
from qcones.eigen import q_matrix
from qcones.graph6 import decode_graph6
from qcones.graphs import _dominating_vertices
from qcones.family import _candidates, _family_size, _partitions, _profile, _signatures
from qcones import eigen, orbits, search
from qcones.orbits import (
    _KEY_BITS,
    _class_reps,
    _classes,
    _extension_moments,
    _moment_matches,
    _orbit,
    _q_stack,
)
from qcones.moments import moments_closed_form
from qcones.search import _power_traces, _spectra

from helpers import (
    CHUNK_SIZES,
    brute_search_exhaustive,
    brute_search_family,
    claw_level,
    complete_graph,
    cycle_graph,
    degree_profile,
    disjoint_union,
    enumerate_family_by_partitions,
    exact_q_and_a_traces,
    extension_masks,
    family_claw_counts,
    g_family_spec,
    isin_orbit_classes,
    edge_deleted,
    from_edges,
    isomorphic,
    mask_graph,
    pair_order,
    path_graph,
    permutation_bits,
    permutation_orbit,
    power_sum,
    qstack_scan,
    random_cone_spec,
    random_graph,
    set_chunk,
    slices_union,
    star_graph,
    vertex_deleted,
)

FLAGSHIP = g_family_spec([3], 1, 1)
# the n = 7 exhaustive benchmark panel: five cone shapes and one G(7, 1/2) draw
EXHAUSTIVE_PANEL = (
    ConeSpec(cycles=(3,), paths=(2, 1)),
    ConeSpec(cycles=(4,), paths=(2,)),
    ConeSpec(cycles=(6,)),
    ConeSpec(paths=(2, 2, 2)),
    ConeSpec(cycles=(3, 3)),
    "F@Foo",
)


def permuted(g: MultiGraph, rng) -> MultiGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    arr = np.zeros_like(g.mult)
    for u in range(g.n):
        for v in range(g.n):
            arr[perm[u], perm[v]] = g.mult[u, v]
    return MultiGraph(arr)


def graph_mask(g: MultiGraph) -> int:
    return sum(1 << e for e, (u, v) in enumerate(pair_order(g.n)) if g.mult[u, v])


def report_key(report):
    """Everything a SearchReport says, with hits by graph6 and exact distances."""
    hits = [(encode_graph6(h.candidate), h.distance, h.isomorphic) for h in report.hits]
    return hits, report.cardinality, report.exhaustive, report.tolerance


def t4_bound(g: MultiGraph) -> float:
    """1 / (4 n M^3), M = 2 max(n - 1, max degree of g): no simple graph on
    g's vertices whose tr(Q^4) differs from g's lies closer to its spectrum."""
    return 1 / (4 * g.n * (2 * max(g.n - 1, int(g.degrees().max()))) ** 3)


def trace4(q: np.ndarray) -> np.ndarray:
    """tr(Q^4) of each integer matrix of a stack, by integer matrix powers."""
    return np.trace(np.linalg.matrix_power(q, 4), axis1=-2, axis2=-1)


def t4_band(g: MultiGraph, tol: float) -> float:
    """The widest |tr(Q^4)| gap to g that the exhaustive search eigensolves:
    4 n M^3 (tol + solver error), under 1 exactly when tol + solver error <
    `t4_bound(g)`."""
    return (tol + search._SOLVER_ERROR) / t4_bound(g)


# 1 / (4 * 8 * 14^3), the T4 bound of every simple graph on 8 vertices
ORDER_EIGHT_BOUND = 1 / 87808


class TestPartitions:
    def test_min_part(self):
        assert list(_partitions(6, min_part=3)) == [(6,), (3, 3)]

    def test_zero(self):
        assert list(_partitions(0)) == [()]

    def test_max_parts(self):
        assert list(_partitions(4, 1, None, 2)) == [(4,), (3, 1), (2, 2)]

    def test_covers_all(self):
        assert len(list(_partitions(7))) == 15  # p(7)


def naive_partitions(total, min_part):
    if total == 0:
        yield ()
        return
    for part in range(min_part, total + 1):
        for rest in naive_partitions(total - part, part):
            yield (part,) + rest


def swap_closure(spec: ConeSpec) -> set[ConeSpec]:
    """The spec and every cone that C3 + K1 <-> K13 swaps reach from it:
    j claws for j = 0..min(#C3 + #claws, #K1 + #claws), the rest C3s."""
    others = tuple(k for k in spec.cycles if k != 3)
    rest = tuple(l for l in spec.paths if l != 1)
    triangles = spec.cycles.count(3) + spec.stars13
    isolated = spec.paths.count(1) + spec.stars13
    return {
        ConeSpec(others + (3,) * (triangles - j), rest + (1,) * (isolated - j), j)
        for j in range(min(triangles, isolated) + 1)
    }


def naive_specs(base_order, min_cycle=3):
    """Every block multiset on the given base order, with any number of
    claws and cycles of length >= min_cycle, by direct generation."""
    out = set()
    for stars in range(base_order // 4 + 1):
        rem = base_order - 4 * stars
        for csum in range(rem + 1):
            for cycles in naive_partitions(csum, min_cycle):
                for paths in naive_partitions(rem - csum, 1):
                    if cycles or paths or stars:
                        out.add(ConeSpec(cycles=cycles, paths=paths, stars13=stars))
    return out


class TestEnumerateFamily:
    """The union of the signature slices, and `_family_size`, against
    listed families and direct generation."""

    @staticmethod
    def family(profile):
        specs = slices_union(profile)
        assert _family_size(profile) == len(specs)
        return specs

    def test_flagship_profile(self):
        assert self.family((1, 2, 3, 0)) == [
            ConeSpec(paths=(5, 1)),
            ConeSpec(cycles=(3,), paths=(2, 1)),
        ]

    def test_star_profile(self):
        assert self.family((0, 5, 0, 1)) == [
            ConeSpec(paths=(2,), stars13=1)
        ]

    def test_two_star_profile(self):
        # two claws: swap level 2 of K1 v C3 + C3 + K2 + 3K1
        assert self.family((1, 8, 0, 2)) == [parse_spec_text("K1 v K13 + K13 + 1K2 + 1K1")]

    @pytest.mark.parametrize("profile", [
        (1, 3, 2, 0),  # odd number of path endpoints
    ], ids=["odd-endpoints"])
    def test_infeasible_profiles_are_empty(self, profile):
        assert self.family(profile) == []

    def test_complete_against_naive_generation(self):
        two_stars = 0
        for n in range(2, 12):
            universe = naive_specs(n - 1)
            profiles = {degree_profile(spec) for spec in universe}
            for profile in profiles:
                expected = sorted(
                    (s for s in universe if degree_profile(s) == profile),
                    key=lambda c: (c.stars13, c.cycles, c.paths),
                )
                assert self.family(profile) == expected
                two_stars += sum(s.stars13 == 2 for s in expected)
        assert two_stars == 4  # 2K13 with nothing, K1, K2 or 2K1


class TestSearchFamily:
    def test_flagship_finds_its_mate(self):
        report = search_family(FLAGSHIP)
        assert not report.exhaustive
        assert report.cardinality == 3
        assert len(report.hits) == 2
        first, second = report.hits
        assert first.candidate == FLAGSHIP
        assert first.distance == 0.0 and first.isomorphic
        assert second.candidate == ConeSpec(paths=(2,), stars13=1)
        assert second.distance <= 1e-8 and not second.isomorphic

    def test_odd_cycles_are_determined(self):
        report = search_family(g_family_spec([5, 7], 1, 1))
        assert report.cardinality == 35
        assert [h.candidate for h in report.hits] == [g_family_spec([5, 7], 1, 1)]

    def test_triangle_mate_always_found(self):
        rng = random.Random(21)
        for _ in range(5):
            cycles = [3] + [rng.randrange(3, 7) for _ in range(rng.randrange(0, 2))]
            spec = g_family_spec(cycles, rng.randrange(1, 3), rng.randrange(1, 3))
            mate = triangle_star_mate(spec)
            report = search_family(spec)
            assert mate in {h.candidate for h in report.hits}

    def test_two_triangles_meet_two_claws(self):
        # each C3 + K1 -> K13 swap keeps the spectrum, so both swaps do too
        report = search_family(parse_spec_text("K1 v C3 + C3 + K2 + 2K1"))
        assert [h.candidate for h in report.hits] == [
            parse_spec_text("K1 v C3 + C3 + K2 + 2K1"),
            parse_spec_text("K1 v K13 + C3 + K2 + K1"),
            parse_spec_text("K1 v K13 + K13 + K2"),
        ]
        assert report.hits[2].distance <= 1e-13
        assert report.cardinality == 9

    def test_hits_are_the_swap_closure_with_two_to_four_triangles(self):
        """On seeded cones with 2-4 C3 blocks, 0-1 claws and 0-4 K1s, n <= 24,
        the hits are exactly the target's closure under the swaps."""
        rng = random.Random(20261022)
        targets = multi_claw = 0
        while targets < 150:
            longer = tuple(rng.randint(4, 9) for _ in range(rng.randint(0, 2)))
            paths = tuple(rng.randint(2, 6) for _ in range(rng.randint(0, 3)))
            target = ConeSpec(
                (3,) * rng.randint(2, 4) + longer, paths + (1,) * rng.randint(0, 4), rng.randint(0, 1)
            )
            if target.n > 24:
                continue
            hits = [h.candidate for h in search_family(target).hits]
            assert len(hits) == len(set(hits)) and set(hits) == swap_closure(target), target
            targets += 1
            multi_claw += sum(h.stars13 >= 2 for h in hits)
        assert multi_claw == 149

    @pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("inf")], ids=str)
    def test_rejects_a_tolerance_that_is_negative_or_not_finite(self, tol):
        # a NaN or negative tol would report the target alone
        with pytest.raises(ParameterError, match="tol must be finite and >= 0"):
            search_family(FLAGSHIP, tol=tol)

    def test_rejects_raw_graphs(self):
        with pytest.raises(ParameterError):
            search_family(realize(FLAGSHIP))

    def test_never_groups_a_spectrum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("search_family grouped a spectrum")

        monkeypatch.setattr(eigen, "_groups", refuse)
        monkeypatch.setattr(search, "_groups", refuse)
        for target in (FLAGSHIP, g_family_spec([3, 4], 2, 1), ConeSpec(cycles=(2,), paths=(3, 1))):
            assert search_family(target).hits[0].candidate == target


def refuse_spectra(monkeypatch):
    """Make `q_spectrum` raise inside `search`: every spectrum must come
    from a batch."""
    def refuse(*args, **kwargs):
        raise AssertionError("search called q_spectrum")

    monkeypatch.setattr(search, "q_spectrum", refuse)


class TestFamilySearchFromSpecs:
    """The target and its candidates are solved in one batch, the target's
    moments read as exact traces of its Q."""

    # G, F, a digon (outside the enumeration) and two claws
    TARGETS = (
        FLAGSHIP,
        ConeSpec(paths=(2,), stars13=1),
        g_family_spec([3, 5], 2, 1),
        parse_spec_text("K1 v C2 + C5 + 2K2 + K1"),
        ConeSpec(cycles=(2,), paths=(3, 1)),
        ConeSpec(cycles=(3,), paths=(4,), stars13=2),
        ConeSpec(paths=(2, 1), stars13=2),
    )

    def test_solves_no_spectrum_alone(self, monkeypatch):
        reports = [search_family(t) for t in self.TARGETS]
        assert any(len(r.hits) > 1 for r in reports)
        refuse_spectra(monkeypatch)
        assert [search_family(t) for t in self.TARGETS] == reports

    @pytest.mark.parametrize("matrices", CHUNK_SIZES)
    def test_target_row_at_every_chunk_size(self, monkeypatch, matrices):
        # a chunk of one holds the target alone
        for target in self.TARGETS:
            set_chunk(monkeypatch, matrices, target.n)
            assert search_family(target) == brute_search_family(target), target

    # the family search reads its target's T1..T4 from `moments_closed_form`
    # alone: those are the exact traces of the realized cone, up to the cap
    def test_closed_form_is_the_exact_traces_on_simple_specs(self):
        rng = random.Random(20261019)
        specs = [
            parse_spec_text("K1 v C55 + C3 + 2K2 + K1"),
            parse_spec_text("K1 v C10 + C10 + C10 + C10 + C10 + C9 + 2K2"),
            ConeSpec(paths=(1,) * 63),
            ConeSpec(cycles=(3,) * 21),
            ConeSpec(paths=(2, 2, 2, 1), stars13=14),
        ]
        while len(specs) < 300:
            spec = random_cone_spec(rng, max_path=9)
            if not spec.has_digon():
                specs.append(spec)
        for spec in specs:
            assert spec.n <= 64
            q, a = exact_q_and_a_traces(realize(spec), 4)
            assert moments_closed_form(spec) == (*q, a[3]), spec

    def test_closed_form_is_the_exact_traces_on_digon_specs(self):
        rng = random.Random(20261020)
        specs = [
            ConeSpec(cycles=(2,) * 31, paths=(1,)),
            ConeSpec(cycles=(2,) * 10 + (9, 3), paths=(20, 2, 1), stars13=2),
        ]
        while len(specs) < 100:
            spec = random_cone_spec(rng, max_path=9)
            if spec.has_digon():
                specs.append(spec)
        assert max(spec.n for spec in specs) == 64
        for spec in specs:
            q, a = exact_q_and_a_traces(realize(spec), 4)
            assert moments_closed_form(spec) == (*q, a[3]), spec


def _profiles(n: int):
    """Every profile with entries >= 0, n4 <= 2 and total n - 1, plus two
    that enumerate nothing (negative, odd endpoints)."""
    base = n - 1
    for n4 in range(3):
        for n3 in range(base - n4 + 1):
            for n2 in range(base - n4 - n3 + 1):
                yield (base - n4 - n3 - n2, n2, n3, n4)
    yield from ((-1, n, 0, 0), (n - 2, 1, 0, 0))


def _solved_profiles(target):
    """The `claw_level`s of `family._profile` on the target's moments, by
    n4 in `family_claw_counts`: None where `_profile` is None or the level
    has a negative entry."""
    t = exact_q_and_a_traces(realize(target), 3)[0]
    profile, solved = _profile(*t, target.n), {}
    for n4 in family_claw_counts(target):
        level = None if profile is None else claw_level(profile, n4)
        solved[n4] = level if level is not None and min(level) >= 0 else None
    return solved


def _family_union(target):
    """The target and every member of its solved profiles, from the
    partition loop."""
    union = {target}
    for profile in _solved_profiles(target).values():
        if profile is not None:
            union.update(enumerate_family_by_partitions(profile))
    return union


class TestFamilyBySignature:
    def test_family_size_counts_the_enumeration(self):
        two_stars = 0
        for n in range(2, 15):
            for profile in _profiles(n):
                expected = enumerate_family_by_partitions(profile)
                assert _family_size(profile) == len(expected), profile
                two_stars += sum(s.stars13 == 2 for s in expected)
        assert two_stars > 0

    def test_signatures_split_the_enumeration(self):
        # `slices_union` asserts each slice's block counts and no duplicate
        two_stars = 0
        for n in range(2, 21):
            for profile in _profiles(n):
                expected = enumerate_family_by_partitions(profile)
                assert slices_union(profile) == expected, profile
                two_stars += sum(s.stars13 == 2 for s in expected)
        assert two_stars > 0

    @pytest.mark.parametrize("target, rejected", [
        (g_family_spec([5, 3], 2, 1), []),
        (g_family_spec([7, 5], 1, 1), []),
        (g_family_spec([4, 4, 3], 1, 2), []),
        (ConeSpec(cycles=(4,), paths=(2, 1), stars13=1), []),
        (ConeSpec(cycles=(3,), paths=(5, 2, 1)), []),
        (ConeSpec(paths=(4,)), []),
        (ConeSpec(cycles=(5,)), []),
        (ConeSpec(paths=(2, 1), stars13=2), []),
        # the top swap level has no K1 left (n1 < 0)
        (ConeSpec(cycles=(3,), paths=(7, 4), stars13=1), [2]),
        (ConeSpec(cycles=(3,), paths=(4,), stars13=2), [3]),
        # outside the enumeration: digons
        (ConeSpec(cycles=(2,), paths=(3, 1)), [0]),
        (ConeSpec(cycles=(2, 2), paths=(1,)), [0]),
        (ConeSpec(cycles=(6, 2), paths=(1,)), [0]),
    ], ids=str)
    def test_cardinality_is_the_enumerated_union(self, target, rejected):
        solved = _solved_profiles(target)
        assert rejected == [n4 for n4, counts in solved.items() if counts is None]
        report = search_family(target)
        assert report.cardinality == len(_family_union(target))
        assert report == brute_search_family(target)

    @pytest.mark.parametrize("matrices", CHUNK_SIZES)
    @pytest.mark.parametrize("text, cardinality", [
        ("K1 v C20 + C8 + C6 + 3K2 + 2K1", 26_715),
        ("K1 v C20 + C6 + C8 + 10K2 + 4K1", 151_848),
    ])
    def test_large_targets_pinned(self, monkeypatch, text, cardinality, matrices):
        target = parse_spec_text(text)
        set_chunk(monkeypatch, matrices, target.n)
        assert search_family(target) == SearchReport(
            target=target,
            tolerance=1e-8,
            hits=(SearchHit(target, 0.0, True),),
            exhaustive=False,
            cardinality=cardinality,
        )

    def test_degree_lemma(self):
        """Each claw swap C3 + K1 -> K13 shifts the profile by
        (-1, 3, -3, 1) and takes one triangle: on every cone over cycles,
        paths and claws with base order <= 13, `family._profile` solves the
        target's T1..T3 for its profile with every claw swapped back, and
        `claw_level` of that is the shift of the target's profile.  The
        levels with no negative entry can still leave a negative number of
        base triangles; those levels have no signature."""
        solved = negative_c3 = 0
        for target in (s for b in range(1, 14) for s in naive_specs(b)):
            moments = moments_closed_form(target)[:4]
            profile = degree_profile(target)
            claw_free = _profile(*moments[:3], target.n)
            for n4 in range(6):
                shift = n4 - target.stars13
                want = tuple(p + shift * d for p, d in zip(profile, (-1, 3, -3, 1)))
                assert claw_level(claw_free, n4) == want, target
                if min(want) < 0:
                    continue
                solved += 1
                if target.cycles.count(3) < shift:
                    assert _signatures(want, moments) == [], target
                    negative_c3 += 1
        assert (solved, negative_c3) == (2323, 592)


class TestCandidates:
    """`family._candidates`, the family search's candidate rule, against
    the partition-loop enumeration and matrix-power moments."""

    def test_candidates_are_the_moment_matches(self):
        rng = random.Random(20261021)
        targets = [
            parse_spec_text("K1 v C2 + C5 + 2K2 + K1"),
            parse_spec_text("K1 v K13 + K13 + C3 + 2K2 + K1"),
        ]
        while len(targets) < 60:
            spec = random_cone_spec(rng, max_path=4)
            if spec.n <= 20:
                targets.append(spec)
        matched = 0
        for target in targets:
            t = exact_q_and_a_traces(realize(target), 4)[0]
            cands = list(_candidates(target)[1])
            want = {
                c for c in _family_union(target) - {target}
                if exact_q_and_a_traces(realize(c), 4)[0] == t
            }
            assert len(cands) == len(set(cands)) and set(cands) == want, target
            matched += len(want)
        assert matched == 91

    def test_cardinality_counts_the_union(self):
        # every cone with base order <= 12: digons, and up to three claws
        checked = digons = claws = 0
        for target in (s for b in range(1, 13) for s in naive_specs(b, min_cycle=2)):
            assert _candidates(target)[0] == len(_family_union(target)), target
            checked += 1
            digons += target.has_digon()
            claws += target.stars13 > 1
        assert (checked, digons, claws) == (1370, 551, 21)


class TestSearchesAgree:
    def test_family_hits_are_the_exhaustive_family_hits(self):
        """On every family cone with n <= 8 the two searches, which share no
        candidate generator, find the same family mates; the one exhaustive
        hit outside the family is K3 + K1 against K13."""
        targets = [s for b in range(1, 8) for s in naive_specs(b)]
        assert len(targets) == 81
        outside = []
        for target in targets:
            family = {h.candidate for h in search_family(target).hits}
            read = []
            for hit in search_exhaustive(target).hits:
                spec = recognize_cone(hit.candidate)
                if spec is None:
                    outside.append((target, encode_graph6(hit.candidate), hit.distance))
                else:
                    read.append(spec)
            assert len(read) == len(set(read)) and set(read) == family, target
        assert [(t, g6) for t, g6, _ in outside] == [(parse_spec_text("K1 v 3K1"), "Cw")]
        assert outside[0][2] <= 1e-15


class TestSearchExhaustive:
    def test_triangle_is_unique(self):
        report = search_exhaustive(complete_graph(3))
        assert report.exhaustive
        assert report.cardinality == 8
        assert len(report.hits) == 1
        hit = report.hits[0]
        assert hit.isomorphic and hit.distance == 0.0
        assert isomorphic(hit.candidate, complete_graph(3))

    def test_edgeless(self):
        g = MultiGraph(np.zeros((4, 4), dtype=np.int64))
        report = search_exhaustive(g)
        assert report.cardinality == 64
        assert len(report.hits) == 1
        assert report.hits[0].candidate.num_edges == 0

    def test_flagship_has_exactly_one_mate(self):
        report = search_exhaustive(realize(FLAGSHIP))
        assert len(report.hits) == 2
        assert {encode_graph6(h.candidate) for h in report.hits} == {
            "FtnC?",
            "FtrE?",
        }
        by_iso = {h.isomorphic: h for h in report.hits}
        assert sorted(by_iso[True].candidate.degrees()) == [1, 2, 2, 3, 3, 3, 6]
        assert sorted(by_iso[False].candidate.degrees()) == [2, 2, 2, 2, 2, 4, 6]
        assert by_iso[True].distance == 0.0
        assert 0.0 < by_iso[False].distance <= 1e-8

    def test_relabeling_invariance(self):
        rng = random.Random(22)
        report = search_exhaustive(permuted(realize(FLAGSHIP), rng))
        assert len(report.hits) == 2
        assert {encode_graph6(h.candidate) for h in report.hits} == {
            "FtnC?",
            "FtrE?",
        }

    def test_order_cap(self):
        with pytest.raises(ScaleError):
            search_exhaustive(MultiGraph(np.zeros((9, 9), dtype=np.int64)))

    @pytest.mark.parametrize("target", [
        QSpectrum([4.0, 1.0, 1.0]), [4.0, 1.0, 1.0], np.array([4.0, 1.0, 1.0]), "Bw",
        # an adjacency matrix is not a MultiGraph
        np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64),
    ], ids=["spectrum", "list", "array", "string", "adjacency"])
    def test_rejects_targets_that_are_no_graph(self, target):
        with pytest.raises(ParameterError, match="graph or cone spec"):
            search_exhaustive(target)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("inf")], ids=str)
    def test_rejects_a_tolerance_that_is_negative_or_not_finite(self, tol):
        with pytest.raises(ParameterError, match="tol must be finite and >= 0"):
            search_exhaustive(FLAGSHIP, tol=tol)

    def test_target_is_its_own_hit_at_zero_tolerance(self):
        report = search_exhaustive(realize(FLAGSHIP), tol=0.0)
        assert [(encode_graph6(h.candidate), h.distance, h.isomorphic) for h in report.hits] == [
            ("FtnC?", 0.0, True)
        ]


class TestTargetClassSolvedOnce:
    """The target's own class is a hit at distance 0.0 that is never
    solved: its orbit is built first, and only the key matches outside it
    whose tr(Q^4) lies within the T4 band (the target's own T4 below the
    T4 bound), and then the other classes' representatives, are
    eigensolved."""

    @staticmethod
    def _solved(monkeypatch, target, tol=search.COSPECTRAL_TOL, split=None):
        """The report, and a copy of every Q stack `_spectra` solves (and,
        into `split`, of every mask array `_class_reps` splits)."""
        calls = []

        def spy(q, real=search._spectra):
            calls.append(q.copy())
            return real(q)

        def split_spy(masks, n, real=search._class_reps):
            split.append(masks.copy())
            return real(masks, n)

        monkeypatch.setattr(search, "_spectra", spy)
        if split is not None:
            monkeypatch.setattr(search, "_class_reps", split_spy)
        return search_exhaustive(target, tol=tol), calls

    @staticmethod
    def _others(report, n):
        return _q_stack(
            np.array([graph_mask(h.candidate) for h in report.hits if not h.isomorphic],
                     dtype=np.int64),
            n,
        )

    @staticmethod
    def _stack_masks(q):
        """The edge mask of each matrix in a Q stack, read off its off-diagonal."""
        pairs = pair_order(q.shape[-1])
        return [sum(1 << e for e, (u, v) in enumerate(pairs) if m[u, v]) for m in q]

    @pytest.mark.parametrize("target, tol, solved, classes", [
        # 10 key matches, 6 of them relabellings of the target: the other 4
        # have its T4 and are solved behind it, where all 11 were before
        (realize(FLAGSHIP), search.COSPECTRAL_TOL, 5, 2),
        # 5 of the 17 key matches lie in the orbit and none of the other 12
        # has the target's T4: nothing is solved below the T4 bound, and
        # at 1.1 bounds the band is 1.1 wide and none of the 12 lies in it
        (realize(ConeSpec(cycles=(4,), paths=(2, 1))), search.COSPECTRAL_TOL, 0, 1),
        (realize(ConeSpec(cycles=(4,), paths=(2, 1))), 0.9 * ORDER_EIGHT_BOUND, 0, 1),
        (realize(ConeSpec(cycles=(4,), paths=(2, 1))), 1.1 * ORDER_EIGHT_BOUND, 0, 1),
        # 8.8 bounds: 187 of the 907 matches outside the orbit lie in the
        # band; with the one other class's representative, 189 are solved
        (decode_graph6("Gz]C?{"), 1e-4, 188, 2),
        # the band takes every match at 1e9, and all 910 key matches
        # survive: 3 in the target's orbit, the other 907 in 85 other classes
        (decode_graph6("Gz]C?{"), 1e9, 908, 86),
        # the 127 key matches of n = 7's widest target, 14 of them in its orbit
        (decode_graph6("F}_@W"), 1e9, 114, 11),
    ], ids=["flagship", "order-eight-one-class", "order-eight-one-class-below-bound",
            "order-eight-one-class-above-bound", "order-eight-band", "order-eight-wide",
            "order-seven-wide"])
    def test_own_class_skips_the_second_solve(self, monkeypatch, target, tol, solved, classes):
        n, own = target.n, graph_mask(target)
        orbit = set(permutation_orbit(own, n).tolist())
        split = []
        report, calls = self._solved(monkeypatch, target, tol, split)
        # the target first, then exactly the key matches outside its orbit
        # whose T4 lies within the band
        matches = _moment_matches(n, *trace_key(target))
        outside = matches[~np.isin(matches, list(orbit))]
        t4 = trace4(q_matrix(target).astype(np.int64))
        outside = outside[np.abs(trace4(_q_stack(outside, n)) - t4) <= t4_band(target, tol)]
        assert outside.size == max(solved - 1, 0)
        if not solved:
            assert calls == split == []
            seen = np.zeros(0, dtype=np.int64)
        else:
            assert calls[0].shape == (solved, n, n)
            assert np.array_equal(calls[0][0], q_matrix(target))
            assert calls[0][1:].tobytes() == _q_stack(outside, n).astype(np.float64).tobytes()
            # no solved stack holds a relabelling of the target but the target itself
            assert not orbit.intersection(
                self._stack_masks(np.concatenate([calls[0][1:], *calls[1:]]))
            )
            # one split of the survivors, none of them in the target's orbit
            (seen,) = split
            assert not orbit.intersection(seen.tolist())
            # the scan's batch, then the other classes only
            assert len(calls) == 2
            assert calls[1].tobytes() == self._others(report, n).tobytes()
            assert calls[1].shape == (classes - 1, n, n)
        # the hits are the orbit minima of the survivors' classes and of the
        # target's own
        classes_of = isin_orbit_classes(np.unique(np.append(seen, own)), n)
        want = sorted(int(ref.min()) for _, ref in classes_of)
        assert [graph_mask(h.candidate) for h in report.hits] == want
        assert len(report.hits) == classes
        (iso,) = [h for h in report.hits if h.isomorphic]
        assert iso.distance == 0.0 and isomorphic(iso.candidate, target)
        assert graph_mask(iso.candidate) == min(orbit)

    @pytest.mark.parametrize("shape, others", [
        (ConeSpec(cycles=(6,)), 0), (ConeSpec(paths=(2, 2, 2)), 0), (ConeSpec(cycles=(3, 3)), 0),
        (ConeSpec(cycles=(4,), paths=(2,)), 9), ("F@Foo", 12),
    ], ids=["C6", "3K2", "C3+C3", "C4+K2", "F@Foo"])
    def test_an_orbit_that_holds_every_match_solves_nothing(self, monkeypatch, shape, others):
        # the n = 7 panel at the default tol: every key match of a DQS cone
        # relabels the target, and every match of the other two outside the
        # target's orbit misses its T4
        g = decode_graph6(shape) if isinstance(shape, str) else realize(shape)
        target = permuted(g, random.Random(repr(shape)))
        n = target.n
        matches = _moment_matches(n, *trace_key(target))
        outside = matches[~np.isin(matches, permutation_orbit(graph_mask(target), n))]
        assert matches.size > 1 and outside.size == others
        assert (trace4(_q_stack(outside, n)) != trace4(q_matrix(target).astype(np.int64))).all()
        report, calls = self._solved(monkeypatch, target)
        assert calls == []
        (hit,) = report.hits
        assert hit.isomorphic and hit.distance == 0.0 and isomorphic(hit.candidate, target)
        assert graph_mask(hit.candidate) == permutation_orbit(graph_mask(target), target.n).min()

    @pytest.mark.parametrize("realized", [True, False], ids=["digon", "digon-spec"])
    def test_every_class_is_solved_without_a_simple_target(self, monkeypatch, realized):
        # this digon cone has no hit at 1e-8; at 1e9 every key match survives,
        # whether the target is the realized graph or its cone spec
        spec = parse_spec_text("K1 v C2 + C3 + K2")
        target = realize(spec) if realized else spec
        report, calls = self._solved(monkeypatch, target, 1e9)
        assert len(report.hits) == 2 and not any(h.isomorphic for h in report.hits)
        assert calls[-1].tobytes() == self._others(report, target.n).tobytes()


class TestExhaustiveAgainstBruteSweep:
    """The class-extension scan with orbit dedupe against the full sweep
    with pairwise isomorphism dedupe: identical reports."""

    def test_every_graph_up_to_five_vertices(self):
        nx = pytest.importorskip("networkx")
        targets = [g for g in nx.graph_atlas_g() if 1 <= g.number_of_nodes() <= 5]
        assert len(targets) == 52
        # tol = 0 is left out: roundoff decides which relabelled copies of a
        # target pass it, in the oracle's sweep as in the scan; the T4 band
        # is T4 equality below its bound (n >= 2) and wider above it
        for g in targets:
            a = nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()), dtype=np.int64)
            target = MultiGraph(a)
            bound = [t4_bound(target) * f for f in (0.9, 1.1)] if target.n > 1 else []
            for tol in (search.COSPECTRAL_TOL, 1e-12, 1e-6, *bound, 1e-4, 1e-2, 0.5, 1e9):
                assert report_key(search_exhaustive(target, tol)) == report_key(
                    brute_search_exhaustive(target, tol)
                ), (encode_graph6(target), tol)

    @pytest.mark.parametrize("shape", EXHAUSTIVE_PANEL, ids=str)
    def test_benchmark_panel_relabelled(self, shape):
        rng = random.Random(repr(shape))
        g = decode_graph6(shape) if isinstance(shape, str) else realize(shape)
        target = permuted(g, rng)
        report = search_exhaustive(target)
        assert report_key(report) == report_key(brute_search_exhaustive(target))
        assert sum(h.isomorphic for h in report.hits) == 1

    def test_digon_cone(self):
        target = realize(ConeSpec(cycles=(3, 2)))
        report = search_exhaustive(target)
        assert report_key(report) == report_key(brute_search_exhaustive(target))
        assert not any(h.isomorphic for h in report.hits)

    @pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-4, 1e9])
    def test_digon_cone_around_the_t4_bound(self, tol):
        # the apex has the largest degree, 6, so M = 12 and the T4 band is
        # T4 equality below 1 / (4 * 7 * 12^3) = 2.07e-5, where it drops all
        # 6 key matches; the sweep holds n = 7 in memory
        target = realize(parse_spec_text("K1 v C2 + C3 + K1"))
        assert 2.06e-5 < t4_bound(target) < 2.07e-5
        assert report_key(search_exhaustive(target, tol)) == report_key(
            brute_search_exhaustive(target, tol)
        )

    def test_order_eight_pinned_hit(self):
        start = time.perf_counter()
        report = search_exhaustive(realize(ConeSpec(cycles=(4,), paths=(2, 1))))
        # the full sweep of 2^28 masks takes about 30 s
        assert time.perf_counter() - start < 10.0
        assert report.cardinality == 1 << 28
        assert [(graph_mask(h.candidate), h.distance, h.isomorphic) for h in report.hits] == [
            (2209611, 0.0, True)
        ]


class TestT4Gate:
    """Q eigenvalues of a target and a simple graph on its n vertices lie
    in [0, M], M = 2 max(n - 1, max degree), so tr(Q^4) differs by at most
    4 n M^3 times their spectral distance: a T4 gap of g puts the pair at
    least g `t4_bound` apart, and a match outside the band lies beyond
    tol."""

    def test_matches_off_the_target_t4_lie_beyond_the_bound(self):
        rng = random.Random(34)
        targets = [decode_graph6(s) if isinstance(s, str) else realize(s) for s in EXHAUSTIVE_PANEL]
        targets += [random_graph(rng, n, 0.5) for n in (7, 8) for _ in range(10)]
        off_t4, closest = 0, np.inf
        for target in targets:
            n, q = target.n, q_matrix(target)
            matches = _moment_matches(n, *trace_key(target))
            stack = _q_stack(matches[~np.isin(matches, permutation_orbit(graph_mask(target), n))], n)
            stack = stack[trace4(stack) != trace4(q.astype(np.int64))]
            rows = _spectra(np.concatenate([q[None], stack]))
            ratio = np.abs(rows[1:] - rows[0]).max(axis=1) / t4_bound(target)
            gap = np.abs(trace4(stack) - trace4(q.astype(np.int64)))
            assert (ratio >= gap).all() and (ratio > 1).all(), encode_graph6(target)
            off_t4 += ratio.size
            closest = min(closest, ratio.min(initial=np.inf))
        # 3 116 of the 3 248 matches outside the targets' orbits miss their
        # T4, and the closest of them lies 8 000 bounds away
        assert off_t4 > 3000 and closest > 1000

    def test_band_keeps_its_own_margin(self, monkeypatch):
        # probe 5.1's margin is not the band's: with it at -100, a band on
        # it would be negative and drop the claw mate of the flagship
        monkeypatch.setattr(search, "STRICT_MARGIN", -100.0)
        report = search_exhaustive(realize(FLAGSHIP))
        assert [recognize_cone(h.candidate) for h in report.hits] == [
            FLAGSHIP, ConeSpec(paths=(2,), stars13=1),
        ]
        assert report.hits[1].distance < 1e-13


class TestKeyAtEveryTolerance:
    """Both searches match the target's moments exactly at every tol: the
    exhaustive key (m, sum d^2, tr Q^3) and the family's T1..T4.  A T3 gap
    of 1 needs a distance of 1 / (3 n M^2), so from that tol a graph within
    it can go unreported."""

    def test_a_graph_off_the_key_is_not_reported(self):
        target, other = decode_graph6("DjW"), decode_graph6("Db[")
        assert (trace_key(target), trace_key(other)) == ((6, 34, 222), (6, 32, 198))
        dist = np.abs(np.sort(q_spectrum(target).values) - np.sort(q_spectrum(other).values)).max()
        # far beyond 1 / (3 n M^2) = 1 / 960 at n = 5 (M = 8)
        assert 0.3105 < dist < 0.3106
        for search_fn in (search_exhaustive, brute_search_exhaustive):
            report = search_fn(target, 0.5)
            assert [encode_graph6(h.candidate) for h in report.hits] == ["D}_"]
            assert not any(isomorphic(h.candidate, other) for h in report.hits)


class TestClasses:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_edge_images_equal_whole_table_gathers(self, n):
        got = orbits._image_bits(n)
        assert got.dtype == np.int32 and got.flags.c_contiguous
        assert np.array_equal(got, permutation_bits(n))
        if n == 8:
            # every relabelling of K8 is K8: all 28 bits below 2^28
            assert (got.sum(axis=0) == (1 << 28) - 1).all()

    def test_counts_match_a000088(self):
        assert [_classes(n).size for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_entry_is_its_orbit_minimum(self, n):
        reps = _classes(n)
        assert (np.diff(reps) > 0).all()
        assert all(int(_orbit(rep, n).min()) == rep for rep in reps.tolist())


def scan_args(g: MultiGraph):
    """(n, m, degree-square sum, tr(Q^3), ascending spectrum) of a graph,
    the key from its spectrum's rounded power sums."""
    tspec = q_spectrum(g)
    t1, t2, t3 = (round(power_sum(tspec, r)) for r in (1, 2, 3))
    return g.n, t1 // 2, t2 - t1, t3, np.sort(tspec.values)


def trace_key(g: MultiGraph):
    """The key `search_exhaustive` reads off a graph target's Q."""
    t1, t2, t3, _ = _power_traces(q_matrix(g))
    return t1 // 2, t2 - t1, t3


def scan(n: int, key, head: np.ndarray):
    """(masks, spectra) as `search_exhaustive` computes them: the extensions
    of order n whose key is `key`, in (class, S) order, and one batched
    eigensolve of the Q stack `head` followed by those masks' Q matrices."""
    masks = _moment_matches(n, *key)
    return masks, _spectra(np.concatenate([head, _q_stack(masks, n)]))


@pytest.mark.parametrize("matrices", CHUNK_SIZES)
def test_spectra_are_one_ascending_row_per_matrix(monkeypatch, matrices):
    # an empty stack gives no row, shaped (0, n) for the distance against row 0
    set_chunk(monkeypatch, matrices, 7)
    masks = np.array([0, 1, 5, 1 << 20, (1 << 21) - 1], dtype=np.int64)
    for k in range(masks.size + 1):
        stack = _q_stack(masks[:k], 7)
        rows = _spectra(stack)
        assert rows.shape == (k, 7)
        want = [np.linalg.eigvalsh(q.astype(np.float64)) for q in stack]
        assert rows.tobytes() == np.array(want).tobytes()


class TestScanAgainstQStackOracle:
    """The packed moment-key lookup against the filter-by-filter scan over
    int64 Q stacks: the same masks in the same order."""

    @staticmethod
    def survivors(masks, rows, tvals, tol):
        return masks[np.abs(rows - tvals).max(axis=1) <= tol].tolist()

    @classmethod
    def assert_same(cls, n, m, d2, t3, tvals):
        masks, rows = scan(n, (m, d2, t3), np.zeros((0, n, n)))
        assert rows.shape == (masks.size, n)
        for tol in (1e-8, np.inf):
            assert cls.survivors(masks, rows, tvals, tol) == qstack_scan(n, m, d2, t3, tvals, tol)

    @classmethod
    def assert_same_graph(cls, g: MultiGraph):
        """Both target forms: the spectrum, and the Q matrix solved as row 0
        of the matches' batch, which gives that spectrum bitwise."""
        n, m, d2, t3, tvals = scan_args(g)
        cls.assert_same(n, m, d2, t3, tvals)
        assert trace_key(g) == (m, d2, t3)
        masks, rows = scan(n, trace_key(g), q_matrix(g)[None])
        assert rows[0].tobytes() == tvals.tobytes()
        for tol in (1e-8, np.inf):
            got = cls.survivors(masks, rows[1:], tvals, tol)
            assert got == qstack_scan(n, m, d2, t3, tvals, tol)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_moment_triple_up_to_six_vertices(self, n):
        masks = np.arange(1 << n * (n - 1) // 2, dtype=np.int64)
        q = _q_stack(masks, n)
        deg = q.diagonal(axis1=1, axis2=2)
        triples = np.stack(
            [deg.sum(axis=1) // 2, (deg * deg).sum(axis=1), (q @ q * q).sum(axis=(1, 2))], axis=1
        )
        _, first = np.unique(triples, axis=0, return_index=True)
        for i in first.tolist():
            self.assert_same(n, *triples[i].tolist(), np.linalg.eigvalsh(q[i].astype(float)))

    @pytest.mark.parametrize("shape", EXHAUSTIVE_PANEL, ids=str)
    def test_benchmark_panel_relabelled(self, shape):
        rng = random.Random(repr(shape))
        g = decode_graph6(shape) if isinstance(shape, str) else realize(shape)
        self.assert_same_graph(permuted(g, rng))

    def test_seeded_random_order_seven(self):
        rng = random.Random(77)
        for _ in range(50):
            self.assert_same_graph(random_graph(rng, 7, rng.choice([0.2, 0.4, 0.5, 0.6, 0.8])))

    def test_order_eight_pinned_target(self):
        g = realize(ConeSpec(cycles=(4,), paths=(2, 1)))
        self.assert_same_graph(g)
        # the one hit class of `search_exhaustive`, among the survivors
        masks, rows = scan(8, trace_key(g), q_matrix(g)[None])
        assert 2209611 in self.survivors(masks, rows[1:], rows[0], 1e-8)

    @pytest.mark.parametrize("m, d2, t3", [
        (32, 0, 0), (0, 512, 0), (0, 0, 8192), (-1, 2, 8), (1, -2, 8), (-2, 14, -34),
    ])
    def test_out_of_range_keys_skip_the_table(self, monkeypatch, m, d2, t3):
        tvals = np.zeros(8)
        assert qstack_scan(8, m, d2, t3, tvals, np.inf) == []
        monkeypatch.setattr(orbits, "_extension_moments", None)
        monkeypatch.setattr(orbits, "_classes", None)
        masks, rows = scan(8, (m, d2, t3), np.zeros((0, 8, 8)))
        assert masks.size == rows.size == 0



class TestExtensionMoments:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_keys_decode_to_q_stack_moments(self, n):
        key = _extension_moments(n)
        masks = extension_masks(n)
        assert key.dtype == np.int32 and key.shape == masks.shape
        fields = np.stack([key & 31, key >> 5 & 511, key >> 14], axis=1)
        step = 1 << 14
        for lo in range(0, masks.size, step):
            q = _q_stack(masks[lo:lo + step], n)
            deg = q.diagonal(axis1=1, axis2=2)
            want = np.stack(
                [deg.sum(axis=1) // 2, (deg * deg).sum(axis=1), (q @ q * q).sum(axis=(1, 2))],
                axis=1,
            )
            assert (fields[lo:lo + step] == want).all()

    def test_bit_fields_hold_order_eight(self):
        key = _extension_moments(8)
        assert _KEY_BITS == (5, 9, 13) and sum(_KEY_BITS) < 32
        # K8 tops every field: 28 edges, 8 * 7^2 and 8 * 7^3 + 3 * 392 + 6 * 56
        fields = [key & 31, key >> 5 & 511, key >> 14]
        assert [int(f.max()) for f in fields] == [28, 392, 4256]
        assert key.min() >= 0


class TestOrbitDedupe:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_pairwise_isomorphic(self, seed):
        rng = random.Random(seed)
        n = 6
        graphs = [random_graph(rng, n, 0.4) for _ in range(12)]
        # each class shows up under several labellings
        pool = {graph_mask(permuted(g, rng)) for g in graphs for _ in range(6)}
        masks = np.array(sorted(pool), dtype=np.int64)
        reps = _class_reps(masks, n).tolist()
        assert reps == sorted(set(reps))
        rep_graphs = [mask_graph(r, n) for r in reps]
        for i, (r, h) in enumerate(zip(reps, rep_graphs)):
            assert r == permutation_orbit(r, n).min()
            assert not any(isomorphic(h, other) for other in rep_graphs[:i])
        # every mask lies in the class of exactly one representative
        for m in masks.tolist():
            g = mask_graph(m, n)
            (r,) = [r for r, h in zip(reps, rep_graphs) if isomorphic(g, h)]
            assert r <= m

    @pytest.mark.parametrize("n, seed", [
        (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (7, 1), (8, 0), (8, 1),
    ])
    def test_split_agrees_with_isin(self, n, seed):
        rng = random.Random(100 * n + seed)
        full = (1 << n * (n - 1) // 2) - 1
        target = random_graph(rng, n, 0.5)
        graphs = [target] + [random_graph(rng, n, p) for p in (0.2, 0.4, 0.6, 0.8)]
        pool = {graph_mask(permuted(g, rng)) for g in graphs for _ in range(8)}
        # 0 lies below every other orbit's minimum and Kn above every maximum
        pool |= {graph_mask(target)} | {m for m in (0, 1, full - 1, full) if 0 <= m <= full}
        masks = np.array(sorted(pool), dtype=np.int64)
        want = sorted(int(ref.min()) for _, ref in isin_orbit_classes(masks, n))
        got = _class_reps(masks, n)
        assert got.dtype == np.int64 and got.tolist() == want
        # in any order, repeats included
        shuffled = np.concatenate([masks, masks[:5]])
        rng.shuffle(shuffled)
        got = _class_reps(shuffled, n)
        assert got.dtype == np.int64 and got.tolist() == want

    def test_orbits_are_int32_relabellings(self):
        for mask in (0, 1, 12345, (1 << 28) - 1):
            orbit = _orbit(mask, 8)
            assert orbit.dtype == np.int32
            assert np.array_equal(orbit, permutation_orbit(mask, 8))

    def test_split_edges(self):
        empty = _class_reps(np.zeros(0, dtype=np.int64), 4)
        assert empty.dtype == np.int64 and empty.shape == (0,)
        # K4 less an edge, listed twice and under another labelling; the
        # empty graph and K4 are their own orbits
        masks = np.array([62, 0, 31, 63, 31, 47], dtype=np.int64)
        assert _class_reps(masks, 4).tolist() == [0, 31, 63]

    def test_wide_tolerance_reports_agree(self):
        # every key match survives: 127 masks in 11 classes, the most at n = 7
        target = decode_graph6("F}_@W")
        want = report_key(search_exhaustive(target, tol=1e9))
        hits = [h.candidate for h in search_exhaustive(target, tol=1e9).hits]
        assert len(hits) == 11 and [iso for *_, iso in want[0]].count(True) == 1
        assert not any(isomorphic(g, h) for i, g in enumerate(hits) for h in hits[:i])
        assert report_key(search_exhaustive(permuted(target, random.Random(5)), tol=1e9))[0] == [
            (g6, pytest.approx(d, abs=1e-12), iso) for g6, d, iso in want[0]
        ]


class TestIsomorphic:
    def test_permutation_invariance(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 9), 0.5)
            assert isomorphic(g, permuted(g, rng))

    def test_regular_non_isomorphic_pair(self):
        c6 = cycle_graph(6)
        two_triangles = disjoint_union([cycle_graph(3), cycle_graph(3)])
        assert not isomorphic(c6, two_triangles)

    def test_different_degree_sequences(self):
        assert not isomorphic(path_graph(4), star_graph(4))

    def test_rejects_multigraphs(self):
        with pytest.raises(ParameterError, match="isomorphism testing covers simple graphs only"):
            isomorphic(realize(ConeSpec(cycles=(2,), paths=(1,))), complete_graph(4))

    def test_order_cap(self):
        big = MultiGraph(np.zeros((17, 17), dtype=np.int64))
        with pytest.raises(ScaleError):
            isomorphic(big, big)


def _parts(total: int, least: int):
    """Partitions of `total` into parts >= `least`, parts non-decreasing."""
    if total == 0:
        yield ()
    for first in range(least, total + 1):
        for rest in _parts(total - first, first):
            yield (first,) + rest


def simple_cone_specs(n: int):
    """Every cone spec of order n with cycles >= 3, paths >= 1, at most one K13."""
    for stars in (0, 1):
        rest = n - 1 - 4 * stars
        for csum in range(rest + 1):
            for cycles in _parts(csum, 3):
                for paths in _parts(rest - csum, 1):
                    if cycles or paths or stars:
                        yield ConeSpec(cycles=cycles, paths=paths, stars13=stars)


class TestRecognizeCone:
    @pytest.mark.parametrize(
        "spec",
        [
            FLAGSHIP,
            ConeSpec(cycles=(2,), paths=(1,)),
            ConeSpec(paths=(2,), stars13=1),
            ConeSpec(cycles=(4, 3), paths=(3, 1), stars13=1),
            g_family_spec([5], 2, 2),
        ],
    )
    def test_roundtrip(self, spec):
        assert recognize_cone(realize(spec)) == spec

    def test_complete_graph_is_a_triangle_cone(self):
        assert recognize_cone(complete_graph(4)) == ConeSpec(cycles=(3,))

    def test_k2_is_a_trivial_cone(self):
        assert recognize_cone(path_graph(2)) == ConeSpec(paths=(1,))

    def test_star_is_a_cone_over_isolated_vertices(self):
        assert recognize_cone(star_graph(5)) == ConeSpec(paths=(1, 1, 1, 1))

    def test_no_apex(self):
        assert recognize_cone(cycle_graph(5)) is None

    def test_unrecognizable_base(self):
        assert recognize_cone(complete_graph(5)) is None

    def test_single_vertex(self):
        assert recognize_cone(path_graph(1)) is None

    def test_every_graph_up_to_seven_vertices(self):
        """Recognition, components and dominating vertices against networkx
        on all 1 252 atlas graphs with 1 <= n <= 7."""
        nx = pytest.importorskip("networkx")
        atlas = [h for h in nx.graph_atlas_g() if 1 <= h.number_of_nodes() <= 7]
        assert len(atlas) == 1252
        cones = {
            n: [nx.from_numpy_array(realize(spec).mult) for spec in simple_cone_specs(n)]
            for n in range(1, 8)
        }
        degrees = lambda h: sorted(d for _, d in h.degree())
        for h in atlas:
            n = h.number_of_nodes()
            g = MultiGraph(nx.to_numpy_array(h, nodelist=range(n), dtype=np.int64))
            label = encode_graph6(g)
            spec = recognize_cone(g)
            is_cone = any(
                degrees(c) == degrees(h) and nx.is_isomorphic(c, h) for c in cones[n]
            )
            assert (spec is not None) == is_cone, label
            if spec is not None:
                assert nx.is_isomorphic(nx.from_numpy_array(realize(spec).mult), h), label
            comps = [h.subgraph(c) for c in nx.connected_components(h)]
            assert components_and_bipartiteness(g) == (
                len(comps), sum(nx.is_bipartite(c) for c in comps)
            ), label
            assert _dominating_vertices(g).tolist() == [
                v for v in range(n) if h.degree(v) == n - 1
            ], label

    def test_digon_cone_round_trip(self):
        spec = parse_spec_text("K1 v C2 + C3 + K1")
        assert recognize_cone(realize(spec)) == spec

    def test_triple_edge_is_no_block(self):
        # apex 2 over a pair joined by three parallel edges
        assert recognize_cone(MultiGraph([[0, 3, 1], [3, 0, 1], [1, 1, 0]])) is None

    def test_digon_with_a_pendant_is_no_block(self):
        # apex 3 over the digon 0=1 with vertex 2 hanging from vertex 1
        g = MultiGraph([[0, 2, 0, 1], [2, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, 0]])
        assert recognize_cone(g) is None


class TestProbes:
    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            run_probe(complete_graph(3), "9.9")

    def test_edge_deletion_pass(self):
        res = run_probe(realize(FLAGSHIP), "2.2")
        assert res.passed and res.probe == "2.2"
        assert res.witness is None

    def test_edge_deletion_on_multigraph(self):
        res = run_probe(realize(ConeSpec(cycles=(2,), paths=(2, 1))), "2.2")
        assert res.passed

    @pytest.mark.parametrize("i", [1, 6])
    def test_edge_deletion_checks_the_lower_bound(self, monkeypatch, i):
        """Deleting an edge may not push eigenvalue i + 1 (1-based) below g's
        next one, or below 0 for the last: the first deletion's value is set
        1.0 under that bound, still under g's own eigenvalue i + 1."""
        g = realize(FLAGSHIP)
        vals = q_spectrum(g).values
        low = (vals[i + 1] if i + 1 < g.n else 0.0) - 1.0

        def lowered(matrices, real=search._q_rows):
            rows = real(matrices)
            yield next(rows)  # ascending rows, g's own first
            row = next(rows).copy()
            row[g.n - 1 - i] = low
            yield row
            yield from rows

        monkeypatch.setattr(search, "_q_rows", lowered)
        res = run_probe(g, "2.2")
        us, vs = np.nonzero(np.triu(g.mult, 1))
        edge = [int(us[0]), int(vs[0])]
        assert res.status == "fail"
        assert res.witness["edge"] == edge and res.witness["index"] == i + 1
        assert res.witness["deleted_value"] == low < res.witness["value"] == vals[i]
        assert res.message == (
            f"eigenvalue {i + 1} fell below its lower bound after deleting edge {tuple(edge)}"
        )

    @pytest.mark.parametrize("bound", ["upper", "lower"])
    @pytest.mark.parametrize("i", [0, 4])
    def test_dominating_vertex_failure_reports_both_bounds(self, monkeypatch, i, bound):
        """The first deletion's value i + 1 (1-based) is set 1.0 past one of
        its bounds: g's own value i + 1, or g's value i + 2, less 1."""
        g = realize(FLAGSHIP)
        vals = q_spectrum(g).values
        upper, lower = vals[i] - 1, vals[i + 1] - 1
        value = upper + 1.0 if bound == "upper" else lower - 1.0
        solves = []

        def perturbed(matrices, real=search._q_rows):
            rows = real(matrices)
            solves.append(1)
            if len(solves) == 1:  # g's own Q
                yield from rows
                return
            row = next(rows).copy()  # ascending, of order n - 1
            row[g.n - 2 - i] = value
            yield row
            yield from rows

        monkeypatch.setattr(search, "_q_rows", perturbed)
        res = run_probe(g, "2.3")
        v = int(_dominating_vertices(g)[0])
        assert res.status == "fail"
        assert res.witness == {
            "vertex": v, "index": i + 1, "value": value, "upper": upper, "lower": lower,
        }
        assert res.message == (
            f"shifted interlacing fails at position {i + 1} after removing vertex {v}"
        )

    def test_edge_deletion_skip(self):
        res = run_probe(MultiGraph(np.zeros((3, 3), dtype=np.int64)), "2.2")
        assert res.status == "skipped"

    # digons, a double edge off the apex, and many dominating vertices
    DELETION_GRAPHS = (
        realize(FLAGSHIP),
        realize(ConeSpec(cycles=(2, 4), paths=(6, 5, 1), stars13=1)),
        realize(ConeSpec(cycles=(2, 2), paths=(3,))),
        # vertex 2 is joined simply to the others; 0 and 1 share a double edge
        from_edges(4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]),
        complete_graph(6),
    )

    @staticmethod
    def _solved(monkeypatch, g, probe):
        """Run one passing probe on g; return copies of the matrices it
        hands `_q_rows`, one list per call."""
        batches = []

        def recording(matrices, real=search._q_rows):
            batch = []
            batches.append(batch)

            def copies():
                for m in matrices:
                    batch.append(m.copy())
                    yield m

            return real(copies())

        monkeypatch.setattr(search, "_q_rows", recording)
        assert run_probe(g, probe).passed
        return batches

    @staticmethod
    def _assert_q_of(got, batches):
        """Each call's matrices are bitwise the Q of its list of graphs."""
        assert [len(b) for b in got] == [len(b) for b in batches]
        for m, sub in zip(itertools.chain(*got), itertools.chain(*batches)):
            q = q_matrix(sub)
            assert m.dtype == q.dtype and m.tobytes() == q.tobytes()

    @pytest.mark.parametrize("g", DELETION_GRAPHS)
    def test_deletions_edit_g_own_q(self, monkeypatch, g):
        """Every matrix 2.2 and 2.3 solve is g's own Q or bitwise the Q of
        the subgraph built by copying g and deleting through the checked
        constructor: 2.2 in one batch, 2.3 with g alone before its deletions
        of order n - 1."""
        us, vs = np.nonzero(np.triu(g.mult, 1))
        doms = _dominating_vertices(g).tolist()
        assert doms
        self._assert_q_of(
            self._solved(monkeypatch, g, "2.2"),
            [[g] + [edge_deleted(g, u, v) for u, v in zip(us, vs)]],
        )
        self._assert_q_of(
            self._solved(monkeypatch, g, "2.3"), [[g], [vertex_deleted(g, v) for v in doms]]
        )

    def test_edge_edit_drops_one_edge(self, monkeypatch):
        # C4's edges in upper-triangle order, each followed by the rest
        edges = [(0, 1), (0, 3), (1, 2), (2, 3)]
        want = [from_edges(4, [f for f in edges if f != e]) for e in edges]
        self._assert_q_of(
            self._solved(monkeypatch, cycle_graph(4), "2.2"), [[cycle_graph(4)] + want]
        )

    def test_edge_edit_removes_one_digon_copy(self, monkeypatch):
        # a triangle with 01 doubled: less one copy of 01 it is K3
        g = from_edges(3, [(0, 1), (0, 1), (0, 2), (1, 2)])
        (got,) = self._solved(monkeypatch, g, "2.2")
        self._assert_q_of([got[:2]], [[g, complete_graph(3)]])

    def test_vertex_edit_of_star_centre(self, monkeypatch):
        # only the centre dominates; the leaves it leaves are isolated
        empty = MultiGraph(np.zeros((3, 3), dtype=np.int64))
        g = star_graph(4)
        self._assert_q_of(self._solved(monkeypatch, g, "2.3"), [[g], [empty]])

    def test_vertex_edit_keeps_induced_edges(self, monkeypatch):
        self._assert_q_of(
            self._solved(monkeypatch, complete_graph(5), "2.3"),
            [[complete_graph(5)], [complete_graph(4)] * 5],
        )
        # deleting vertex 2 keeps the double edge 01 and the edge 03, in order
        g = from_edges(4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 2), (0, 3)])
        self._assert_q_of(
            self._solved(monkeypatch, g, "2.3"), [[g], [from_edges(3, [(0, 1), (0, 1), (0, 2)])]]
        )

    @pytest.mark.parametrize("probe", ["2.2", "2.3"])
    @pytest.mark.parametrize("probe_tol", [search.PROBE_TOL, -100.0])
    def test_edge_deletion_solves_no_spectrum_alone(self, monkeypatch, probe_tol, probe):
        monkeypatch.setattr(search, "PROBE_TOL", probe_tol)
        results = [run_probe(g, probe) for g in self.DELETION_GRAPHS]
        assert {r.status for r in results} == {"pass" if probe_tol > 0 else "fail"}
        refuse_spectra(monkeypatch)
        assert [run_probe(g, probe) for g in self.DELETION_GRAPHS] == results

    def test_dominating_vertex_pass(self):
        assert run_probe(realize(FLAGSHIP), "2.3").passed

    def test_dominating_vertex_skip(self):
        assert run_probe(cycle_graph(5), "2.3").status == "skipped"

    def test_zero_multiplicity_pass(self):
        g = disjoint_union([cycle_graph(4), cycle_graph(3)])
        assert run_probe(g, "2.4").passed

    def test_zero_multiplicity_on_multigraph(self):
        assert run_probe(realize(ConeSpec(cycles=(2,), paths=(1,))), "2.4").passed

    def test_degree_bound_pass(self):
        res = run_probe(realize(g_family_spec([5], 2, 2)), "2.10")
        assert res.passed

    def test_degree_bound_skip_small_top_degree(self):
        # n = 11: top degree 10 misses both hypothesis branches at dn = 1.
        res = run_probe(realize(g_family_spec([7], 1, 1)), "2.10")
        assert res.status == "skipped"

    def test_degree_bound_skip_disconnected(self):
        res = run_probe(disjoint_union([star_graph(12), path_graph(1)]), "2.10")
        assert res.status == "skipped"

    def test_path_swap_pass(self):
        res = run_probe(realize(ConeSpec(paths=(4, 2, 1))), "5.1")
        assert res.passed

    def test_path_swap_long_path(self):
        res = run_probe(realize(ConeSpec(paths=(7, 2, 1))), "5.1")
        assert res.passed

    def test_path_swap_skip_without_long_path(self):
        assert run_probe(realize(FLAGSHIP), "5.1").status == "skipped"

    def test_path_swap_skip_off_family(self):
        assert run_probe(cycle_graph(6), "5.1").status == "skipped"

    PATH_SWAP_GRAPHS = (
        realize(ConeSpec(paths=(4, 2, 1))),
        realize(ConeSpec(paths=(7, 2, 1))),
        realize(ConeSpec(cycles=(2, 4), paths=(6, 5, 1), stars13=1)),
        # an unresolved gap: skipped
        realize(ConeSpec(paths=(14, 2, 1))),
    )

    def test_path_swap_solves_no_spectrum_alone(self, monkeypatch):
        results = [run_probe(g, "5.1") for g in self.PATH_SWAP_GRAPHS]
        assert [r.status for r in results] == ["pass", "pass", "pass", "skipped"]
        refuse_spectra(monkeypatch)
        assert [run_probe(g, "5.1") for g in self.PATH_SWAP_GRAPHS] == results

    def test_path_swap_reads_specs_only(self, monkeypatch):
        results = [run_probe(g, "5.1") for g in self.PATH_SWAP_GRAPHS]

        def refuse(*args, **kwargs):
            raise AssertionError("probe 5.1 built or solved a matrix")

        for name in ("realize", "q_matrix", "_q_rows", "q_spectrum"):
            monkeypatch.setattr(search, name, refuse)
        assert [run_probe(g, "5.1") for g in self.PATH_SWAP_GRAPHS] == results
        # every rewiring fails: the witness holds the two specs' top roots
        monkeypatch.setattr(search, "STRICT_MARGIN", -100.0)
        for g in self.PATH_SWAP_GRAPHS:
            spec, w = recognize_cone(g), run_probe(g, "5.1").witness
            rest = list(spec.paths)
            rest.remove(w["path"])
            alt = ConeSpec(
                cycles=spec.cycles + (w["cycle"],),
                paths=tuple(rest) + (w["tail"],),
                stars13=spec.stars13,
            )
            assert (w["lhs"], w["rhs"]) == (
                largest_q_eigenvalue(spec), largest_q_eigenvalue(alt),
            )

    def test_path_swap_does_not_depend_on_labelling(self):
        # every largest eigenvalue is the top root of a spec's quotient,
        # even the float64 noise in an unresolved gap
        rng = random.Random(51)
        for g in self.PATH_SWAP_GRAPHS:
            want = run_probe(g, "5.1")
            for _ in range(3):
                assert run_probe(permuted(g, rng), "5.1") == want


class TestChunkInvariance:
    """Probes 2.2 and 2.3 read their batched eigensolves in order, whatever
    the chunk size; 5.1, which solves no batch, scans its rewirings in order."""

    GRAPHS = (
        realize(FLAGSHIP),
        realize(ConeSpec(cycles=(2, 4), paths=(6, 5, 1), stars13=1)),
        realize(ConeSpec(cycles=(3,), paths=(9, 4, 2, 1))),
        complete_graph(9),
        cycle_graph(7),
    )

    def _results(self, monkeypatch, matrices):
        out = []
        for g in self.GRAPHS:
            for probe, order in (("2.2", g.n), ("2.3", g.n - 1), ("5.1", g.n)):
                set_chunk(monkeypatch, matrices, order)
                out.append(run_probe(g, probe))
        return out

    @pytest.mark.parametrize("probe_tol, margin, statuses, unresolved", [
        (search.PROBE_TOL, search.STRICT_MARGIN, {"pass", "skipped"}, False),
        # every comparison fails: the witness is the first in scan order
        (-100.0, -100.0, {"fail", "skipped"}, False),
        # every rewiring gap is unresolved: the first one is reported
        (search.PROBE_TOL, 100.0, {"pass", "skipped"}, True),
    ], ids=["as-shipped", "all-fail", "all-unresolved"])
    def test_probe_results_do_not_depend_on_chunk_size(
        self, monkeypatch, probe_tol, margin, statuses, unresolved
    ):
        monkeypatch.setattr(search, "PROBE_TOL", probe_tol)
        monkeypatch.setattr(search, "STRICT_MARGIN", margin)
        results = [self._results(monkeypatch, m) for m in CHUNK_SIZES]
        assert results[0] == results[1] == results[2]
        assert {r.status for r in results[0]} == statuses
        assert any("unresolved" in r.message for r in results[0]) == unresolved

    def test_first_failures_in_scan_order(self, monkeypatch):
        monkeypatch.setattr(search, "PROBE_TOL", -100.0)
        monkeypatch.setattr(search, "STRICT_MARGIN", -100.0)
        g = realize(ConeSpec(cycles=(3,), paths=(9, 4, 2, 1)))
        set_chunk(monkeypatch, 3, g.n)
        # vertex 0 is the isolated base vertex, joined only to the apex
        assert run_probe(g, "2.2").witness["edge"] == [0, g.n - 1]
        w = run_probe(g, "5.1").witness
        assert (w["path"], w["cycle"], w["tail"]) == (4, 2, 2)
        set_chunk(monkeypatch, 3, 8)
        assert run_probe(complete_graph(9), "2.3").witness["vertex"] == 0


def test_recognition_agrees_with_enumeration_at_order_five():
    pairs = pair_order(5)
    for mask in range(1 << len(pairs)):
        arr = np.zeros((5, 5), dtype=np.int64)
        for e, (u, v) in enumerate(pairs):
            if mask >> e & 1:
                arr[u, v] = arr[v, u] = 1
        g = MultiGraph(arr)
        spec = recognize_cone(g)
        if spec is None:
            continue
        assert isomorphic(realize(spec), g)
        profile = degree_profile(spec)
        assert spec in slices_union(profile)
