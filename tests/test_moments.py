"""Moment vectors, closed-form cone moments, moment shifts, and the family's
order-4 signatures and degree profiles."""

import random

import numpy as np
import pytest

from qcones import (
    ConeSpec,
    MultiGraph,
    ParameterError,
    QSpectrum,
    ScaleError,
    format_spec_text,
    moments_closed_form,
    moments_from_counts,
    moments_from_spectrum,
    parse_spec_text,
    q_spectrum,
    realize,
    sym_eigenvalues,
)
from qcones.family import (
    _family_size, _family_with_signature, _path_blocks, _profile, _signature_moments, _signatures,
)
from qcones.moments import _walk_sums

from helpers import (
    claw_level,
    complete_graph,
    cone_from_builders,
    cone_traces,
    cycle_graph,
    degree_profile,
    digon,
    exact_q_and_a_traces,
    g_family_spec,
    naive_c3,
    naive_c4,
    naive_f_bar,
    naive_t_bar,
    path_graph,
    random_cone_spec,
    random_graph,
    signature,
    slices_union,
)

FLAGSHIP = g_family_spec([3], 1, 1)


class TestNaiveCounters:
    def test_flagship(self):
        g = realize(FLAGSHIP)
        assert (naive_c3(g), naive_c4(g)) == (5, 3)
        assert (naive_t_bar(g), naive_f_bar(g)) == (440, 460)


class TestMomentsFromCounts:
    def test_flagship(self):
        assert moments_from_counts(realize(FLAGSHIP)) == (20, 92, 560, 3876, 148)

    def test_against_naive(self):
        # exact traces of integer powers of Q and A
        rng = random.Random(18)
        for n in (*range(3, 9), 17, 20):
            g = random_graph(rng, n, 0.5)
            q, a = exact_q_and_a_traces(g, 4)
            assert moments_from_counts(g) == (*q, a[3])

    def test_rejects_multigraph(self):
        with pytest.raises(ParameterError, match="subgraph counting is defined for simple graphs"):
            moments_from_counts(digon())

    def test_above_the_order_cap(self):
        with pytest.raises(ScaleError, match="capped at n <= 64"):
            moments_from_counts(complete_graph(65))

    def test_k2(self):
        assert moments_from_counts(path_graph(2)) == (2, 4, 8, 16, 2)

    def test_edgeless(self):
        g = MultiGraph(np.zeros((3, 3), dtype=np.int64))
        assert moments_from_counts(g) == (0, 0, 0, 0, 0)

    def test_matches_spectral_power_sums(self):
        rng = random.Random(19)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 11), 0.5)
            exact = moments_from_counts(g)
            spectral = moments_from_spectrum(
                q_spectrum(g), sym_eigenvalues(g.mult)
            )
            for a, b in zip(exact, spectral):
                assert abs(a - b) <= 1e-7 * max(1.0, abs(a))


class TestMomentsFromSpectrum:
    def test_power_sums(self):
        mv = moments_from_spectrum(QSpectrum([2.0, 0.0]))
        assert mv[:4] == (2.0, 4.0, 8.0, 16.0)
        assert mv.s4 is None

    def test_zero_spectrum(self):
        mv = moments_from_spectrum(QSpectrum([0.0, 0.0, 0.0]))
        assert mv[:4] == (0.0, 0.0, 0.0, 0.0)

    def test_adjacency_side(self):
        mv = moments_from_spectrum(QSpectrum([2.0, 0.0]), QSpectrum([1.0, -1.0]))
        assert mv.s4 == 2.0


def closed_and_exact(spec):
    """moments_closed_form(spec), after checking it against the count route
    and the exact traces of the realized cone."""
    g = realize(spec)
    closed = moments_closed_form(spec)
    q, a = exact_q_and_a_traces(g, 4)
    assert closed == moments_from_counts(g) == (*q, a[3]), spec
    return closed


class TestClosedFormMoments:
    def test_flagship(self):
        assert closed_and_exact(FLAGSHIP) == (20, 92, 560, 3876, 148)

    def test_four_cycle_block(self):
        # K1 v C4 + K2 + K1 against K1 v P6 + K1, of the same profile: the C4
        # block's apex-free 4-cycle adds 8 to S4, and with the K2 12 to T4
        c4, p6 = closed_and_exact(g_family_spec([4], 1, 1)), closed_and_exact(ConeSpec(paths=(6, 1)))
        assert (c4.s4 - p6.s4, c4.t4 - p6.t4) == (8, 12)

    def test_pinned_vector(self):
        assert closed_and_exact(g_family_spec([5], 2, 1)) == (34, 196, 1696, 17508, 330)

    def test_matches_brute_force_grid(self):
        for cycles, q, s in [
            ([3], 1, 1),
            ([4], 1, 2),
            ([5, 3], 2, 1),
            ([6, 4, 3], 2, 3),
            ([8], 4, 2),
            ([3, 3, 3], 1, 1),
        ]:
            spec = g_family_spec(cycles, q, s)
            closed_and_exact(spec)

    def test_paths_and_stars_match_brute(self):
        for spec in (
            ConeSpec(cycles=(3,), paths=(3, 2, 1)),
            ConeSpec(paths=(2,), stars13=1),
            ConeSpec(paths=(1,)),
            ConeSpec(paths=(9, 4), stars13=2),
        ):
            closed_and_exact(spec)

    def test_digons_give_the_multigraph_traces(self):
        # the identity covers digons, whose closing edge doubles: the count
        # route knows only simple graphs, the exact traces know both
        for spec, want in (
            (ConeSpec(cycles=(4, 2), paths=(1,)), (26, 134, 890, 6758, 258)),
            (ConeSpec(cycles=(2,), paths=(2,)), (14, 60, 314, 1780, 106)),
        ):
            q, a = exact_q_and_a_traces(realize(spec), 4)
            assert moments_closed_form(spec) == (*q, a[3]) == want, spec

    def test_matches_brute_force_on_random_cones(self):
        # long paths, 0-2 stars and C3/C4 blocks, n <= 40
        rng = random.Random(33)
        checked = 0
        while checked < 200:
            cycles = [rng.choice((3, 3, 4, 4, 5, 6, 8)) for _ in range(rng.randint(0, 3))]
            paths = [rng.choice((1, 1, 2, 2, 3, 4, 6, 11, 17, 25)) for _ in range(rng.randint(0, 4))]
            stars = rng.randint(0, 2)
            if not (cycles or paths or stars):
                continue
            spec = ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=stars)
            if spec.n > 40:
                continue
            closed_and_exact(spec)
            checked += 1


# the longest block _walk_sums(kind, size, ORDER) takes as its own powers;
# longer ones continue the affine run
ORDER = 8
FAR = ORDER + 3


def _exact_walk_sums(kind: str, size: int, order: int) -> tuple[int, ...]:
    """`_walk_sums` from the block's own integer powers: tr M^j (j = 1..order),
    then 1ᵀM^j 1 (j < order), for M = Q_B + I and then A_B."""
    g = path_graph(size) if kind == "path" else digon() if size == 2 else cycle_graph(size)
    adj = g.mult.astype(object)
    sums = []
    for m in (adj + np.diag(g.degrees().astype(object) + 1), adj):
        power, traces, totals = np.identity(size, dtype=object), [], []
        for _ in range(order):
            totals.append(int(power.sum()))
            power = power @ m
            traces.append(int(power.trace()))
        sums += traces + totals
    return tuple(sums)


class TestAffineBound:
    """A block's walk sums of order R are affine in its length for paths
    from max(2, R - 1) vertices and for cycles from R + 1, and one vertex
    fewer breaks the run for R >= 2.  The blocks below the thresholds make
    the order-R signature: C3, C4 and K2 at R = 4 (with the digon), C5, C6,
    P3 and P4 on top at R = 6."""

    @staticmethod
    def _first_affine(kind: str, order: int) -> int:
        """The least length from which exact sums stay on one line, through
        length 2R + 4."""
        least, top = (2 if kind == "cycle" else 1), 2 * order + 4
        sums = {s: np.array(_exact_walk_sums(kind, s, order), dtype=object)
                for s in range(least, top + 1)}
        bent = [s for s in range(least, top - 1) if any(sums[s] - 2 * sums[s + 1] + sums[s + 2])]
        return max(bent, default=least - 1) + 1

    @pytest.mark.parametrize("order", range(1, ORDER + 1))
    def test_thresholds_and_their_tightness(self, order):
        path, cycle = self._first_affine("path", order), self._first_affine("cycle", order)
        assert path <= max(2, order - 1) and cycle <= order + 1
        if order >= 2:
            assert (path, cycle) == (max(2, order - 1), order + 1)

    @pytest.mark.parametrize("order", range(1, ORDER + 1))
    def test_walk_sums_are_exact_through_twice_the_order(self, order):
        # lengths past order + 3 continue the run through order + 2 and order + 3
        for kind, least in (("path", 1), ("cycle", 2)):
            for size in range(least, 2 * order + 5):
                assert _walk_sums(kind, size, order) == _exact_walk_sums(kind, size, order), (
                    kind, size)


def _trace_specs(count=72):
    """Seeded cones with digons, 0-2 claws, and paths and cycles below and
    above FAR, n <= 60."""
    rng = random.Random(20261020)
    specs = []
    while len(specs) < count:
        cycles = [rng.choice((2, 2, 3, 4, 5, 7, 9, 18, 19, 20, 24)) for _ in range(rng.randint(0, 3))]
        paths = [rng.choice((1, 2, 3, 4, 6, 18, 19, 20, 21, 27)) for _ in range(rng.randint(0, 3))]
        stars = rng.randint(0, 2)
        if cycles or paths or stars:
            spec = ConeSpec(cycles=tuple(cycles), paths=tuple(paths), stars13=stars)
            if spec.n <= 60 and spec not in specs:
                specs.append(spec)
    return specs


TRACE_SPECS = _trace_specs()


class TestConeTraces:
    def test_grid_covers_digons_claws_and_long_blocks(self):
        assert len(TRACE_SPECS) >= 60
        assert sum(spec.has_digon() for spec in TRACE_SPECS) >= 10
        assert {spec.stars13 for spec in TRACE_SPECS} == {0, 1, 2}
        assert sum(any(l > FAR for l in spec.paths) for spec in TRACE_SPECS) >= 15
        assert sum(any(k > FAR for k in spec.cycles) for spec in TRACE_SPECS) >= 15

    @pytest.mark.parametrize("spec", TRACE_SPECS, ids=format_spec_text)
    def test_matches_exact_traces(self, spec):
        # T1..T8 of Q, and tr A^1..A^8, S4 among them
        assert cone_traces(spec, ORDER) == exact_q_and_a_traces(realize(spec), ORDER)

    def test_every_order_is_a_prefix(self):
        for spec in TRACE_SPECS[:10]:
            q, a = cone_traces(spec, ORDER)
            for order in range(1, ORDER):
                assert cone_traces(spec, order) == (q[:order], a[:order]), (spec, order)

    def test_order_4096_cone(self):
        # the long-block path at n = 4 095, against the values the count
        # formulas gave
        spec = parse_spec_text("K1 v C4000 + 40K2 + 14K1")
        assert moments_closed_form(spec) == (
            16268, 16813438, 68669386988, 281200465256638, 33610072,
        )

    def test_one_vertex_base(self):
        # K1 v K1 is K2: Q has eigenvalues 2 and 0, A has 1 and -1
        assert cone_traces(ConeSpec(paths=(1,)), 6) == ((2, 4, 8, 16, 32, 64), (0, 2, 0, 2, 0, 2))


def _split(a: int, b: int, rest: ConeSpec) -> tuple[ConeSpec, ConeSpec]:
    """C_(a+b) ∪ rest and C_a ∪ C_b ∪ rest, as cones."""
    return tuple(
        ConeSpec(cycles=rest.cycles + cycles, paths=rest.paths, stars13=rest.stars13)
        for cycles in ((a + b,), (a, b))
    )


def _first_gap(q, other) -> int | None:
    """The least r with T_r unequal, or None when the prefixes agree."""
    return next((r for r, (x, y) in enumerate(zip(q, other), 1) if x != y), None)


class TestLongCycleLemma:
    """A cycle C_k adds k times a fixed walk sum to each T_r with r < k, so
    splitting C_(a+b) into C_a ∪ C_b keeps T1..T_(m-1), m = min(a, b), and
    the walks that wind once round C_m first tell them apart at T_m."""

    def test_split_grid(self):
        rng = random.Random(20261022)
        pairs = 0
        for a in range(3, 16):
            for b in range(3, a + 1):
                whole, split = _split(a, b, random_cone_spec(rng, max_path=6))
                assert _first_gap(cone_traces(whole, b)[0], cone_traces(split, b)[0]) == b, (a, b)
                pairs += 1
        assert pairs == 91

    def test_small_splits_against_exact_traces(self):
        # the matrix powers of cones built block by block, with no `src` walk sums
        rng = random.Random(20261023)
        for a, b in ((3, 3), (4, 3), (5, 4), (6, 5), (7, 7)):
            whole, split = _split(a, b, random_cone_spec(rng, max_path=4))
            q, other = (exact_q_and_a_traces(cone_from_builders(s), b + 1)[0] for s in (whole, split))
            assert _first_gap(q, other) == b, (a, b)
            assert (q, other) == (cone_traces(whole, b + 1)[0], cone_traces(split, b + 1)[0])


def _signature_profiles():
    """The profiles of a seeded G grid with n <= 24, and of cones with one
    claw and long paths."""
    rng = random.Random(20261018)
    profiles = set()
    while len(profiles) < 25:
        cycles = [rng.randint(3, 12) for _ in range(rng.randint(1, 3))]
        spec = g_family_spec(cycles, rng.randint(1, 4), rng.randint(1, 4))
        if spec.n <= 24:
            profiles.add(degree_profile(spec))
    for spec in (
        ConeSpec(cycles=(3,), paths=(7, 2, 1), stars13=1),
        ConeSpec(paths=(9, 5), stars13=1),
        ConeSpec(cycles=(4,), paths=(6, 3, 1), stars13=1),
    ):
        profiles.add(degree_profile(spec))
    return sorted(profiles)


SIGNATURE_PROFILES = _signature_profiles()


class TestSignatureMoments:
    def test_every_candidate_has_the_moments_of_its_signature(self):
        checked = 0
        for profile in SIGNATURE_PROFILES:
            for spec in slices_union(profile):
                sig = _signature_moments(*signature(spec))
                assert moments_closed_form(spec) == sig, spec
                assert moments_from_counts(realize(spec)) == sig, spec
                checked += 1
        assert checked >= 1000

    def test_per_block_shifts(self):
        # T4: +8 per C4, +72 per C3, +4 per K2 (so -4 per path of order >= 3);
        # T3: +6 per C3; S4: +8 per C4; T1 and T2 fixed by the profile
        for profile in SIGNATURE_PROFILES:
            for k3, k4, nk2 in ((0, 0, 0), (1, 2, 1), (2, 0, 3)):
                base = _signature_moments(profile, k3, k4, nk2)
                for step, shift in (
                    ((1, 0, 0), (0, 0, 6, 72, 0)),
                    ((0, 1, 0), (0, 0, 0, 8, 8)),
                    ((0, 0, 1), (0, 0, 0, 4, 0)),
                ):
                    moved = _signature_moments(
                        profile, k3 + step[0], k4 + step[1], nk2 + step[2]
                    )
                    assert tuple(b - a for a, b in zip(base, moved)) == shift

    def test_signatures_inverts_the_signature(self):
        for profile in SIGNATURE_PROFILES:
            by_moments: dict = {}
            for spec in slices_union(profile):
                sig = signature(spec)
                by_moments.setdefault(_signature_moments(*sig)[:4], set()).add(sig[1:])
            for moments, sigs in by_moments.items():
                found = _signatures(profile, moments)
                assert sigs <= set(found)
                for sig in found:
                    assert _signature_moments(profile, *sig)[:4] == moments

    def test_no_signature_for_foreign_moments(self):
        profile = degree_profile(FLAGSHIP)
        t1, t2, t3, t4, _ = _signature_moments(profile, 1, 0, 1)
        assert _signatures(profile, (t1, t2, t3, t4)) == [(1, 0, 1)]
        assert _signatures(profile, (t1, t2, t3 + 3, t4)) == []
        assert _signatures(profile, (t1, t2, t3, t4 + 2)) == []
        assert _signatures(profile, (t1, t2, t3 - 6, t4)) == []

    @pytest.mark.parametrize("profile", [
        (0, 1, 3, 0),   # odd number of path endpoints
        (-1, 4, 3, 0),  # a negative entry
        (0, 1, 3, 1),   # fewer degree-2 vertices than three per claw
    ])
    def test_profile_of_no_cone(self, profile):
        # the claw levels of `_candidates` keep n2 - 3·n4 even and >= 0, but
        # a top level can go negative, as the second does: none has a member
        assert _path_blocks(profile) is None
        assert _family_size(profile) == 0
        assert list(_family_with_signature(profile, 0, 0, 0)) == []

    def test_signature_of_no_cone_is_a_base(self):
        # no cone has C4's profile and no C4 (its cycles would be of length
        # >= 5 on 4 vertices), yet that signature is the base the C4 shift
        # of `_signatures` starts from
        base = _signature_moments((0, 0, 4, 0), 0, 0, 0)
        c4 = _signature_moments((0, 0, 4, 0), np.int64(0), 1, 0)
        assert c4 == moments_closed_form(ConeSpec(cycles=(4,)))
        assert [b - a for a, b in zip(base[:4], c4[:4])] == [0, 0, 0, 8]


def _shift(spec: ConeSpec, other: ConeSpec) -> tuple[int, int]:
    """(S4, T4) shift from spec to other: closed-form moment differences."""
    a, b = moments_closed_form(spec), moments_closed_form(other)
    return b.s4 - a.s4, b.t4 - a.t4


class TestDeltaMoments:
    def test_single_cycle_to_paths(self):
        g = g_family_spec([5], 2, 1)
        other = ConeSpec(paths=(7, 2, 1))
        assert _shift(g, other) == (0, -4)

    def test_even_split(self):
        g = g_family_spec([6], 2, 1)
        other = ConeSpec(cycles=(4,), paths=(3, 3, 1))
        assert _shift(g, other) == (8, 0)

    def test_identity_pair(self):
        g = g_family_spec([5, 4], 2, 2)
        assert _shift(g, g) == (0, 0)

    def test_matches_direct_differences(self):
        pairs = [
            (g_family_spec([5], 2, 1), ConeSpec(paths=(7, 2, 1))),
            (g_family_spec([6], 2, 1), ConeSpec(cycles=(4,), paths=(3, 3, 1))),
            (g_family_spec([7], 2, 1), ConeSpec(cycles=(3,), paths=(4, 4, 1))),
            (g_family_spec([4, 3], 2, 2), ConeSpec(paths=(7, 4, 1, 1))),
        ]
        for g_spec, o_spec in pairs:
            ds4, dt4 = _shift(g_spec, o_spec)
            mg = moments_from_counts(realize(g_spec))
            mo = moments_from_counts(realize(o_spec))
            k3_shift = sum(1 for k in o_spec.cycles if k == 3) - sum(
                1 for k in g_spec.cycles if k == 3
            )
            assert mo.t1 == mg.t1 and mo.t2 == mg.t2
            assert mo.t3 - mg.t3 == 6 * k3_shift
            assert (mo.s4 - mg.s4, mo.t4 - mg.t4) == (ds4, dt4)


class TestProfile:
    def test_flagship_profile(self):
        t1, t2, t3, _, _ = moments_from_counts(realize(FLAGSHIP))
        assert _profile(t1, t2, t3, 7) == (1, 2, 3, 0)

    def test_c5_two_k2_profiles(self):
        spec = g_family_spec([5], 2, 1)
        t1, t2, t3, _, _ = moments_from_counts(realize(spec))
        profile = _profile(t1, t2, t3, 11)
        assert profile == (1, 4, 5, 0)
        assert claw_level(profile, 1) == (0, 7, 2, 1)
        assert min(claw_level(profile, 2)) < 0

    @pytest.mark.parametrize("moments", [
        (10, 30, 80, 6),  # n3 = -5
        (10, 31, 80, 6),  # 2·n3 = -9, odd
        (10, 42, 238, 6),  # n2 = -2 alone: (n1, n2, n3) = (6, -2, 1), no triangle
        (20, 84, 416, 6),  # n1 = -3 alone: (-3, 6, 2), no triangle
        (20, 93, 560, 7),  # the flagship's (20, 92, 560) with T2 odd against T1
        (20, 92, 563, 7),  # the flagship's, with T3 off a multiple of 6
        (20, 92, 560 - 6 * 6, 7),  # the flagship's, with six of its five triangles gone
    ], ids=["n3", "odd", "n2", "n1", "parity", "t3-remainder", "triangles"])
    def test_infeasible_moments(self, moments):
        assert moments_from_counts(realize(FLAGSHIP))[:3] == (20, 92, 560)
        assert _profile(*moments) is None

    def test_recovers_true_profiles(self):
        # The solver inverts the degree census for real family cones.
        for cycles, q, s in [([4], 1, 2), ([5, 3], 2, 1), ([6], 3, 2)]:
            spec = g_family_spec(cycles, q, s)
            g = realize(spec)
            t1, t2, t3, _, _ = moments_from_counts(g)
            n1 = spec.s
            n2 = 2 * spec.q
            n3 = sum(spec.cycles)
            assert _profile(t1, t2, t3, spec.n) == (n1, n2, n3, 0)

    def test_every_profile_has_its_path_blocks(self):
        # n2 = T1 - 2(n - 1) - 2·n3 is even and >= 0, so the signatures of
        # every solved profile have paths to count
        for profile in SIGNATURE_PROFILES:
            spec = slices_union(profile)[0]
            solved = _profile(*moments_closed_form(spec)[:3], spec.n)
            assert solved == claw_level(profile, -profile[3])
            assert _path_blocks(solved) == _path_blocks(profile)
