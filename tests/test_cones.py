"""Closed-form cone spectra, explicit eigenvectors, and mate constructions."""

import math
import random
import time

import numpy as np
import pytest

from qcones import (
    ConeSpec,
    InapplicableError,
    ParameterError,
    ScaleError,
    closed_spectrum,
    even_cycle_split_candidate,
    largest_q_eigenvalue,
    parse_spec_text,
    q_matrix,
    q_spectrum,
    realize,
    spectrum_compare,
    triangle_star_mate,
)
from qcones import cones
from qcones.eigen import GROUP_TOL

from helpers import (
    RESIDUAL_TOL,
    char_poly_4x4,
    cycle_graph,
    digon,
    eager_groups,
    eigenvector_families,
    g_family_spec,
    is_f_family,
    multiplicity_at,
    path_graph,
    power_sum,
    quartic_coeffs,
    quartic_roots,
    quotient_matrix,
    random_cone_spec,
    residual,
    star_graph,
)

FLAGSHIP = g_family_spec([3], 1, 1)


class TestQuarticCoeffs:
    @pytest.mark.parametrize(
        "n,q,s,expected",
        [
            (7, 1, 1, (1, -15, 71, -121, 56)),
            (10, 1, 1, (1, -18, 95, -178, 92)),
            (12, 2, 3, (1, -20, 111, -204, 88)),
        ],
    )
    def test_frozen_coefficients(self, n, q, s, expected):
        assert quartic_coeffs(n, q, s).coeffs == tuple(float(c) for c in expected)

    def test_brackets(self):
        data = quartic_coeffs(7, 1, 1)
        assert data.brackets == ((7.0, 9.0), (4.0, 5.0), (2.0, 3.0), (0.0, 1.0))

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ParameterError):
            quartic_coeffs(7, 0, 1)
        with pytest.raises(ParameterError):
            quartic_coeffs(7, 1, 0)
        with pytest.raises(ParameterError):
            quartic_coeffs(5, 1, 1)  # no room for a cycle block

    def test_roots_sum_to_trace(self):
        roots = quartic_roots(quartic_coeffs(7, 1, 1))
        assert math.isclose(sum(roots), 15.0, abs_tol=1e-9)


class TestQuotientMatrix:
    def test_flagship_matrix(self):
        expected = [[6, 3, 2, 1], [1, 5, 0, 0], [1, 0, 3, 0], [1, 0, 0, 1]]
        assert np.array_equal(quotient_matrix(7, 1, 1), expected)

    @pytest.mark.parametrize("n,q,s", [(7, 1, 1), (12, 2, 3), (20, 4, 2), (9, 1, 2)])
    def test_char_poly_matches_quartic(self, n, q, s):
        coeffs = char_poly_4x4(quotient_matrix(n, q, s))
        assert np.allclose(coeffs, quartic_coeffs(n, q, s).coeffs, atol=1e-8)

    def test_largest_eigenvalue_matches_cone(self):
        # The quotient is not symmetric; use the general eigensolver.
        top_quotient = np.linalg.eigvals(quotient_matrix(7, 1, 1)).real.max()
        top_cone = q_spectrum(realize(FLAGSHIP)).values[0]
        assert math.isclose(top_quotient, top_cone, abs_tol=1e-8)

    def test_rejects_inconsistent_parameters(self):
        with pytest.raises(ParameterError):
            quotient_matrix(5, 1, 1)


class TestClosedSpectrumG:
    def test_flagship_against_numeric(self):
        assert FLAGSHIP.is_g_family()
        closed = closed_spectrum(FLAGSHIP)
        numeric = q_spectrum(realize(FLAGSHIP))
        assert spectrum_compare(closed, numeric) <= 1e-8

    def test_small_grid_against_numeric(self):
        for cycles, q, s in [
            ([4], 1, 1),
            ([5], 2, 1),
            ([3, 3], 1, 2),
            ([6, 4], 2, 2),
            ([7], 3, 1),
            ([3, 4, 5], 2, 3),
        ]:
            spec = g_family_spec(cycles, q, s)
            assert spec.is_g_family()
            closed = closed_spectrum(spec)
            numeric = q_spectrum(realize(spec))
            assert spectrum_compare(closed, numeric) <= 1e-8

    def test_trace_is_twice_size(self):
        spec = g_family_spec([5, 3], 2, 2)
        m = realize(spec).num_edges
        assert math.isclose(power_sum(closed_spectrum(spec), 1), 2 * m, abs_tol=1e-8)

    def test_multiplicity_of_one_counts_even_cycles(self):
        assert multiplicity_at(closed_spectrum(g_family_spec([4], 1, 1)), 1.0) == 2
        assert multiplicity_at(closed_spectrum(g_family_spec([3], 1, 1)), 1.0) == 1
        spec = g_family_spec([6, 4, 3], 2, 2)
        assert multiplicity_at(closed_spectrum(spec), 1.0) == 2 + 2 - 1 + 2

    def test_second_value_is_five_only_with_two_cycles(self):
        one = closed_spectrum(g_family_spec([5], 1, 1))
        assert eager_groups(one.values.tolist(), GROUP_TOL)[1].value < 5.0 - 1e-9
        two = closed_spectrum(g_family_spec([5, 3], 1, 1))
        assert multiplicity_at(two, 5.0) >= 1

    def test_source_tags(self):
        s = closed_spectrum(g_family_spec([4], 1, 1))
        assert "3+2cos(π)" in s.sources
        assert "3+2cos(π/2)" in s.sources
        assert s.sources.count("1") == 1
        assert {f"quartic-{i}" for i in range(1, 5)} <= set(s.sources)

class TestClosedSpectrum:
    def test_paths_share_main_values(self):
        # 2π/3 = 6π/9 and 0 are main in P3 and P9; the other mains of P9 are
        # 2π/9, 4π/9 and 8π/9, so the quotient has 5 + 1 rows
        spec = ConeSpec(paths=(9, 3))
        closed = closed_spectrum(spec)
        assert closed.sources.count("3-2cos(2π/3)") == 1
        assert closed.sources.count("1") == 1
        assert sorted(t for t in closed.sources if t.startswith("quotient-")) == [
            f"quotient-{i}" for i in range(1, 7)
        ]
        assert spectrum_compare(closed, q_spectrum(realize(spec))) <= 1e-12

    def test_quotient_takes_the_order_cap(self):
        # P8200 has 4 100 main values; a G cone keeps a 4 x 4 quotient at any order
        with pytest.raises(ScaleError, match="quotient of order at least 4097 exceeds 4096"):
            closed_spectrum(ConeSpec(paths=(8200,)))
        assert len(closed_spectrum(g_family_spec([9000], 1, 1))) == 9004

    def test_cap_stops_the_walk(self, monkeypatch):
        # P_l has ceil(l/2) main values: under a cap of 8 the walk raises
        # from P15 on, exactly where the quotient would be too large
        monkeypatch.setattr(cones, "MAX_VERTICES", 8)
        for l in range(1, 20):
            if l < 15:
                assert largest_q_eigenvalue(ConeSpec(paths=(l,))) > 0
            else:
                with pytest.raises(ScaleError, match="order at least 9 exceeds 8"):
                    largest_q_eigenvalue(ConeSpec(paths=(l,)))

    def test_long_path_raises_before_its_walk(self):
        # P10^6 alone has 500 000 main values, and P2000..P3999 2.8 million
        # together; walking them all took seconds
        for spec in (
            ConeSpec(paths=(10 ** 6,)),
            ConeSpec(cycles=(5,), paths=(10 ** 6, 3)),
            ConeSpec(paths=tuple(range(2000, 4000))),
        ):
            for call in (largest_q_eigenvalue, closed_spectrum):
                start = time.perf_counter()
                with pytest.raises(ScaleError, match="order at least 4097 exceeds 4096"):
                    call(spec)
                assert time.perf_counter() - start < 0.1


class TestClosedSpectrumF:
    def test_degenerate_star_case(self):
        spec = ConeSpec(paths=(2,), stars13=1)
        assert is_f_family(spec)
        closed = closed_spectrum(spec)
        numeric = q_spectrum(realize(spec))
        assert spectrum_compare(closed, numeric) <= 1e-8
        assert multiplicity_at(closed, 2.0) == 2
        assert multiplicity_at(closed, 1.0) == 1

    def test_matches_triangle_cone_exactly(self):
        f = closed_spectrum(ConeSpec(paths=(2,), stars13=1))
        g = closed_spectrum(FLAGSHIP)
        assert spectrum_compare(f, g) <= 1e-12

    def test_trace(self):
        f = closed_spectrum(ConeSpec(paths=(2,), stars13=1))
        assert math.isclose(power_sum(f, 1), 20.0, abs_tol=1e-9)

    def test_small_grid_against_numeric(self):
        for cycles, paths in [
            ((5,), (2, 1)),
            ((4, 3), (2, 2)),
            ((), (2, 2, 1, 1)),
            ((6,), (2, 2, 2)),
        ]:
            spec = ConeSpec(cycles=cycles, paths=paths, stars13=1)
            assert is_f_family(spec)
            closed = closed_spectrum(spec)
            numeric = q_spectrum(realize(spec))
            assert spectrum_compare(closed, numeric) <= 1e-8

class TestLargestEigenvalue:
    def test_interval(self):
        for cycles, q, s in [([3], 1, 1), ([8], 2, 3), ([4, 4], 3, 1)]:
            spec = g_family_spec(cycles, q, s)
            chi1 = largest_q_eigenvalue(spec)
            assert spec.n < chi1 < spec.n + 2

    def test_redistribution_invariance_with_digons(self):
        # Four cycle vertices split as one C4, two digons, or C3+loopless
        # digon all give the same top eigenvalue at fixed (n, q, s).
        variants = [
            ConeSpec(cycles=(4,), paths=(2, 1)),
            ConeSpec(cycles=(2, 2), paths=(2, 1)),
        ]
        values = [largest_q_eigenvalue(v) for v in variants]
        assert max(values) - min(values) <= 1e-9
        for v in variants:
            numeric = q_spectrum(realize(v)).values[0]
            assert math.isclose(values[0], numeric, abs_tol=1e-8)

    def test_matches_quartic_root(self):
        spec = ConeSpec(cycles=(3, 2), paths=(2, 2, 1))
        top = quartic_roots(quartic_coeffs(spec.n, spec.q, spec.s))[0]
        # the quotient eigensolve and the bisected quartic share no code
        assert abs(largest_q_eigenvalue(spec) - top) <= 1e-12

    def test_builds_no_cycle_values(self, monkeypatch):
        # a cycle adds one main value in O(1); its k - 1 plain values are
        # closed_spectrum's alone
        def no_cycle_values(k):
            raise AssertionError(f"built the plain values of C{k}")

        monkeypatch.setattr(cones, "_cycle_values", no_cycle_values)
        spec = ConeSpec(cycles=(10**6,), paths=(2, 1))
        top = quartic_roots(quartic_coeffs(spec.n, spec.q, spec.s))[0]
        assert math.isclose(largest_q_eigenvalue(spec), top, rel_tol=1e-12)
        with pytest.raises(AssertionError, match="C1000000"):
            closed_spectrum(spec)

    def test_matches_the_numeric_top_value_on_any_spec(self):
        # digons, paths up to order 13 and 0-2 claws, with or without K2 and K1
        rng = random.Random(20261018)
        for _ in range(2000):
            spec = random_cone_spec(rng, max_path=13)
            numeric = q_spectrum(realize(spec)).values[0]
            assert math.isclose(largest_q_eigenvalue(spec), numeric, rel_tol=1e-13), spec


def _eigenbasis(spec):
    """The explicit eigenbasis of a family spec, each vector checked against Q."""
    qm = q_matrix(realize(spec))
    fams = eigenvector_families(spec)
    for label, value, vec in fams:
        assert residual(qm, value, vec) <= RESIDUAL_TOL, (spec, label, value)
    return fams


def _by_label(fams):
    by_label = {}
    for label, value, vec in fams:
        by_label.setdefault(label, []).append((value, vec))
    return by_label


class TestEigenvectorFamilies:
    def test_counts_g_family(self):
        spec = g_family_spec([4, 3], 2, 2)
        fams = _eigenbasis(spec)
        by_label = _by_label(fams)
        assert len(by_label["eig-1"]) == spec.s + spec.q - 1
        assert len(by_label["eig-3"]) == spec.q - 1
        assert len(by_label["eig-5"]) == spec.t - 1
        assert len(by_label["cycle-lift"]) == sum(k - 1 for k in spec.cycles)
        assert len(by_label["quartic"]) == 4
        assert len(fams) == spec.n

    def test_counts_f_family(self):
        spec = ConeSpec(cycles=(5, 3), paths=(2, 2, 1), stars13=1)
        fams = _eigenbasis(spec)
        by_label = _by_label(fams)
        assert len(by_label["eig-1"]) == 3
        assert len(by_label["eig-2"]) == 2
        assert len(by_label["eig-3"]) == 1
        assert len(by_label["eig-5"]) == 2
        assert len(by_label["cycle-lift"]) == 6
        assert len(by_label["quartic"]) == 4
        assert len(fams) == spec.n

    def test_residuals_and_rank(self):
        for spec in [FLAGSHIP, g_family_spec([5, 4], 2, 1),
                     ConeSpec(cycles=(4,), paths=(2, 1), stars13=1)]:
            stacked = np.vstack([vec for _, _, vec in _eigenbasis(spec)])
            assert np.linalg.matrix_rank(stacked, tol=1e-9) == spec.n

    def test_cycle_pair_vector_shape(self):
        spec = g_family_spec([5, 7], 1, 1)
        # documented order: isolated 0, K2 1-2, C7 3-9, C5 10-14, apex 15
        cycle_blocks = [range(3, 10), range(10, 15)]
        fams = _by_label(_eigenbasis(spec))["eig-5"]
        assert len(fams) == 1
        value, vec = fams[0]
        assert math.isclose(value, 5.0)
        # Constant on each cycle block, zero elsewhere, zero total sum.
        for block in cycle_blocks:
            assert np.ptp(vec[block]) == 0.0
        mask = np.ones(spec.n, dtype=bool)
        for block in cycle_blocks:
            mask[block] = False
        assert np.all(vec[mask] == 0.0)
        assert math.isclose(vec.sum(), 0.0, abs_tol=1e-12)

    def test_k2_pair_vector_shape(self):
        spec = g_family_spec([4], 2, 1)
        fams = _by_label(_eigenbasis(spec))["eig-3"]
        assert len(fams) == 1
        value, vec = fams[0]
        assert math.isclose(value, 3.0)
        support = set(np.nonzero(vec)[0])
        # documented order: isolated 0, K2s 1-2 and 3-4, C4 5-8, apex 9
        assert support <= {1, 2, 3, 4}
        assert math.isclose(vec.sum(), 0.0, abs_tol=1e-12)

    def test_quartic_residual_flagship(self):
        qm = q_matrix(realize(FLAGSHIP))
        top, vec = max(_by_label(eigenvector_families(FLAGSHIP))["quartic"], key=lambda f: f[0])
        assert 7 < top < 9
        assert residual(qm, top, vec) <= RESIDUAL_TOL

    def test_rejects_non_family(self):
        with pytest.raises(ParameterError, match="eigenvector construction needs a family spec"):
            eigenvector_families(ConeSpec(cycles=(3,), paths=(3, 1)))


class TestTriangleStarMate:
    def test_flagship(self):
        mate = triangle_star_mate(FLAGSHIP)
        assert mate == ConeSpec(paths=(2,), stars13=1)
        assert mate.n == FLAGSHIP.n
        assert realize(mate).num_edges == realize(FLAGSHIP).num_edges

    def test_multi_cycle(self):
        spec = g_family_spec([3, 5], 2, 2)
        mate = triangle_star_mate(spec)
        assert mate == ConeSpec(cycles=(5,), paths=(2, 2, 1), stars13=1)

    def test_cospectral_but_not_isomorphic(self):
        rng = random.Random(17)
        pairs = []
        for _ in range(8):
            cycles = [3] + [rng.randrange(3, 9) for _ in range(rng.randrange(0, 2))]
            spec = g_family_spec(cycles, rng.randrange(1, 4), rng.randrange(1, 4))
            pairs.append((spec, triangle_star_mate(spec)))
        # the C3 + K1 -> K13 swap applied twice, which no single mate makes
        pairs.append((
            parse_spec_text("K1 v C3 + C3 + K2 + 2K1"), parse_spec_text("K1 v K13 + K13 + K2"),
        ))
        for spec, mate in pairs:
            ga, gb = realize(spec), realize(mate)
            assert spectrum_compare(q_spectrum(ga), q_spectrum(gb)) <= 1e-8
            assert sorted(ga.degrees()) != sorted(gb.degrees())

    def test_requires_triangle(self):
        with pytest.raises(InapplicableError):
            triangle_star_mate(g_family_spec([4], 1, 1))

    def test_requires_isolated_vertex(self):
        with pytest.raises(InapplicableError):
            triangle_star_mate(ConeSpec(cycles=(3,), paths=(2,)))


def _block_graphs(spec: ConeSpec) -> list:
    """The base blocks of a spec as graphs, independently of `realize`."""
    return (
        [digon() if k == 2 else cycle_graph(k) for k in spec.cycles]
        + [path_graph(l) for l in spec.paths]
        + [star_graph(4)] * spec.stars13
    )


def _phi_psi(sp, block):
    """(phi_B, psi_B) of one base block, as sympy polynomials in x."""
    x = sp.Symbol("x")
    m = sp.Matrix(q_matrix(block).astype(int).tolist()) + sp.eye(block.n)
    phi = m.charpoly(x).as_expr()
    # det(xI - M + J) is the characteristic polynomial of M - J
    return phi, sp.expand((m - sp.ones(block.n, block.n)).charpoly(x).as_expr() - phi)


class TestTheorem13Exact:
    """Theorem 13 as an exact polynomial identity.

    With the apex last, Q of a cone is [[M, 1], [1^T, n - 1]] with
    M = Q_H + I block diagonal.  For a block B let phi_B = det(xI - M_B) and
    psi_B = det(xI - M_B + J) - phi_B.  The matrix determinant lemma gives
    det(xI - Q) = Phi (x - n + 1) - sum_B psi_B prod_{B' != B} phi_B', with
    Phi the product of all phi_B.  If C3 + K1 and K13 have the same phi and
    the same psi-sum, swapping one for the other keeps the characteristic
    polynomial, for every other block and every number of swaps.
    """

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    def test_claw_block_matches_triangle_plus_isolated_vertex(self, sp):
        phi_c3, psi_c3 = _phi_psi(sp, cycle_graph(3))
        phi_k1, psi_k1 = _phi_psi(sp, path_graph(1))
        phi_k13, psi_k13 = _phi_psi(sp, star_graph(4))
        assert sp.expand(phi_c3 * phi_k1 - phi_k13) == 0
        assert sp.expand(psi_c3 * phi_k1 + psi_k1 * phi_c3 - psi_k13) == 0

    @pytest.mark.parametrize("text", [
        "K1 v C3 + P3 + K2 + K1",
        "K1 v C2 + C3 + K2 + K1",
        "K1 v K13 + C4 + K2",
    ])
    def test_bordered_identity_is_the_characteristic_polynomial(self, sp, text):
        x = sp.Symbol("x")
        spec = parse_spec_text(text)
        blocks = [_phi_psi(sp, b) for b in _block_graphs(spec)]
        phis = [phi for phi, _ in blocks]
        bordered = sp.Mul(*phis) * (x - spec.n + 1) - sum(
            psi * sp.Mul(*(phis[:i] + phis[i + 1:])) for i, (_, psi) in enumerate(blocks)
        )
        q = sp.Matrix(q_matrix(realize(spec)).astype(int).tolist())
        assert sp.expand(bordered - q.charpoly(x).as_expr()) == 0


class TestEvenCycleSplit:
    def test_c6_candidate(self):
        spec = g_family_spec([6], 2, 1)
        candidate, _, _ = even_cycle_split_candidate(spec)
        assert candidate == ConeSpec(cycles=(4,), paths=(3, 3, 1))
        dist = spectrum_compare(q_spectrum(realize(spec)), q_spectrum(realize(candidate)))
        assert math.isfinite(dist) and dist >= 0.0

    def test_candidate_preserves_counts(self):
        spec = g_family_spec([8], 3, 2)
        candidate, _, _ = even_cycle_split_candidate(spec)
        ga, gb = realize(spec), realize(candidate)
        assert ga.n == gb.n
        assert ga.num_edges == gb.num_edges
        assert sorted(ga.degrees()) == sorted(gb.degrees())

    @pytest.mark.parametrize(
        "cycles,q,s",
        [([5], 2, 1), ([6, 6], 2, 1), ([6], 1, 1), ([4], 2, 1)],
    )
    def test_rejects_out_of_scope(self, cycles, q, s):
        with pytest.raises(InapplicableError):
            even_cycle_split_candidate(g_family_spec(cycles, q, s))
