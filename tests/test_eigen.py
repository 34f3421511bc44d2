"""Eigenvalue machinery: the Jacobi oracle, grouped spectra, and the quartic
oracle's roots."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from qcones import (
    ConeSpec,
    EigensolverError,
    MultiGraph,
    ParameterError,
    QSpectrum,
    closed_spectrum,
    parse_spec_text,
    q_matrix,
    q_spectrum,
    realize,
    spectrum_compare,
    sym_eigenvalues,
)
from qcones import eigen
from qcones.eigen import Group, _q_rows

from helpers import (
    CHUNK_SIZES,
    BracketError,
    QuarticData,
    char_poly_4x4,
    cycle_graph,
    digon,
    disjoint_union,
    g_family_spec,
    jacobi_eigenvalues,
    path_graph,
    power_sum,
    quartic_coeffs,
    quartic_roots,
    quotient_matrix,
    random_graph,
    set_chunk,
)

# Signless Laplacian spectrum of the 7-vertex triangle cone, frozen from the
# package's own 12-significant-digit output after cross-checks against both
# the closed form and numpy.
FLAGSHIP_VALUES = (
    7.69075779415,
    4.2040547983,
    2.37632709104,
    2.0,
    2.0,
    1.0,
    0.728860316504,
)


def random_symmetric(rng, n):
    a = np.array([[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2


class TestQMatrix:
    def test_k2(self):
        assert np.array_equal(q_matrix(path_graph(2)), [[1, 1], [1, 1]])

    def test_digon_doubles_both_parts(self):
        assert np.array_equal(q_matrix(digon()), [[2, 2], [2, 2]])

    def test_diagonal_is_degrees(self):
        g = cycle_graph(5)
        assert np.array_equal(np.diag(q_matrix(g)), g.degrees())


class TestJacobi:
    def test_identity(self):
        vals = jacobi_eigenvalues(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])

    def test_triangle(self):
        vals = sorted(jacobi_eigenvalues(q_matrix(cycle_graph(3))), reverse=True)
        assert np.allclose(vals, [4, 1, 1], atol=1e-10)

    def test_c4(self):
        vals = sorted(jacobi_eigenvalues(q_matrix(cycle_graph(4))), reverse=True)
        assert np.allclose(vals, [4, 2, 2, 0], atol=1e-10)

    def test_k2(self):
        vals = sorted(jacobi_eigenvalues(q_matrix(path_graph(2))), reverse=True)
        assert np.allclose(vals, [2, 0], atol=1e-12)

    def test_digon(self):
        vals = sorted(jacobi_eigenvalues(q_matrix(digon())), reverse=True)
        assert np.allclose(vals, [4, 0], atol=1e-12)

    def test_matches_numpy_on_random_matrices(self):
        rng = random.Random(14)
        for _ in range(25):
            mat = random_symmetric(rng, rng.randrange(1, 13))
            ours = np.sort(jacobi_eigenvalues(mat))
            ref = np.sort(np.linalg.eigvalsh(mat))
            assert np.abs(ours - ref).max() <= 1e-10

    def test_preserves_trace_and_frobenius(self):
        rng = random.Random(15)
        for _ in range(10):
            mat = random_symmetric(rng, 8)
            vals = jacobi_eigenvalues(mat)
            assert math.isclose(vals.sum(), np.trace(mat), abs_tol=1e-9)
            assert math.isclose(
                (vals ** 2).sum(), (mat ** 2).sum(), abs_tol=1e-9
            )

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError, match="matrix is not symmetric within 1e-12"):
            jacobi_eigenvalues([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            jacobi_eigenvalues([[1.0, 2.0, 3.0]])


class TestQSpectrum:
    def test_sorted_descending(self):
        s = QSpectrum([1.0, 3.0, 2.0])
        assert list(s.values) == [3.0, 2.0, 1.0]

    def test_grouping(self):
        s = QSpectrum([2.0, 2.0 + 1e-12, 1.0], group_tol=1e-9)
        assert [(g.value, g.multiplicity) for g in s.groups][0][1] == 2
        assert len(s.groups) == 2

    def test_grouping_splits_beyond_tolerance(self):
        s = QSpectrum([2.0, 2.0 + 1e-6, 1.0], group_tol=1e-9)
        assert len(s.groups) == 3

    def test_power_sum(self):
        s = QSpectrum([2.0, 0.0])
        assert power_sum(s, 1) == 2
        assert power_sum(s, 4) == 16

    def test_multiplicity_at(self):
        s = q_spectrum(realize(g_family_spec([3], 1, 1)))
        assert s.multiplicity_at(2.0) == 2
        assert s.multiplicity_at(1.0) == 1
        assert s.multiplicity_at(10.0) == 0

    def test_zero_multiplicity_union(self):
        g = disjoint_union([cycle_graph(4), cycle_graph(3)])
        assert q_spectrum(g).multiplicity_at(0.0) == 1

    def test_sources_follow_values(self):
        s = QSpectrum([1.0, 3.0], sources=("low", "high"))
        assert s.sources == ("high", "low")
        assert s.groups[0].sources == ("high",)

    def test_sources_length_checked(self):
        with pytest.raises(ParameterError):
            QSpectrum([1.0, 2.0], sources=("only",))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            QSpectrum([])

    def test_flagship_trace(self):
        s = q_spectrum(realize(g_family_spec([3], 1, 1)))
        assert math.isclose(power_sum(s, 1), 20.0, abs_tol=1e-9)

    def test_flagship_values_frozen(self):
        s = q_spectrum(realize(g_family_spec([3], 1, 1)))
        assert np.abs(np.array(s.values) - np.array(FLAGSHIP_VALUES)).max() < 1e-8


def _eager_groups(values, tol, sources=None):
    """Consecutive descending values split where they gap by more than tol."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    vals = [values[i] for i in order]
    tags = [sources[i] for i in order] if sources is not None else None
    groups, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i - 1] - vals[i] > tol:
            members = tuple(sorted(set(tags[start:i]))) if tags is not None else ()
            groups.append(Group(float(np.mean(vals[start:i])), i - start, members))
            start = i
    return tuple(groups)


class TestLazyGroups:
    TOL = 2.0 ** -30

    def _spectra(self):
        rng = random.Random(11)
        for _ in range(60):
            size = rng.randrange(1, 12)
            # draws on a grid of step TOL / 2: many gaps land exactly on TOL
            values = [rng.randrange(0, 10) * self.TOL / 2 + rng.choice((0.0, 1.0, 3.5))
                      for _ in range(size)]
            sources = None
            if rng.random() < 0.5:
                sources = tuple(rng.choice("abc") for _ in range(size))
            yield values, sources

    def test_groups_match_eager_grouping(self):
        for values, sources in self._spectra():
            spec = QSpectrum(values, group_tol=self.TOL, sources=sources)
            eager = _eager_groups(values, self.TOL, sources)
            assert spec.groups == eager
            parts = ", ".join(f"{g.value:.6g}^{g.multiplicity}" for g in eager)
            assert repr(spec) == f"QSpectrum({parts})"
            for x in (0.0, 1.0, 3.5, values[0]):
                assert spec.multiplicity_at(x, tol=self.TOL) == sum(
                    g.multiplicity for g in eager if abs(g.value - x) <= self.TOL
                )

    @staticmethod
    def _bits(groups):
        return [(g.value.hex(), g.multiplicity, g.sources) for g in groups]

    def test_large_groups_match_eager_grouping_bitwise(self):
        # numpy sums blocks of more than 8 values pairwise, so each member's
        # low bits count: these means differ from np.add.reduceat sums
        rng = random.Random(40)
        for _ in range(40):
            values, sources = [], []
            for _ in range(rng.randrange(1, 5)):
                base = rng.uniform(0.0, 50.0)
                values += [base + rng.uniform(-1e-12, 1e-12) for _ in range(rng.randrange(8, 41))]
                sources += rng.choices("abc", k=len(values) - len(sources))
            values += [rng.uniform(0.0, 50.0) for _ in range(rng.randrange(0, 4))] + [-0.0]
            sources += ["d"] * (len(values) - len(sources))
            for tags in (None, tuple(sources)):
                spec = QSpectrum(values, group_tol=1e-9, sources=tags)
                assert max(g.multiplicity for g in spec.groups) >= 8
                assert self._bits(spec.groups) == self._bits(_eager_groups(values, 1e-9, tags))

    @pytest.mark.parametrize("text", ["K1 v 20K2 + 12K1", "K1 v C4 + C4 + C4 + C4 + C4 + K2 + K1"])
    def test_large_groups_of_cone_spectra_match_eager_grouping_bitwise(self, text):
        spec = parse_spec_text(text)
        for s in (closed_spectrum(spec), q_spectrum(realize(spec))):
            assert max(g.multiplicity for g in s.groups) >= 8
            eager = _eager_groups(s.values.tolist(), s.group_tol, s.sources)
            assert self._bits(s.groups) == self._bits(eager)

    def test_tie_at_the_tolerance_joins_the_group(self):
        spec = QSpectrum([1.0, 1.0 - self.TOL, 1.0 - 3 * self.TOL], group_tol=self.TOL)
        assert [g.multiplicity for g in spec.groups] == [2, 1]

    def test_groups_are_formed_once_and_only_on_use(self, monkeypatch):
        calls = []
        original = QSpectrum._group

        def counted(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(QSpectrum, "_group", counted)
        spec = q_spectrum(realize(g_family_spec([3], 1, 1)))
        power_sum(spec, 2)
        spectrum_compare(spec, spec)
        assert calls == []
        spec.groups
        repr(spec)
        spec.multiplicity_at(2.0)
        assert spec.groups is spec.groups
        assert calls == [1]


class TestQRows:
    def _graphs(self, n, count=7):
        """Simple graphs, then multigraphs with multiplicities up to 2."""
        rng = random.Random(n)
        graphs = [random_graph(rng, n, 0.5) for _ in range(count)]
        for _ in range(count):
            upper = np.triu([[rng.randrange(3) for _ in range(n)] for _ in range(n)], 1)
            graphs.append(MultiGraph(upper + upper.T))
        return graphs

    @pytest.mark.parametrize("matrices", CHUNK_SIZES)
    @pytest.mark.parametrize("n", [1, 5, 14, 24])
    def test_rows_are_the_reversed_q_spectrum_bitwise(self, monkeypatch, matrices, n):
        set_chunk(monkeypatch, matrices, n)
        graphs = self._graphs(n)
        chunks = list(_q_rows(q_matrix(g) for g in graphs))
        per = max(1, eigen.CHUNK_ENTRIES // (n * n))
        assert [len(c) for c in chunks[:-1]] == [per] * (len(chunks) - 1)
        rows = np.concatenate(chunks)
        expected = np.array([q_spectrum(g).values[::-1] for g in graphs])
        assert rows.tobytes() == expected.tobytes()

    def test_int64_stacks_give_the_generator_rows(self):
        # `search._spectra` hands over a ready int64 stack
        graphs = self._graphs(7, count=10)
        for k in range(1, len(graphs) + 1):
            stack = np.array([q_matrix(g) for g in graphs[:k]]).astype(np.int64)
            (want,) = _q_rows(q_matrix(g) for g in graphs[:k])
            (got,) = _q_rows(stack)
            assert got.tobytes() == want.tobytes()

    def test_small_batches_allocate_no_full_chunk(self):
        q = q_matrix(cycle_graph(7))
        tracemalloc.start()
        try:
            next(_q_rows((q,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < eigen.CHUNK_ENTRIES * 8 // 4

    def test_lone_float64_matrix_reaches_lapack_uncopied(self, monkeypatch):
        # a copy into a fresh stack would add 128 MB at n = 4 095
        seen = []
        original = eigen._eigvalsh

        def spy(a):
            seen.append(a)
            return original(a)

        monkeypatch.setattr(eigen, "_eigvalsh", spy)
        q = q_matrix(cycle_graph(6))
        (rows,) = _q_rows((q,))
        assert len(seen) == 1 and seen[0].shape == (1, 6, 6)
        assert np.shares_memory(seen[0], q)
        assert rows.tobytes() == original(q[None]).tobytes()

    def test_multigraph_rows(self):
        g = realize(ConeSpec(cycles=(2, 3), paths=(4, 1), stars13=1))
        (rows,) = _q_rows([q_matrix(g), q_matrix(g)])
        assert rows.tobytes() == np.array([q_spectrum(g).values[::-1]] * 2).tobytes()

    def test_empty_input_yields_nothing(self):
        assert list(_q_rows([])) == []

    def test_reads_matrices_only_as_chunks_need_them(self, monkeypatch):
        set_chunk(monkeypatch, 2, 3)
        fed = []

        def feed():
            for _ in range(5):
                fed.append(1)
                yield q_matrix(cycle_graph(3))

        next(_q_rows(feed()))
        assert len(fed) == 2

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError, match="matrix is not symmetric within 1e-12"):
            list(_q_rows([np.eye(3), np.array([[1.0, 1.0, 0], [0, 1.0, 0], [0, 0, 1.0]])]))

    def test_symmetrizes_within_tolerance(self):
        a = q_matrix(cycle_graph(5))
        b = a.copy()
        b[0, 1] += 1e-13
        (rows,) = _q_rows([b])
        assert rows[0].tobytes() == sym_eigenvalues(b).values[::-1].tobytes()

    def test_rejects_negative_values(self):
        with pytest.raises(EigensolverError, match="negative value"):
            list(_q_rows([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]))

    def test_lapack_failure_is_typed(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigensolverError):
            list(_q_rows([np.eye(2)]))
        with pytest.raises(EigensolverError):
            sym_eigenvalues(np.eye(2))


class TestSymEigenvalues:
    def test_exactly_symmetric_input_goes_to_lapack_uncopied(self, monkeypatch):
        seen = []
        original = eigen._eigvalsh

        def spy(a):
            seen.append(a)
            return original(a)

        monkeypatch.setattr(eigen, "_eigvalsh", spy)
        a = q_matrix(cycle_graph(6))
        sym_eigenvalues(a)
        assert seen[0] is a

    def test_nearly_symmetric_input_is_symmetrized(self):
        a = random_symmetric(random.Random(4), 6)
        b = a.copy()
        b[1, 2] += 1e-13
        assert sym_eigenvalues(b).values.tobytes() == sym_eigenvalues(
            0.5 * (b + b.T)
        ).values.tobytes()

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError, match="matrix is not symmetric within 1e-12"):
            sym_eigenvalues([[1.0, 2.0], [0.0, 1.0]])


class TestSpectrumCompare:
    def test_self_distance_zero(self):
        s = q_spectrum(cycle_graph(5))
        assert spectrum_compare(s, s) == 0.0

    def test_flagship_pair(self):
        g = q_spectrum(realize(g_family_spec([3], 1, 1)))
        f = q_spectrum(realize(ConeSpec(paths=(2,), stars13=1)))
        assert spectrum_compare(g, f) <= 1e-8

    def test_c4_versus_k3_plus_k1(self):
        a = q_spectrum(cycle_graph(4))
        b = q_spectrum(disjoint_union([cycle_graph(3), path_graph(1)]))
        # {4,2,2,0} versus {4,1,1,0}: largest entrywise gap is 1.
        assert math.isclose(spectrum_compare(a, b), 1.0, abs_tol=1e-9)

    def test_size_mismatch(self):
        with pytest.raises(ParameterError, match="spectra sizes differ: 3 vs 4"):
            spectrum_compare(q_spectrum(cycle_graph(3)), q_spectrum(cycle_graph(4)))


class TestCharPoly:
    def test_identity(self):
        assert np.allclose(char_poly_4x4(np.eye(4)), (1, -4, 6, -4, 1))

    def test_diagonal(self):
        coeffs = char_poly_4x4(np.diag([5.0, 3.0, 1.0, 0.0]))
        assert np.allclose(coeffs, (1, -9, 23, -15, 0))

    def test_quotient_flagship(self):
        coeffs = char_poly_4x4(quotient_matrix(7, 1, 1))
        assert np.allclose(coeffs, (1, -15, 71, -121, 56))

    def test_against_determinant_oracle(self):
        rng = random.Random(16)
        for _ in range(10):
            mat = np.array(
                [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
            )
            coeffs = char_poly_4x4(mat)
            for x in (0.0, 1.0, -2.0, 3.7):
                direct = np.linalg.det(x * np.eye(4) - mat)
                horner = 0.0
                for c in coeffs:
                    horner = horner * x + c
                assert math.isclose(horner, direct, rel_tol=1e-9, abs_tol=1e-9)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ParameterError):
            char_poly_4x4(np.eye(3))


class TestQuartic:
    def data(self):
        return QuarticData(
            coeffs=(1.0, -15.0, 71.0, -121.0, 56.0),
            brackets=((7.0, 9.0), (4.0, 5.0), (2.0, 3.0), (0.0, 1.0)),
        )

    def test_evaluation(self):
        p = self.data()
        assert p(7.0) == -56.0
        assert p(8.0) == 48.0
        assert p(0.0) == 56.0
        assert p(1.0) == -8.0

    def test_derivative(self):
        p = self.data()
        h = 1e-7
        for x in (0.5, 2.0, 6.0):
            numeric = (p(x + h) - p(x - h)) / (2 * h)
            assert math.isclose(p.derivative(x), numeric, rel_tol=1e-5)

    def test_roots_descending_with_small_residuals(self):
        p = self.data()
        roots = quartic_roots(p)
        assert roots == tuple(sorted(roots, reverse=True))
        assert math.isclose(sum(roots), 15.0, abs_tol=1e-9)
        for r in roots:
            assert abs(p(r)) <= 1e-9 * 121.0

    def test_bad_bracket(self):
        p = QuarticData(
            coeffs=(1.0, -15.0, 71.0, -121.0, 56.0),
            brackets=((7.5, 7.6), (4.0, 5.0), (2.0, 3.0), (0.0, 1.0)),
        )
        with pytest.raises(BracketError):
            quartic_roots(p)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ParameterError):
            QuarticData(coeffs=(1.0, 2.0), brackets=((0.0, 1.0),))


class TestQuarticAtLargeOrder:
    """Brackets above 512, where bisection reaches adjacent floats before
    width 1e-13, against exact roots."""

    @pytest.mark.parametrize("n, q, s", [(4096, 2, 1), (4096, 40, 14), (4096, 1, 3)])
    def test_roots_match_exact_roots(self, n, q, s):
        sp = pytest.importorskip("sympy")
        data = quartic_coeffs(n, q, s)
        x = sp.Symbol("x")
        exact = sorted(
            (sp.N(r, 40) for r in sp.real_roots(sp.Poly([int(c) for c in data.coeffs], x))),
            reverse=True,
        )
        roots = quartic_roots(data)
        for r, e in zip(roots, exact):
            assert abs(sp.Float(r, 40) - e) <= 1e-12 * max(1, abs(e))
            # the bound quartic_roots enforces on its own output
            assert abs(data(r)) <= 1e-12 * max(1.0, abs(r)) * abs(data.derivative(r))
