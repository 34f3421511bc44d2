"""Independent checks of the CLI's JSON output.

Each check rebuilds what the output claims from the benchmark's own
adjacency matrices: spectra from ``np.linalg.eigvalsh``, moments from exact
integer traces, isomorphism and the n = 7 class census from networkx.  They
run after each round, outside the operation timings; networkx is imported
on first use.
"""

from __future__ import annotations

import json
from math import factorial

import numpy as np

from specs import adjacency, decode_graph6, parse_spec, q_matrix, star_mate

SPECTRUM_TOL = 1e-9
COSPECTRAL_TOL = 1e-8
MOMENT_RTOL = 1e-9


class CheckError(Exception):
    """The output disagrees with the benchmark's own oracle."""


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Q-spectrum of an integer adjacency, descending."""
    return np.linalg.eigvalsh(q_matrix(a).astype(np.float64))[::-1]


def exact_moments(a: np.ndarray) -> dict:
    """tr(Q^1..Q^4) and tr(A^4) as Python integers."""
    q = q_matrix(a)
    out, power = {}, np.eye(a.shape[0], dtype=np.int64)
    for r in range(1, 5):
        power = power @ q
        out[f"t{r}"] = int(np.trace(power))
    a2 = a @ a
    out["s4"] = int(np.trace(a2 @ a2))
    return out


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _spectrum_matches(values, a: np.ndarray, what: str, tol: float = SPECTRUM_TOL) -> None:
    got = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    want = eigenvalues(a)
    _require(got.shape == want.shape, f"{what}: {got.size} values, expected {want.size}")
    err = float(np.abs(got - want).max())
    _require(err <= tol, f"{what}: eigenvalue off by {err:.3g}")


def _cospectral(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and float(np.abs(eigenvalues(a) - eigenvalues(b)).max()) <= COSPECTRAL_TOL


def _same_spec(text, op, what: str) -> None:
    if op.spec is not None:
        _require(text is not None and parse_spec(text) == op.spec, f"{what}: spec {text!r}")


def check_spectrum(op, result: dict) -> None:
    _require(result["n"] == op.n, f"n = {result['n']}, expected {op.n}")
    _same_spec(result["spec"], op, "spectrum")
    _spectrum_matches(result["numeric"]["values"], op.adjacency, "numeric")
    if "closed" in result:
        _spectrum_matches(result["closed"]["values"], op.adjacency, "closed")


def check_moments(op, result: dict) -> None:
    _same_spec(result["spec"], op, "moments")
    exact = exact_moments(op.adjacency)
    _require(result["counts_moments"] == exact, f"counts moments {result['counts_moments']} != {exact}")
    for name, want in exact.items():
        got = result["spectrum_moments"][name]
        _require(abs(got - want) <= MOMENT_RTOL * max(1, abs(want)), f"spectrum {name} = {got}, expected {want}")


def check_mate13(op, result: dict) -> None:
    _require(result["cospectral_within_tolerance"] is True, "theorem 13 mate not reported cospectral")
    mate = parse_spec(result["mate"])
    _require(mate == star_mate(op.spec), f"mate {result['mate']!r}")
    _spectrum_matches(result["spectra"]["target"]["values"], op.adjacency, "target")
    _spectrum_matches(result["spectra"]["mate"]["values"], adjacency(mate), "mate")
    _require(_cospectral(op.adjacency, adjacency(mate)), "mate not cospectral by eigvalsh")


def check_mate11(op, result: dict) -> None:
    candidate = adjacency(parse_spec(result["candidate"]))
    _spectrum_matches(result["spectra"]["target"]["values"], op.adjacency, "target")
    _spectrum_matches(result["spectra"]["candidate"]["values"], candidate, "candidate")
    gap = float(np.abs(eigenvalues(op.adjacency) - eigenvalues(candidate)).max())
    _require(abs(result["distance"] - gap) <= SPECTRUM_TOL, f"distance {result['distance']} != {gap:.12g}")
    target, cand = exact_moments(op.adjacency), exact_moments(candidate)
    for name in ("t1", "t2", "t3", "t4"):
        _require(target[name] == cand[name], f"candidate {name} differs")
    _require(result["delta_t4"] == 0, f"delta_t4 = {result['delta_t4']}")


def check_probe(op, result: dict) -> None:
    _require(result["probe"] == op.lemma, f"probe {result['probe']!r}, expected {op.lemma!r}")
    _require(result["status"] in ("pass", "skipped"), f"lemma {op.lemma} {result['status']}")


def check_family(op, result: dict) -> dict:
    hits = [parse_spec(h["spec"]) for h in result["hits"]]
    _require(len(set(hits)) == len(hits), "duplicated family hit")
    _require(result["classes"] == len(hits), "class count disagrees with the hit list")
    own = [h for h in result["hits"] if parse_spec(h["spec"]) == op.spec]
    _require(bool(own) and own[0]["distance"] == 0, "target missing at distance 0")
    _require(star_mate(op.spec) in hits, "theorem 13 mate missing from the hits")
    for spec in hits:
        _require(_cospectral(op.adjacency, adjacency(spec)), f"hit {spec} not cospectral")
    return {"candidates": result["cardinality"], "classes": len(hits)}


class Census:
    """Q-spectra of the 1044 graphs on seven vertices, from networkx's atlas."""

    def __init__(self) -> None:
        import networkx as nx

        self.nx = nx
        self.graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7]
        mats = np.array([nx.to_numpy_array(g, nodelist=range(7), dtype=np.int64) for g in self.graphs])
        q = mats.astype(np.float64)
        q[:, range(7), range(7)] = mats.sum(axis=2)
        self.spectra = np.linalg.eigvalsh(q)[:, ::-1]

    def cospectral_classes(self, a: np.ndarray) -> list:
        gap = np.abs(self.spectra - eigenvalues(a)).max(axis=1)
        return [self.graphs[i] for i in np.nonzero(gap <= COSPECTRAL_TOL)[0]]

    def labelled_count(self, graphs) -> int:
        """Labelled graphs on 7 vertices isomorphic to one of ``graphs``: 7!/|Aut| each."""
        iso = self.nx.algorithms.isomorphism.GraphMatcher
        return sum(factorial(7) // sum(1 for _ in iso(g, g).isomorphisms_iter()) for g in graphs)

    def check(self, op, result: dict) -> dict:
        """Validate an exhaustive search; also counts the labelled survivors
        the search must re-verify, one per labelling of each cospectral class."""
        nx = self.nx
        hits = [decode_graph6(h["graph6"]) for h in result["hits"]]
        _require(result["classes"] == len(hits), "class count disagrees with the hit list")
        for a in hits:
            _require(_cospectral(op.adjacency, a), "exhaustive hit not cospectral")
        graphs = [nx.from_numpy_array(a) for a in hits]
        for i, g in enumerate(graphs):
            for h in graphs[:i]:
                _require(not nx.is_isomorphic(g, h), "two exhaustive hits are isomorphic")
        classes = self.cospectral_classes(op.adjacency)
        _require(len(classes) == len(hits), f"{len(hits)} classes, atlas has {len(classes)}")
        target = nx.from_numpy_array(op.adjacency)
        own = [h for h, g in zip(result["hits"], graphs) if nx.is_isomorphic(g, target)]
        _require(len(own) == 1 and own[0]["isomorphic"], "target class not flagged isomorphic")
        return {"survivors": self.labelled_count(classes), "classes": len(classes)}


_CHECKS = {
    "spectrum": check_spectrum,
    "moments": check_moments,
    "mate13": check_mate13,
    "mate11": check_mate11,
    "probe": check_probe,
    "family": check_family,
}


class Checker:
    """Checks one operation's exit code and stdout; the census loads on first use."""

    def __init__(self) -> None:
        self._census = None

    def check(self, op, code, stdout: str):
        """Raises CheckError on a wrong result; returns facts for the input
        profile (candidates, classes, survivors) where the command has them."""
        _require(code == 0, f"exit code {code}")
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            raise CheckError(f"stdout is not JSON: {exc}") from None
        _require(doc.get("status") == "ok", f"status {doc.get('status')!r}")
        if op.kind == "exhaustive":
            if self._census is None:
                self._census = Census()
            return self._census.check(op, doc["result"])
        return _CHECKS[op.kind](op, doc["result"])
