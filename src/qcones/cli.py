"""Command-line front end: spectra, moments, mates, searches and probes.

Every run prints a single JSON document on stdout with the fields
{command, input, params, result, status}; diagnostics go to stderr.  The
document is written by `_json`, byte for byte as
`json.dumps(doc, indent=2, allow_nan=False)` would write it.
Exit codes: 0 success, 2 input error, 3 verification mismatch or probe
failure, 4 inapplicable construction, 5 scale limit, 6 internal error (an
internally built object failed its own check, LAPACK's eigensolver failed,
or a Q spectrum had a negative value; a bug, not bad input).
`mate` builds the mate (13) or candidate (11) spec and (13) checks the
target's order against the n <= 64 cap of the counts before it realizes
anything, so an inapplicable or over-cap input exits with no matrix built.
Each subparser declares its handler, its `params` echo and (spectrum and
moments) its CSV renderer with `set_defaults`.  An argv that starts with a
command name is parsed once, by that subparser alone; leftover arguments
get the top-level parser's error, as `parse_args` would give it.
`search --jobs` is still parsed and must be >= 1, but the exhaustive scan
runs in this process and the value changes nothing.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from json.encoder import encode_basestring_ascii

from .errors import (
    ConstructionError,
    EigensolverError,
    FormatError,
    InapplicableError,
    ParameterError,
    QConesError,
    ScaleError,
)
from .graphs import (
    ConeSpec,
    MultiGraph,
    _require_count_order,
    format_spec_text,
    parse_spec_text,
    realize,
)
from .graph6 import decode_graph6, encode_graph6
from .eigen import (
    GROUP_TOL,
    QSpectrum,
    q_spectrum,
    spectrum_compare,
    sym_eigenvalues,
)
from .cones import (
    closed_spectrum,
    even_cycle_split_candidate,
    triangle_star_mate,
)
from .moments import (
    moments_closed_form,
    moments_from_counts,
    moments_from_spectrum,
)
from .search import (
    COSPECTRAL_TOL,
    recognize_cone,
    run_probe,
    search_exhaustive,
    search_family,
)

# exit code and status per error class; the nearest class in the MRO wins
_EXIT_BY_ERROR = {
    ScaleError: (5, "scale"),
    InapplicableError: (4, "inapplicable"),
    ConstructionError: (6, "internal"),
    EigensolverError: (6, "internal"),
    QConesError: (2, "error"),
}


def _read_input(text: str) -> tuple[MultiGraph | None, ConeSpec | None]:
    """Interpret the input as spec text, falling back to graph6.

    Spec text comes back unrealized (graph None); `_graph` builds the
    matrix on demand.
    """
    try:
        spec = parse_spec_text(text)
    except (FormatError, ParameterError) as spec_err:
        try:
            graph = decode_graph6(text)
        except (FormatError, ParameterError) as g6_err:
            raise FormatError(
                f"input is neither a cone spec ({spec_err}) nor graph6 ({g6_err})"
            ) from None
        return graph, recognize_cone(graph)
    return None, spec


def _graph(graph: MultiGraph | None, spec: ConeSpec | None) -> MultiGraph:
    return realize(spec) if graph is None else graph


def _describe(graph: MultiGraph | None, spec: ConeSpec | None) -> dict:
    return {
        "n": spec.n if graph is None else graph.n,
        "spec": None if spec is None else format_spec_text(spec),
    }


def _require_spec(spec: ConeSpec | None, purpose: str) -> ConeSpec:
    if spec is None:
        raise FormatError(f"{purpose} needs a cone over cycles, paths and stars")
    return spec


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _f(x) -> float:
    """Floats carry 12 significant digits in every payload."""
    return float(f"{float(x):.12g}")


def _number(x):
    """`_f` on a float; an int, None or string is kept as it is."""
    return _f(x) if isinstance(x, float) else x


def _spectrum_payload(spec: QSpectrum) -> dict:
    payload: dict = {"values": [_f(v) for v in spec.values.tolist()]}
    if spec.sources is not None:
        payload["sources"] = list(spec.sources)
    payload["groups"] = [
        {
            "value": _f(g.value),
            "multiplicity": g.multiplicity,
            **({"sources": list(g.sources)} if g.sources else {}),
        }
        for g in spec.groups
    ]
    return payload


def _moment_payload(mom) -> dict:
    return {name: _number(value) for name, value in zip(mom._fields, mom)}


def _json(o, pad: str) -> str:
    """`json.dumps(o, indent=2, allow_nan=False)` for a value whose line
    break and indent are `pad`.

    The standard library runs its pure-Python encoder whenever `indent` is
    set; this writer takes the same type checks in the same order and joins
    flat float lists in one step.  Keys must be strings (the CLI's are): any
    other key raises TypeError.
    """
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        # a finite sum means finite members; an overflowing one takes the slow path
        if all(type(v) is float for v in o) and math.isfinite(sum(o)):
            parts = map(float.__repr__, o)
        else:
            parts = [_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(parts) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(doc: dict) -> None:
    sys.stdout.write(_json(doc, "\n") + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> tuple[dict, int]:
    graph, spec = _read_input(args.input)
    result = _describe(graph, spec)
    code = 0
    if args.mode in ("closed", "both"):
        # a graph6 input that is no cone has no closed route
        if spec is None:
            raise FormatError("closed form needs a cone spec input")
        closed = closed_spectrum(spec, args.group_tol)
        result["closed"] = _spectrum_payload(closed)
    if args.mode in ("numeric", "both"):
        numeric = q_spectrum(_graph(graph, spec), group_tol=args.group_tol)
        result["numeric"] = _spectrum_payload(numeric)
    if args.mode == "both":
        distance = spectrum_compare(closed, numeric)
        result["distance"] = _f(distance)
        result["tolerance"] = _f(args.tol)
        if distance > args.tol:
            code = 3
    return result, code


def cmd_moments(args) -> tuple[dict, int]:
    graph, spec = _read_input(args.input)
    # graph6 input is always simple; only a spec can hold a digon
    if graph is None and spec.has_digon():
        raise ParameterError("moment identities are defined for simple graphs only")
    result = {**_describe(graph, spec), "from": args.source}
    counted = None
    if args.source in ("counts", "both"):
        # cones take their blocks' walk sums, other graphs the subgraph counts
        counted = moments_from_counts(graph) if spec is None else moments_closed_form(spec)
        result["counts_moments"] = _moment_payload(counted)
    if args.source in ("spectrum", "both"):
        graph = _graph(graph, spec)
        spectral = moments_from_spectrum(
            q_spectrum(graph),
            adjacency_spec=sym_eigenvalues(graph.mult),
        )
        result["spectrum_moments"] = _moment_payload(spectral)
    if args.source == "both":
        gaps = [abs(a - b) / max(1.0, abs(a)) for a, b in zip(counted, spectral)]
        result["relative_discrepancy"] = _f(max(gaps))
    return result, 0


def cmd_mate(args) -> tuple[dict, int]:
    if args.theorem not in ("11", "13"):
        raise ParameterError(f"unknown theorem id {args.theorem!r}; expected 11 or 13")
    _, spec = _read_input(args.input)
    spec = _require_spec(spec, "mate construction")
    if args.theorem == "13":
        role, other, shifts = "mate", triangle_star_mate(spec), {}
    else:
        role, (other, ds4, dt4) = "candidate", even_cycle_split_candidate(spec)
        shifts = {"delta_s4": ds4, "delta_t4": dt4}
    if role == "mate":  # the count cap raises before any matrix is built
        _require_count_order(spec.n)
    target_graph = realize(spec)
    counted = moments_from_counts(target_graph) if role == "mate" else None
    other_graph = realize(other)
    target_spec, other_spec = q_spectrum(target_graph), q_spectrum(other_graph)
    distance = spectrum_compare(target_spec, other_spec)
    result: dict = {
        "target": format_spec_text(spec),
        "theorem": args.theorem,
        "tolerance": _f(args.tol),
        role: format_spec_text(other),
        **shifts,
        "distance": _f(distance),
        "cospectral_within_tolerance": bool(distance <= args.tol),
    }
    if counted is not None:
        deltas = zip(counted._fields, counted, moments_from_counts(other_graph))
        result["moment_delta"] = {k: a - b for k, a, b in deltas}
    result["spectra"] = {
        "target": _spectrum_payload(target_spec),
        role: _spectrum_payload(other_spec),
    }
    return result, 0


def cmd_search(args) -> tuple[dict, int]:
    graph, spec = _read_input(args.input)
    if args.jobs < 1:
        raise ParameterError("--jobs must be >= 1")
    if args.mode == "family":
        target = _require_spec(spec, "family search")
        report = search_family(target, tol=args.tol)
        hits = [
            {
                "spec": format_spec_text(h.candidate),
                "distance": _f(h.distance),
                "isomorphic": h.isomorphic,
            }
            for h in report.hits
        ]
    else:
        report = search_exhaustive(spec if graph is None else graph, tol=args.tol)
        hits = [
            {
                "graph6": encode_graph6(h.candidate),
                "degree_sequence": sorted(int(d) for d in h.candidate.degrees()),
                "distance": _f(h.distance),
                "isomorphic": h.isomorphic,
            }
            for h in report.hits
        ]
    result = {
        "mode": args.mode,
        "target": None if spec is None else format_spec_text(spec),
        "tolerance": _f(report.tolerance),
        "cardinality": report.cardinality,
        "exhaustive": report.exhaustive,
        "classes": len(hits),
        "hits": hits,
    }
    return result, 0


def cmd_probe(args) -> tuple[dict, int]:
    outcome = run_probe(_graph(*_read_input(args.input)), args.lemma)
    result = {
        "probe": outcome.probe,
        "status": outcome.status,
        "witness": outcome.witness,
        "message": outcome.message,
    }
    return result, 3 if outcome.status == "fail" else 0


# ---------------------------------------------------------------------------
# CSV rendering (spectra and moment tables only)
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _csv(first: str, names: list[str], rows, *last: str) -> str:
    """A table whose value columns are headed by their names, or by "value"
    when there is only one."""
    header = [first, *(names if len(names) > 1 else ["value"]), *last]
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])


def _csv_spectrum(result: dict) -> str:
    routes = [key for key in ("closed", "numeric") if key in result]
    values = [result[key]["values"] for key in routes]
    # only the closed route tags its values
    sources = result[routes[0]].get("sources") or [""] * len(values[0])
    return _csv("index", routes, zip(itertools.count(1), *values, sources), "source")


def _csv_moments(result: dict) -> str:
    routes = [key for key in ("counts", "spectrum") if f"{key}_moments" in result]
    tables = [result[f"{key}_moments"] for key in routes]
    rows = ([name, *(t[name] for t in tables)] for name in ("t1", "t2", "t3", "t4", "s4"))
    return _csv("name", routes, rows)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _mode_flags(parser, required: bool, **flags: str) -> None:
    """Mutually exclusive flags, each storing its own name in `mode`.

    argparse checks the exclusion only for values that differ from a flag's
    default, so the flags default to SUPPRESS rather than to `mode`'s default.
    """
    group = parser.add_mutually_exclusive_group(required=required)
    for name, help_text in flags.items():
        group.add_argument(f"--{name}", dest="mode", action="store_const", const=name,
                           default=argparse.SUPPRESS, help=help_text)


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="qcones",
        description=(
            "Signless-Laplacian spectra, moments, cospectral mates and "
            "searches for cone graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of a cone spec or graph6 input")
    sp.set_defaults(handler=cmd_spectrum, render_csv=_csv_spectrum, mode="both", echo=(
        ("mode", "mode"), ("tol", "tol"), ("group_tol", "group_tol"), ("format", "format")))
    sp.add_argument("input", help="cone spec text or graph6 string")
    _mode_flags(sp, False, numeric="numeric route only", closed="closed form only",
                both="both routes plus distance (default)")
    sp.add_argument("--tol", type=float, default=COSPECTRAL_TOL, help="comparison tolerance")
    sp.add_argument("--group-tol", type=float, default=GROUP_TOL, dest="group_tol")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    mo = sub.add_parser("moments", help="spectral moments of a simple graph")
    mo.set_defaults(handler=cmd_moments, render_csv=_csv_moments,
                    echo=(("from", "source"), ("format", "format")))
    mo.add_argument("input", help="cone spec text or graph6 string")
    mo.add_argument("--from", dest="source", choices=("counts", "spectrum", "both"), default="counts")
    mo.add_argument("--format", choices=("json", "csv"), default="json")

    ma = sub.add_parser("mate", help="cospectral mate or rewiring candidate")
    ma.set_defaults(handler=cmd_mate, echo=(("theorem", "theorem"), ("tol", "tol")))
    ma.add_argument("input", help="cone spec text or graph6 string")
    ma.add_argument("--theorem", required=True, help="construction id: 11 or 13")
    ma.add_argument("--tol", type=float, default=COSPECTRAL_TOL)

    se = sub.add_parser("search", help="cospectral-mate search")
    se.set_defaults(handler=cmd_search, echo=(("mode", "mode"), ("tol", "tol")))
    se.add_argument("input", help="cone spec text or graph6 string")
    _mode_flags(se, True, family="structured family scan", exhaustive="all simple graphs, n <= 8")
    se.add_argument("--tol", type=float, default=COSPECTRAL_TOL)
    se.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility (>= 1); has no effect")

    pr = sub.add_parser("probe", help="structural fact checks")
    pr.set_defaults(handler=cmd_probe, echo=(("lemma", "lemma"),))
    pr.add_argument("input", help="cone spec text or graph6 string")
    pr.add_argument("--lemma", required=True, help="probe id, e.g. 2.4")

    return parser, sub.choices


# the parser, and its subparsers by command name
_PARSER, _COMMANDS = _build_parser()


def _check_tolerances(args) -> None:
    """--tol and --group-tol must be finite and >= 0 wherever they exist."""
    for name in ("tol", "group_tol"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            flag = "--" + name.replace("_", "-")
            raise ParameterError(f"{flag} must be finite and >= 0, got {value}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:  # no argv, -h or an unknown command
        args = _PARSER.parse_args(argv)
    else:  # the top-level pass would only set `command`
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    doc = {
        "command": args.command,
        "input": args.input,
        "params": None,
        "result": None,
        "status": "ok",
    }
    try:
        _check_tolerances(args)
        params = {key: getattr(args, dest) for key, dest in args.echo}
        doc["params"] = {k: _number(v) for k, v in params.items()}
        result, code = args.handler(args)
    except QConesError as exc:
        code, doc["status"] = next(
            _EXIT_BY_ERROR[cls] for cls in type(exc).__mro__ if cls in _EXIT_BY_ERROR
        )
        doc["error"] = str(exc)
        print(f"qcones: {exc}", file=sys.stderr)
        _emit(doc)
        return code
    doc["result"] = result
    doc["status"] = "mismatch" if code == 3 else "ok"
    if getattr(args, "format", "json") == "csv":
        sys.stdout.write(args.render_csv(result))
    else:
        _emit(doc)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
