"""Command-line front end: parse maps and points, run the library, emit reports.

Subcommands: ``traintrack``, ``distance``, ``classify``, ``candidates``,
``minimize``.  The parsed argparse namespace is the only configuration: each
subparser names its command function with ``set_defaults``, and the command
reads its flags from the namespace and returns its report and exit code;
``main`` writes the report.  Reports are emitted as canonical JSON
(sorted keys, compact separators, floats rounded to 12 significant digits) so
repeated runs are byte-identical, or as plain text with ``--text``.  Words
of every rank have one codec, ``words.format_word`` and ``words.parse_word``
(a..z, then e27, e28, ...): it reads ``--map`` images and point files, and
writes point files and the edge names and edge words of reports.

Exit codes: 0 success, 2 unparsable input or a flag argparse refuses (a
missing one, or ``--max-iters`` below 1), 3 the fold loop reached its
iteration cap or repeated a state, 4 marking, stretch or fold-loop integrity
failure.
"""

from __future__ import annotations

import argparse
import json
import re
import reprlib
import sys
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import words
from .graph_core import EdgePath, Graph, GraphError, PathError
from .graph_map import GraphMap, difference_of_markings, self_map_from_automorphism
from .lipschitz_metric import (
    DistanceReport,
    Elliptic,
    GameSolveError,
    Hyperbolic,
    ParabolicSuspect,
    StretchIntegrityError,
    classify,
    min_displacement_on_simplex,
    sigma,
)
from .marked_metric import (
    Automorphism,
    AutomorphismParseError,
    MarkingError,
    Metric,
    NotBasisError,
    OuterSpacePoint,
    candidates,
    loop_length,
    rose_point,
)
from .train_track_algo import (
    FiniteOrderCertificate,
    InvalidMapError,
    NonTerminationCertificate,
    TrainTrackCertificate,
    find_train_track,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INTEGRITY = 4


class CliInputError(Exception):
    """Unusable input file or flag combination (exit code 2)."""


# -- number formatting ------------------------------------------------------------


def _f12(x: float) -> float:
    """Round to 12 significant digits so serialized output is byte-stable."""
    return float(f"{float(x):.12g}")


def _num(value) -> object:
    """Exact rationals as 'p/q' strings, floats at 12 significant digits."""
    if isinstance(value, (Fraction, int)):
        return str(value)
    return _f12(value)


# -- point files --------------------------------------------------------------------


def point_to_json(x: OuterSpacePoint) -> Dict[str, object]:
    """Serializable form of a marked metric graph; parsing it back is lossless
    for rational lengths."""
    return {
        "vertices": sorted(x.graph.vertices),
        "edges": [
            {"id": e, "endpoints": list(x.graph.endpoints(e))}
            for e in sorted(x.graph.edge_ids)
        ],
        "basepoint": x.basepoint,
        "lengths": {str(e): _num(x.metric.length(e)) for e in sorted(x.graph.edge_ids)},
        "marking": {
            words.format_word((i + 1,)): list(p.edges) for i, p in enumerate(x.marking)
        },
        "inverse_marking": {
            str(e): words.format_word(w) for e, w in sorted(x.inverse_marking().items())
        },
    }


class _LongInteger:
    """A JSON integer with more digits than int() converts
    (sys.get_int_max_str_digits); the field that reads it refuses it by name."""

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))

    def __repr__(self) -> str:
        return f"an integer of {self.digits} digits"

    def refuse(self, field: str) -> CliInputError:
        return CliInputError(
            f"{field} has {self.digits} digits, more than {sys.get_int_max_str_digits()}")


def _json_integer(text: str):
    """json.load's parse_int: the int, or a _LongInteger past the digit limit."""
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def _parse_length(value, key: str) -> object:
    """A JSON number, or a string that Fraction reads; a boolean is refused."""
    if isinstance(value, _LongInteger):
        raise value.refuse(f"lengths entry of {key!r}")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(
                f"lengths entry of {key!r} is invalid: {reprlib.repr(value)} ({exc})") from exc
    if type(value) in (int, float):
        return Fraction(value) if type(value) is int else value
    raise CliInputError(f"lengths entry of {key!r} must be a number, got {reprlib.repr(value)}")


def _edge_key(key: str, field: str) -> int:
    """An edge id spelled as point_to_json writes an object key: ASCII digits
    with no sign, space, separator or leading zero."""
    if not (key.isascii() and key.isdigit()) or (key[0] == "0" and key != "0"):
        raise CliInputError(f"{field} key must be a decimal edge id, got {reprlib.repr(key)}")
    return _json_int(_json_integer(key), f"{field} key")


def _json_int(value, field: str) -> int:
    """A JSON integer; a float or a boolean, which int() would truncate, is refused."""
    if isinstance(value, _LongInteger):
        raise value.refuse(field)
    if type(value) is not int:
        raise CliInputError(f"{field} must be an integer, got {reprlib.repr(value)}")
    return value


_JSON_KINDS = {list: "a list", dict: "an object", str: "a string"}


def _json_as(value, kind: type, field: str):
    """value, if it is a JSON list, object or string as kind says; else an
    input error that names the field."""
    if not isinstance(value, kind):
        raise CliInputError(f"{field} must be {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def _listed_once(ids: List[int], field: str) -> List[int]:
    """ids, unless one is listed twice: a set or dict of them would keep one."""
    seen = set()
    for x in ids:
        if x in seen:
            raise CliInputError(f"{field} {x} is listed twice")
        seen.add(x)
    return ids


def point_from_json(data: Mapping[str, object]) -> OuterSpacePoint:
    """The point a point file describes.  Its lengths must sum to 1 (else exit
    2), a vertex it names (an endpoint or the basepoint) must be listed (else
    exit 2), and it may have no valence-2 vertex (a GraphError, exit 4): a
    file holds a point of Outer space, whose graphs are unsubdivided."""
    try:
        _json_as(data, dict, "point file")
        vertices = _listed_once([_json_int(v, "vertex")
                                 for v in _json_as(data["vertices"], list, "vertices")], "vertex")
        records = [_json_as(rec, dict, "edge record")
                   for rec in _json_as(data["edges"], list, "edges")]
        ids = _listed_once([_json_int(rec["id"], "edge id") for rec in records], "edge id")
        endpoints = {}
        for e, rec in zip(ids, records):
            ends = _json_as(rec["endpoints"], list, f"endpoints of edge {e}")
            if len(ends) != 2:
                raise CliInputError(f"endpoints of edge {e} must be 2 vertices, got {len(ends)}")
            endpoints[e] = tuple(_json_int(u, "endpoint") for u in ends)
        graph = Graph(vertices, endpoints)
        lengths = {_edge_key(e, "lengths"): _parse_length(v, e)
                   for e, v in _json_as(data["lengths"], dict, "lengths").items()}
        marking_obj = _json_as(data["marking"], dict, "marking")
        loops = []
        for i in range(len(marking_obj)):
            key = words.format_word((i + 1,))
            if key not in marking_obj:
                raise CliInputError(f"marking is missing generator {key!r}")
            entries = _json_as(marking_obj[key], list, f"marking loop of {key!r}")
            loop = tuple(_json_int(d, f"marking entry of {key!r}") for d in entries)
            loops.append(EdgePath(loop, closed=True))
        inverse = {
            _edge_key(e, "inverse_marking"):
                words.parse_word(_json_as(w, str, f"inverse_marking entry of {e!r}"))
            for e, w in _json_as(data["inverse_marking"], dict, "inverse_marking").items()
        }
        basepoint = _json_int(data.get("basepoint", min(vertices, default=None)), "basepoint")
        if basepoint not in graph.vertices:
            raise CliInputError(f"basepoint {basepoint} is not a vertex")
    except KeyError as exc:
        raise CliInputError(f"malformed point file: missing field {exc}") from exc
    except ValueError as exc:
        raise CliInputError(f"malformed point file: {exc}") from exc
    x = OuterSpacePoint(
        graph=graph,
        metric=Metric(lengths),
        marking=loops,
        basepoint=basepoint,
        inverse_marking=inverse,
    )
    if any(graph.valence(v) == 2 for v in graph.vertices):
        raise GraphError("valence-2 vertices must be unsubdivided")
    return x


def _keyed_once(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object, unless a key is written twice: json.load keeps the last."""
    _listed_once([repr(key) for key, _ in pairs], "key")
    return dict(pairs)


def _load_point(path: str) -> OuterSpacePoint:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_keyed_once, parse_int=_json_integer)
    except OSError as exc:
        raise CliInputError(f"cannot read point file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"point file {path} is not valid JSON: {exc}") from exc
    return point_from_json(data)


# -- report builders ----------------------------------------------------------------


def _metric_json(metric: Metric) -> Dict[str, object]:
    return {words.format_word((e,)): _num(length) for e, length in metric.items()}


def _gates_json(structure) -> List[List[str]]:
    blocks = []
    for v in structure.vertices:
        for gate in structure.gates_at(v):
            blocks.append(sorted(words.format_word((d,)) for d in gate))
    return sorted(blocks)


def _edge_images_json(m: GraphMap) -> Dict[str, str]:
    return {
        words.format_word((e,)): words.format_word(m.edge_image[e].edges)
        for e in sorted(m.domain.graph.edge_ids)
    }


def _traintrack_report(cert) -> Tuple[Dict[str, object], int]:
    report: Dict[str, object] = {"status": cert.status, "trace": list(cert.trace)}
    if isinstance(cert, NonTerminationCertificate):
        report["reason"] = cert.reason
        return report, EXIT_CAP
    report["metric"] = _metric_json(cert.graph_map.domain.metric)
    report["edge_images"] = _edge_images_json(cert.graph_map)
    if isinstance(cert, TrainTrackCertificate):
        report.update({"lambda": _f12(cert.lam), "gates": _gates_json(cert.structure)})
    elif isinstance(cert, FiniteOrderCertificate):
        report.update({"lambda": 1.0, "order": cert.order, "gates": []})
    else:
        assert cert.status == "reducible", cert
        report.update({
            "lambda": _f12(cert.rho),
            "subgraph": sorted(words.format_word((e,)) for e in cert.subset),
            "matrix": [list(r) for r in cert.matrix.rows],
            "edge_order": [words.format_word((e,)) for e in cert.matrix.edge_ids],
        })
    return report, EXIT_OK


def _distance_report(x: OuterSpacePoint, y: OuterSpacePoint) -> Dict[str, object]:
    rep: DistanceReport = sigma(x, y, difference_of_markings(x, y))
    return {
        "sigma": _num(rep.sigma),
        "log_sigma": _f12(rep.log_sigma),
        "witness": list(rep.witness.loop.edges),
        "table": [
            {"loop": list(c.loop.edges), "ratio": _num(r)} for c, r in rep.table
        ],
    }


def _simplex_json(rep) -> Dict[str, object]:
    return {
        "floor": _f12(rep.floor),
        "lambda": _f12(rep.lam),
        "lower": _f12(rep.lower),
        "boundary_flag": rep.boundary_flag,
        "pinned": [words.format_word((e,)) for e in rep.pinned],
        "metric": _metric_json(rep.metric),
        "trace": [[_f12(lo), _f12(hi)] for lo, hi in rep.trace],
    }


def _classify_report(result) -> Tuple[Dict[str, object], int]:
    evidence: Dict[str, object] = {"trace": list(result.certificate.trace)}
    report: Dict[str, object] = {"kind": result.kind, "evidence": evidence}
    if isinstance(result, Elliptic):
        report["order"] = result.order
    elif isinstance(result, Hyperbolic):
        report["lambda"] = _f12(result.lam)
        evidence.update({
            "metric": _metric_json(result.certificate.graph_map.domain.metric),
            "legal_loop": words.format_word(result.loop.edges),
            "bracket": [_f12(b) for b in result.bracket],
            "simplex": _simplex_json(result.simplex),
        })
    elif isinstance(result, ParabolicSuspect):
        report["invariant_chain"] = [
            sorted(words.format_word((e,)) for e in subset) for subset in result.invariant_chain
        ]
        evidence["sweep"] = [
            {"floor": _f12(f), "lambda": _f12(lam), "boundary_flag": b}
            for f, lam, b in result.sweep
        ]
    else:
        assert result.kind == "inconclusive", result
        report["reason"] = result.reason
        return report, EXIT_CAP
    return report, EXIT_OK


# -- rendering ----------------------------------------------------------------------


def _render_text(value, indent: str = "") -> List[str]:
    lines: List[str] = []
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, dict):
                # YAML block style: "- " at the list's indent starts each
                # object, and its other keys align under its first.
                first, *rest = _render_text(v, indent + "  ")
                lines.append(f"{indent}- {first[len(indent) + 2:]}")
                lines.extend(rest)
            elif isinstance(v, list):  # no report nests containers in it
                lines.append(f"{indent}- [{' '.join(str(item) for item in v)}]")
            else:
                lines.append(f"{indent}- {v}")
    return lines


def _emit(report: object, text: bool) -> None:
    if text:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")
    else:
        sys.stdout.write(
            json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        )


# -- command drivers ----------------------------------------------------------------


def cmd_traintrack(args: argparse.Namespace) -> Tuple[Dict[str, object], int]:
    phi = Automorphism.from_text(args.map)
    return _traintrack_report(find_train_track(phi, max_iters=args.max_iters))


def cmd_distance(args: argparse.Namespace) -> Tuple[Dict[str, object], int]:
    x = _load_point(args.point)
    y = _load_point(args.point2)
    if x.rank != y.rank:
        raise MarkingError(f"points have different ranks ({x.rank} vs {y.rank})")
    if args.both:
        return {"forward": _distance_report(x, y), "backward": _distance_report(y, x)}, EXIT_OK
    return _distance_report(x, y), EXIT_OK


def cmd_classify(args: argparse.Namespace) -> Tuple[Dict[str, object], int]:
    return _classify_report(classify(Automorphism.from_text(args.map)))


def cmd_candidates(args: argparse.Namespace) -> Tuple[Dict[str, object], int]:
    x = _load_point(args.point)
    loops = [
        {"loop": list(c.loop.edges), "length": _num(loop_length(x, c.loop))}
        for c in candidates(x)
    ]
    return {"count": len(loops), "candidates": loops}, EXIT_OK


def cmd_minimize(args: argparse.Namespace) -> Tuple[object, int]:
    phi = Automorphism.from_text(args.map)
    m = self_map_from_automorphism(rose_point(phi.rank), phi)
    reports = [_simplex_json(rep) for rep in min_displacement_on_simplex(m, args.floor)]
    return (reports if len(reports) > 1 else reports[0]), EXIT_OK


# -- argument parsing ---------------------------------------------------------------


def int_at_least(low: int):
    """An argparse type: an integer no smaller than low, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outerspace",
        description="Stretch-factor distances and train track maps on marked metric graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit canonical JSON (default)")
    fmt.add_argument("--text", action="store_true", help="emit plain text")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traintrack", parents=[common], help="fold a map to a certificate")
    p.set_defaults(run=cmd_traintrack)
    p.add_argument("--map", required=True, help="map text, e.g. 'a->ab; b->bab'")
    p.add_argument("--max-iters", type=int_at_least(1), default=10**4)

    p = sub.add_parser("distance", parents=[common], help="stretch distance between two points")
    p.set_defaults(run=cmd_distance)
    p.add_argument("--point", required=True, help="JSON point file")
    p.add_argument("--point2", required=True, help="JSON point file")
    p.add_argument("--both", action="store_true", help="report both orders")

    p = sub.add_parser("classify", parents=[common], help="sort a map into the displacement trichotomy")
    p.set_defaults(run=cmd_classify)
    p.add_argument("--map", required=True)

    p = sub.add_parser("candidates", parents=[common], help="list candidate loops of a point")
    p.set_defaults(run=cmd_candidates)
    p.add_argument("--point", required=True)

    p = sub.add_parser("minimize", parents=[common], help="minimize displacement over floored metrics")
    p.set_defaults(run=cmd_minimize)
    p.add_argument("--map", required=True)
    p.add_argument("--floor", type=float, nargs="+", default=[1e-6],
                   help="one floor, or a ladder of floors (a list of reports)")
    # A "-" then a digit or ".digit" is a number, as newer argparse reads it,
    # so "--floor -1e-3" reaches the range check instead of reading as an option.
    p._negative_number_matcher = re.compile(r"-\.?\d")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        report, code = args.run(args)
    except (MarkingError, StretchIntegrityError, GameSolveError, GraphError, PathError,
            InvalidMapError) as exc:
        sys.stderr.write(f"integrity error: {exc}\n")
        return EXIT_INTEGRITY
    except (CliInputError, AutomorphismParseError, NotBasisError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    _emit(report, args.text)
    return code


if __name__ == "__main__":
    sys.exit(main())
