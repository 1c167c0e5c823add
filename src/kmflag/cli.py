"""Command-line front-end: deterministic JSON/CSV emission for every
pipeline, with machine-readable errors and stable exit codes.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 resource-guard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import bmp as bmp_mod
from . import category_o as cat_mod
from . import weyl as weyl_mod
from .errors import RESOURCE_GUARD_ERRORS, CrossCheckFailed, NotGCM, ToolkitError
from .kl import KLTable
from .moment_graph import build_moment_graph, covering_relations
from .root_datum import validate_cartan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3

class _CliError(Exception):
    def __init__(self, message, code="UsageError", status=EXIT_VALIDATION):
        super().__init__(message)
        self.code = code
        self.status = status


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


@dataclass
class RunConfig:
    command: str
    cartan_path: str | None = None
    max_length: int | None = None
    base: str | None = None
    element: str | None = None
    pairings: str | None = None
    depth: int = 10
    dual: bool = False
    verify: bool = False
    format: str = "json"
    degree_cap_override: int | None = None
    size_limit: int = weyl_mod.DEFAULT_SIZE_LIMIT


def _load_datum(config: RunConfig):
    if not config.cartan_path:
        raise _CliError("--cartan is required")
    try:
        with open(config.cartan_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read cartan file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NotGCM(f"cartan file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "cartan" not in doc:
        raise NotGCM('cartan file must be a JSON object {"cartan": [[...]]}')
    return validate_cartan(doc["cartan"])


def _ideal(datum, config: RunConfig):
    if config.max_length is None:
        raise _CliError("--max-length is required")
    return weyl_mod.enumerate_ideal(datum, config.max_length, config.size_limit)


def _parse_pairings(datum, text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(f"bad pairings {text!r}: integers expected") from exc
    if len(values) != datum.rank:
        raise _CliError(f"expected {datum.rank} pairings, got {len(values)}")
    return values


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_doc(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _word(el) -> str:
    return weyl_mod.format_word(el)


# -- command implementations -------------------------------------------------


def _cmd_roots(config: RunConfig):
    datum = _load_datum(config)
    doc = {
        "kind": datum.kind,
        "symmetrizer": list(datum.symmetrizer),
        "dual_labels": list(datum.dual_labels) if datum.dual_labels else None,
    }
    if datum.kind == "finite":
        doc["positive_roots"] = [list(r) for r in datum.positive_roots()]
    else:
        doc["positive_real_roots"] = [
            list(r) for r in datum.real_positive_roots(config.depth)
        ]
        doc["delta"] = list(datum.delta())
        doc["imaginary_multiplicity"] = datum.imaginary_root_multiplicity()
        doc["height_bound"] = config.depth
    return EXIT_OK, _json_doc(doc)


def _cmd_weyl_ideal(config: RunConfig):
    datum = _load_datum(config)
    ideal = _ideal(datum, config)
    rows = [(_word(w), w.length()) for w in ideal]
    if config.format == "csv":
        return EXIT_OK, _csv_doc(("word", "length"), rows)
    return EXIT_OK, _json_doc([{"word": w, "length": l} for w, l in rows])


def _kl_rows(config: RunConfig, inverse: bool):
    datum = _load_datum(config)
    ideal = _ideal(datum, config)
    table = KLTable(ideal)
    rows = []
    for y in ideal:
        for w in ideal:
            if not ideal.leq(y, w):
                continue
            poly = table.inverse_kl(y, w) if inverse else table.kl_polynomial(y, w)
            rows.append((y, w, poly))
    return rows


def _cmd_kl(config: RunConfig, inverse=False):
    rows = _kl_rows(config, inverse)
    if config.format == "csv":
        return EXIT_OK, _csv_doc(
            ("y_word", "w_word", "polynomial"),
            [(_word(y), _word(w), p.text()) for y, w, p in rows],
        )
    return EXIT_OK, _json_doc(
        [
            {"y": _word(y), "w": _word(w), "coeffs": list(p.coeffs)}
            for y, w, p in rows
        ]
    )


def _cmd_moment_graph(config: RunConfig):
    datum = _load_datum(config)
    ideal = _ideal(datum, config)
    graph = build_moment_graph(datum, ideal, dual=config.dual)
    doc = {
        "dual": config.dual,
        "vertices": [_word(v) for v in graph.vertices],
        "edges": [
            {"lower": _word(e.lower), "upper": _word(e.upper), "label": list(e.label)}
            for e in graph.edges
        ],
        "covers": [[_word(y), _word(x)] for y, x in covering_relations(ideal)],
    }
    return EXIT_OK, _json_doc(doc)


def _verification_entries(report):
    return [
        {
            "vertex": _word(entry.vertex),
            "stalk": list(entry.stalk.coeffs),
            "inverse_kl": list(entry.inverse_kl.coeffs),
            "match": entry.match,
        }
        for entry in report.entries
    ]


def _cmd_bmp(config: RunConfig):
    datum = _load_datum(config)
    ideal = _ideal(datum, config)
    graph = build_moment_graph(datum, ideal, dual=config.dual)
    base = weyl_mod.parse_word(datum, config.base or "e")
    sheaf = bmp_mod.compute_bmp(graph, base, degree_cap=config.degree_cap_override)
    doc = {
        "base": _word(base),
        "dual": config.dual,
        "stalks": {_word(v): list(sheaf.stalks[v]) for v in graph.vertices},
    }
    status = EXIT_OK
    if config.verify:
        table = KLTable(ideal)
        report = bmp_mod.verify_against_inverse_kl(sheaf, table)
        doc["report"] = {
            "entries": _verification_entries(report),
            "all_match": report.all_match,
        }
        if not report.all_match:
            status = EXIT_VERIFICATION
    return status, _json_doc(doc)


def _cmd_verify_kl(config: RunConfig):
    datum = _load_datum(config)
    ideal = _ideal(datum, config)
    graph = build_moment_graph(datum, ideal, dual=config.dual)
    table = KLTable(ideal)
    if config.base is not None:
        bases = [weyl_mod.parse_word(datum, config.base)]
    else:
        bases = list(graph.vertices)
    reports = []
    ok = True
    for base in bases:
        sheaf = bmp_mod.compute_bmp(
            graph, base, degree_cap=config.degree_cap_override
        )
        report = bmp_mod.verify_against_inverse_kl(sheaf, table)
        ok = ok and report.all_match
        reports.append(
            {
                "base": _word(base),
                "entries": _verification_entries(report),
                "all_match": report.all_match,
            }
        )
    doc = {"bases": reports, "all_match": ok}
    return (EXIT_OK if ok else EXIT_VERIFICATION), _json_doc(doc)


def _cmd_characters(config: RunConfig):
    datum = _load_datum(config)
    if config.pairings is None:
        raise _CliError("--pairings is required")
    pairings = _parse_pairings(datum, config.pairings)
    element_text = config.element or "e"
    w = weyl_mod.parse_word(datum, element_text)
    ideal = weyl_mod.ideal_from_generators(datum, [w], config.size_limit)
    block = cat_mod.classify_weight(datum, pairings, ideal)
    table = KLTable(ideal)
    series = cat_mod.irreducible_character(block, w, config.depth, table)
    offsets = sorted(series.coeffs, key=lambda o: (-sum(o), o))
    doc = {
        "pairings": list(pairings),
        "element": _word(w),
        "depth": config.depth,
        "base_offset": list(series.base.offset),
        "coefficients": {
            ",".join(str(c) for c in off): series.coeffs[off] for off in offsets
        },
    }
    return EXIT_OK, _json_doc(doc)


def _cmd_multiplicities(config: RunConfig):
    datum = _load_datum(config)
    ideal = _ideal(datum, config)
    pairings = (
        _parse_pairings(datum, config.pairings)
        if config.pairings is not None
        else (-2,) * datum.rank
    )
    block = cat_mod.classify_weight(datum, pairings, ideal)
    table = KLTable(ideal)
    dual_graph = build_moment_graph(datum, ideal, dual=True)
    rows = []
    for w in ideal:
        for x in ideal:
            value = cat_mod.projective_verma_multiplicity(
                block, w, x, dual_graph, table
            )
            rows.append((_word(w), _word(x), value))
    if config.format == "csv":
        return EXIT_OK, _csv_doc(("w_word", "x_word", "multiplicity"), rows)
    return EXIT_OK, _json_doc(
        [{"w": w, "x": x, "multiplicity": v} for w, x, v in rows]
    )


def _cmd_strata(config: RunConfig):
    datum = _load_datum(config)
    ideal = _ideal(datum, config)
    rows = [
        (_word(x), x.length(), weyl_mod.stratum_dimension(x, ideal)) for x in ideal
    ]
    if config.format == "csv":
        return EXIT_OK, _csv_doc(("word", "length", "dimension"), rows)
    return EXIT_OK, _json_doc(
        [{"word": w, "length": l, "dimension": d} for w, l, d in rows]
    )


_COMMANDS = {
    "roots": _cmd_roots,
    "weyl-ideal": _cmd_weyl_ideal,
    "kl": lambda c: _cmd_kl(c, inverse=False),
    "inverse-kl": lambda c: _cmd_kl(c, inverse=True),
    "moment-graph": _cmd_moment_graph,
    "bmp": _cmd_bmp,
    "verify-kl": _cmd_verify_kl,
    "characters": _cmd_characters,
    "multiplicities": _cmd_multiplicities,
    "strata": _cmd_strata,
}


def run(config: RunConfig):
    """Dispatch a validated configuration; returns (exit status, document)."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise _CliError(f"unknown command {config.command!r}")
    return handler(config)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kmflag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *, max_length=False, base=False, element=False, pairings=False,
            depth=False, dual=False, verify=False, fmt=False, cap=False):
        p = sub.add_parser(name)
        p.add_argument("--cartan", required=True, dest="cartan_path",
                       help='JSON file {"cartan": [[...]]}')
        p.add_argument("--size-limit", type=int, dest="size_limit",
                       default=None, help="element-count guard for enumerations")
        if max_length:
            p.add_argument("--max-length", "--ideal-max-length", type=int,
                           dest="max_length", required=True)
        if base:
            p.add_argument("--base", default=None,
                           help='element word like "1,2,1", or "e"')
        if element:
            p.add_argument("--element", default="e")
        if pairings:
            p.add_argument("--pairings", default=None,
                           help='comma-separated integers like "-2,-1"')
        if depth:
            p.add_argument("--depth", type=int, default=10)
        if dual:
            p.add_argument("--dual", action="store_true")
        if verify:
            p.add_argument("--verify", action="store_true")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if cap:
            p.add_argument("--degree-cap-override", type=int, default=None,
                           dest="degree_cap_override")
        return p

    add("roots", depth=True)
    add("weyl-ideal", max_length=True, fmt=True)
    add("kl", max_length=True, fmt=True)
    add("inverse-kl", max_length=True, fmt=True)
    add("moment-graph", max_length=True, dual=True)
    add("bmp", max_length=True, base=True, dual=True, verify=True, cap=True)
    add("verify-kl", max_length=True, base=True, dual=True, cap=True)
    add("characters", element=True, pairings=True, depth=True)
    add("multiplicities", max_length=True, pairings=True, fmt=True)
    add("strata", max_length=True, fmt=True)
    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    size_limit = ns.size_limit
    if size_limit is None:
        env = os.environ.get("KMFLAG_SIZE_LIMIT")
        size_limit = int(env) if env else weyl_mod.DEFAULT_SIZE_LIMIT
    fields = {
        "command": ns.command,
        "cartan_path": ns.cartan_path,
        "size_limit": size_limit,
    }
    for name in ("max_length", "base", "element", "pairings", "depth", "dual",
                 "verify", "format", "degree_cap_override"):
        if hasattr(ns, name):
            fields[name] = getattr(ns, name)
    return RunConfig(**fields)


def _merge_negative_values(argv):
    """Join "--pairings -2,-1" into one token so argparse does not read the
    value as an option."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--pairings" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--pairings={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        ns = parser.parse_args(_merge_negative_values(argv))
        config = _config_from_args(ns)
        status, doc = run(config)
    except _CliError as exc:
        out.write(_json_doc({"error_code": exc.code, "message": str(exc)}))
        return exc.status
    except CrossCheckFailed as exc:
        out.write(_json_doc({"error_code": exc.code, "message": str(exc)}))
        return EXIT_VERIFICATION
    except RESOURCE_GUARD_ERRORS as exc:
        out.write(_json_doc({"error_code": exc.code, "message": str(exc)}))
        return EXIT_RESOURCE
    except ToolkitError as exc:
        out.write(_json_doc({"error_code": exc.code, "message": str(exc)}))
        return EXIT_VALIDATION
    except ValueError as exc:
        out.write(_json_doc({"error_code": "ValueError", "message": str(exc)}))
        return EXIT_VALIDATION
    out.write(doc)
    return status


if __name__ == "__main__":
    sys.exit(main())
