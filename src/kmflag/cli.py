"""Command-line front-end: deterministic JSON/CSV emission for every
pipeline, with machine-readable errors and stable exit codes.

Each option has one spelling and may be given once.  Its value follows "="
or is the next token, which may begin with "-" (--pairings -2,-1).
`kmflag <command> --help` lists the options of one command.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 resource-guard error.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace

# only what every command needs; each handler imports the stages it runs
from . import weyl as weyl_mod
from .errors import (
    RESOURCE_GUARD_ERRORS, CrossCheckFailed, NotGCM, SizeLimitExceeded, ToolkitError,
)
from .root_datum import INDEFINITE, validate_cartan

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_RESOURCE = 3

#: exit status by error kind, first match wins; any other error is EXIT_VALIDATION
_ERROR_STATUS = (
    (CrossCheckFailed, EXIT_VERIFICATION),
    (RESOURCE_GUARD_ERRORS, EXIT_RESOURCE),
)


class _CliError(Exception):
    code = "UsageError"


def _load_datum(ns):
    if not ns.cartan_path:
        raise _CliError("--cartan is required")
    try:
        with open(ns.cartan_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(f"cannot read cartan file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NotGCM(f"cartan file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "cartan" not in doc:
        raise NotGCM('cartan file must be a JSON object {"cartan": [[...]]}')
    return validate_cartan(doc["cartan"])


def _load_ideal(ns):
    datum = _load_datum(ns)
    return datum, weyl_mod.enumerate_ideal(datum, ns.max_length, ns.size_limit)


def _parse_pairings(datum, text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(f"bad pairings {text!r}: integers expected") from exc
    if len(values) != datum.rank:
        raise _CliError(f"expected {datum.rank} pairings, got {len(values)}")
    return values


def _parse_element(datum, text, option):
    try:
        return weyl_mod.parse_word(datum, text)
    except ValueError as exc:
        raise _CliError(f"{option}: {exc}") from None


_quote = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str


def _json_doc(obj) -> str:
    """obj as `json.dumps(obj, indent=2) + "\\n"` writes it, for the types the
    CLI emits: dicts with str keys, lists, str, int, bool and None.  Anything
    else, a float or a tuple say, raises TypeError."""
    return _json(obj, "\n") + "\n"


def _json(obj, nl: str) -> str:
    """One value, its lines after the first prefixed by nl ("\\n" + indent)."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = nl + "  "
    if kind is list:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_column(obj, inner)) + nl + "]"
    if kind is dict:
        items = [inner + _quote(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + ",".join(items) + nl + "}" if items else "{}"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _column(values, nl: str):
    """The values of one list, each as _json writes it, in bulk where they
    share a type: strs, ints, lists of ints, and records (dicts whose keys
    come in one order), written column by column into one row template."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(_quote, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    inner = nl + "  "
    if kinds == {list} and {type(x) for v in values for x in v} <= {int}:
        sep = "," + inner
        return ["[" + inner + sep.join(map(int.__repr__, v)) + nl + "]" if v else "[]"
                for v in values]
    keys = set(map(tuple, values)) if kinds == {dict} else ()
    if len(keys) == 1 and (keys := keys.pop()):
        fields = [inner + _quote(k).replace("%", "%%") + ": %s" for k in keys]
        template = "{" + ",".join(fields) + nl + "}"
        columns = [_column(c, inner) for c in zip(*map(dict.values, values))]
        return [template % row for row in zip(*columns)]
    return [_json(v, nl) for v in values]


def _csv_doc(header, rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _words(ideal) -> dict:
    """Every element's word, formatted once: element -> word."""
    return {el: weyl_mod.format_word(el) for el in ideal}


# -- command implementations -------------------------------------------------


def _cmd_roots(ns):
    datum = _load_datum(ns)
    doc = {
        "kind": datum.kind,
        "symmetrizer": list(datum.symmetrizer),
        "dual_labels": list(datum.dual_labels) if datum.dual_labels else None,
    }
    if datum.kind == "finite":
        doc["positive_roots"] = [list(r) for r in datum.positive_roots()]
    else:
        doc["positive_real_roots"] = [
            list(r) for r in datum.real_positive_roots(ns.depth, ns.size_limit)
        ]
        doc["delta"] = list(datum.delta())
        doc["imaginary_multiplicity"] = datum.imaginary_root_multiplicity()
        doc["height_bound"] = ns.depth
    return EXIT_OK, _json_doc(doc)


def _cmd_weyl_ideal(ns):
    _, ideal = _load_ideal(ns)
    rows = [(weyl_mod.format_word(w), w.length()) for w in ideal]
    if ns.format == "csv":
        return EXIT_OK, _csv_doc(("word", "length"), rows)
    return EXIT_OK, _json_doc([{"word": w, "length": l} for w, l in rows])


def _cmd_kl(ns):
    from .kl import KLTable

    _, ideal = _load_ideal(ns)
    table = KLTable(ideal)
    # position-keyed entry points: the pairs y <= w are read off the bitsets
    poly = table._inv if ns.command == "inverse-kl" else table._kl
    words, below = [weyl_mod.format_word(el) for el in ideal], ideal.below
    rows = [
        (words[y], words[w], poly(y, w))
        for y in range(len(words))
        for w in range(len(words))
        if below[w] >> y & 1
    ]
    if ns.format == "csv":
        return EXIT_OK, _csv_doc(
            ("y_word", "w_word", "polynomial"), [(y, w, p.text()) for y, w, p in rows]
        )
    return EXIT_OK, _json_doc(
        [{"y": y, "w": w, "coeffs": list(p.coeffs)} for y, w, p in rows]
    )


def _cmd_moment_graph(ns):
    from .moment_graph import build_moment_graph, covering_relations

    datum, ideal = _load_ideal(ns)
    graph = build_moment_graph(datum, ideal, dual=ns.dual)
    words = _words(ideal)
    doc = {
        "dual": ns.dual,
        "vertices": [words[v] for v in graph.vertices],
        "edges": [
            {"lower": words[e.lower], "upper": words[e.upper], "label": list(e.label)}
            for e in graph.edges
        ],
        "covers": [[words[y], words[x]] for y, x in covering_relations(ideal)],
    }
    return EXIT_OK, _json_doc(doc)


def _verification(sheaf, table, words):
    """The inverse-KL check of one sheaf as emitted: entries, then all_match."""
    from .bmp import verify_against_inverse_kl

    report = verify_against_inverse_kl(sheaf, table)
    entries = [
        {
            "vertex": words[entry.vertex],
            "stalk": list(entry.stalk.coeffs),
            "inverse_kl": list(entry.inverse_kl.coeffs),
            "match": entry.match,
        }
        for entry in report.entries
    ]
    return {"entries": entries, "all_match": report.all_match}


def _cmd_bmp(ns):
    from .bmp import compute_bmp
    from .kl import KLTable
    from .moment_graph import build_moment_graph

    datum, ideal = _load_ideal(ns)
    graph = build_moment_graph(datum, ideal, dual=ns.dual)
    base = _parse_element(datum, ns.base or "e", "--base")
    sheaf = compute_bmp(graph, base, degree_cap=ns.degree_cap_override)
    words = _words(ideal)
    doc = {
        "base": words[base],
        "dual": ns.dual,
        "stalks": {words[v]: list(sheaf.stalks[v]) for v in graph.vertices},
    }
    status = EXIT_OK
    if ns.verify:
        doc["report"] = _verification(sheaf, KLTable(ideal), words)
        if not doc["report"]["all_match"]:
            status = EXIT_VERIFICATION
    return status, _json_doc(doc)


def _cmd_verify_kl(ns):
    from .bmp import compute_bmp
    from .kl import KLTable
    from .moment_graph import build_moment_graph

    datum, ideal = _load_ideal(ns)
    graph = build_moment_graph(datum, ideal, dual=ns.dual)
    table = KLTable(ideal)
    if ns.base is not None:
        bases = [_parse_element(datum, ns.base, "--base")]
    else:
        bases = list(graph.vertices)
    words = _words(ideal)
    reports = []
    for base in bases:
        sheaf = compute_bmp(graph, base, degree_cap=ns.degree_cap_override)
        reports.append({"base": words[base], **_verification(sheaf, table, words)})
    ok = all(report["all_match"] for report in reports)
    doc = {"bases": reports, "all_match": ok}
    return (EXIT_OK if ok else EXIT_VERIFICATION), _json_doc(doc)


def _cmd_characters(ns):
    from math import comb

    from .category_o import classify_weight, irreducible_character
    from .kl import KLTable

    datum = _load_datum(ns)
    pairings = _parse_pairings(datum, ns.pairings)
    w = _parse_element(datum, ns.element, "--element")
    if datum.kind != INDEFINITE:
        # the Kostant table holds every lattice point of height <= depth
        points = comb(ns.depth + datum.rank, datum.rank)
        if points > ns.size_limit:
            raise SizeLimitExceeded(
                f"--depth {ns.depth} needs {points} lattice points in the "
                f"character table, above the size limit {ns.size_limit}"
            )
    ideal = weyl_mod.ideal_from_generators(datum, [w], ns.size_limit)
    block = classify_weight(datum, pairings, ideal)
    table = KLTable(ideal)
    series = irreducible_character(block, w, ns.depth, table)
    offsets = sorted(series.coeffs, key=lambda o: (-sum(o), o))
    doc = {
        "pairings": list(pairings),
        "element": weyl_mod.format_word(w),
        "depth": ns.depth,
        "base_offset": list(series.base.offset),
        "coefficients": {
            ",".join(str(c) for c in off): series.coeffs[off] for off in offsets
        },
    }
    return EXIT_OK, _json_doc(doc)


def _cmd_multiplicities(ns):
    from .category_o import SheafTable, classify_weight, projective_verma_multiplicity
    from .kl import KLTable
    from .moment_graph import build_moment_graph

    datum, ideal = _load_ideal(ns)
    pairings = (
        _parse_pairings(datum, ns.pairings)
        if ns.pairings is not None
        else (-2,) * datum.rank
    )
    block = classify_weight(datum, pairings, ideal)
    table = KLTable(ideal)
    sheaves = SheafTable(build_moment_graph(datum, ideal, dual=True))
    words = _words(ideal).items()
    rows = []
    for w, w_word in words:
        for x, x_word in words:
            value = projective_verma_multiplicity(block, w, x, sheaves, table)
            rows.append((w_word, x_word, value))
    if ns.format == "csv":
        return EXIT_OK, _csv_doc(("w_word", "x_word", "multiplicity"), rows)
    return EXIT_OK, _json_doc(
        [{"w": w, "x": x, "multiplicity": v} for w, x, v in rows]
    )


def _cmd_strata(ns):
    _, ideal = _load_ideal(ns)
    rows = [
        (word, x.length(), weyl_mod.stratum_dimension(x, ideal))
        for x, word in _words(ideal).items()
    ]
    if ns.format == "csv":
        return EXIT_OK, _csv_doc(("word", "length", "dimension"), rows)
    return EXIT_OK, _json_doc(
        [{"word": w, "length": l, "dimension": d} for w, l, d in rows]
    )


# -- command line ------------------------------------------------------------

#: every option once: flag -> argparse keywords (type, choices, required,
#: default, dest, action="store_true", help), which _parse reads
_OPTIONS = {
    "--cartan": dict(required=True, dest="cartan_path",
                     help='JSON file {"cartan": [[...]]}'),
    "--size-limit": dict(type=int, help="element-count guard for enumerations"),
    "--max-length": dict(type=int, required=True),
    "--base": dict(help='element word like "1,2,1", or "e"'),
    "--element": dict(default="e"),
    "--pairings": dict(help='comma-separated integers like "-2,-1"'),
    "--depth": dict(type=int, default=10),
    "--dual": dict(action="store_true"),
    "--verify": dict(action="store_true"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--degree-cap-override": dict(
        type=int,
        help="even degree cap for the sheaf sweep (default L + 4 rounded up "
        "to even, L = max length minus base length)",
    ),
}

#: command -> (handler, the options it takes besides --cartan and --size-limit,
#: and optionally those of them it requires though their _OPTIONS entry does not)
_COMMANDS = {
    "roots": (_cmd_roots, ("--depth",)),
    "weyl-ideal": (_cmd_weyl_ideal, ("--max-length", "--format")),
    "kl": (_cmd_kl, ("--max-length", "--format")),
    "inverse-kl": (_cmd_kl, ("--max-length", "--format")),
    "moment-graph": (_cmd_moment_graph, ("--max-length", "--dual")),
    "bmp": (_cmd_bmp, ("--max-length", "--base", "--dual", "--verify",
                       "--degree-cap-override")),
    "verify-kl": (_cmd_verify_kl, ("--max-length", "--base", "--dual",
                                   "--degree-cap-override")),
    "characters": (_cmd_characters, ("--element", "--pairings", "--depth"),
                   ("--pairings",)),
    "multiplicities": (_cmd_multiplicities, ("--max-length", "--pairings", "--format")),
    "strata": (_cmd_strata, ("--max-length", "--format")),
}


def _flags(command) -> tuple:
    """The flags a command takes, in the order its help lists them."""
    return ("--cartan", "--size-limit", *_COMMANDS[command][1])


def _required(command) -> tuple:
    """The flags a command cannot do without, in the order of _flags: those
    their _OPTIONS entry requires, and those its _COMMANDS entry lists third."""
    entry = _COMMANDS[command]
    own = entry[2] if len(entry) > 2 else ()
    return tuple(f for f in _flags(command) if _OPTIONS[f].get("required") or f in own)


def _dest(flag) -> str:
    return _OPTIONS[flag].get("dest") or flag[2:].replace("-", "_")


def _choice(name, value, choices) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _CliError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


_HELP = ("-h", "--help")


def _parse(argv, out) -> SimpleNamespace:
    """argv as a namespace of the command and its option values, with
    argparse's rules and messages.  argv[0] names the command; each later
    token is one of its flags, alone or as --flag=value, and a value is the
    next token unless that is one of its flags or -h/--help.  A bad or
    repeated option fails as it is read, then missing required flags, then
    unrecognized tokens; -h/--help writes the help to out and exits 0."""
    command = argv[0] if argv else None
    if command in _HELP:
        _help(None, out)
    if not argv:
        raise _CliError("the following arguments are required: command")
    _choice("command", command, _COMMANDS)
    flags = _flags(command)
    ns = SimpleNamespace(command=command)
    for flag in flags:
        spec = _OPTIONS[flag]
        setattr(ns, _dest(flag), spec.get("default", False if "action" in spec else None))
    seen, extras = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in _HELP:
            _help(command, out)
        if flag not in flags:
            extras.append(token)
            continue
        if flag in seen:
            raise _CliError(f"argument {flag}: may be given only once")
        seen.add(flag)
        spec = _OPTIONS[flag]
        if "action" in spec:  # store_true
            if eq:
                raise _CliError(f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value in _HELP or value.partition("=")[0] in flags:
                raise _CliError(f"argument {flag}: expected one argument")
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                kind = spec["type"].__name__
                raise _CliError(f"argument {flag}: invalid {kind} value: {value!r}") from None
        if "choices" in spec:
            _choice(flag, value, spec["choices"])
        setattr(ns, _dest(flag), value)
    missing = [f for f in _required(command) if f not in seen]
    if missing:
        raise _CliError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _CliError("unrecognized arguments: " + " ".join(extras))
    return ns


def _help(command, out):
    """Write the usage line and the commands, or one command's flags with
    their help strings, and exit 0."""
    commands = "{" + ",".join(_COMMANDS) + "}"
    if command is None:
        out.write(f"usage: kmflag {commands} ...\n\n{__doc__}\n"
                  f"positional arguments:\n  {commands}\n")
        raise SystemExit(0)
    usage, rows, required = [], [], _required(command)
    for flag in _flags(command):
        spec, bare = _OPTIONS[flag], flag in required
        if "choices" in spec:
            flag += " {" + ",".join(spec["choices"]) + "}"
        elif "action" not in spec:
            flag += " " + _dest(flag).upper()
        usage.append(flag if bare else f"[{flag}]")
        pad = "\n" + " " * 26 if len(flag) > 22 else " " * (24 - len(flag))
        rows.append(f"  {flag}{pad}{spec['help']}\n" if "help" in spec else f"  {flag}\n")
    out.write(f"usage: kmflag {command} {' '.join(usage)}\n\noptions:\n{''.join(rows)}")
    raise SystemExit(0)


def _check_options(ns: SimpleNamespace) -> None:
    """Resolve the size limit (flag, then KMFLAG_SIZE_LIMIT, then the
    default) and reject out-of-range option values."""
    if ns.size_limit is None:
        env = os.environ.get("KMFLAG_SIZE_LIMIT")
        try:
            ns.size_limit = int(env) if env else weyl_mod.DEFAULT_SIZE_LIMIT
        except ValueError:
            raise _CliError(f"KMFLAG_SIZE_LIMIT must be an integer, not {env!r}") from None
    if getattr(ns, "depth", 0) < 0:
        raise _CliError("--depth must be nonnegative")
    if getattr(ns, "max_length", 0) < 0:
        raise _CliError("--max-length must be nonnegative")
    if ns.size_limit < 1:
        raise _CliError("--size-limit must be at least 1")
    cap = getattr(ns, "degree_cap_override", None)
    if cap is not None and (cap < 0 or cap % 2):
        raise _CliError(f"--degree-cap-override must be even and nonnegative, not {cap}")


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv, out)
        _check_options(ns)
        status, doc = _COMMANDS[ns.command][0](ns)
    except (_CliError, ToolkitError, ValueError) as exc:
        code = getattr(exc, "code", "ValueError")
        out.write(_json_doc({"error_code": code, "message": str(exc)}))
        return next(
            (status for kinds, status in _ERROR_STATUS if isinstance(exc, kinds)),
            EXIT_VALIDATION,
        )
    out.write(doc)
    return status


def run() -> None:
    """Process entry point of `python -m kmflag.cli` and the `kmflag` script:
    exit with main()'s status.  Once main() has written its document, every
    live object is moved to the permanent generation (gc.freeze), so the
    collection at interpreter shutdown has nothing left to scan; streams are
    still flushed, atexit handlers run and modules are torn down.  main()
    itself leaves the collector alone, for in-process callers."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
