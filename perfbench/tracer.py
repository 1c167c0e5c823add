"""Run one kmflag CLI job with spans recorded around each layer's functions.

    python3 tracer.py TRACE_FILE <kmflag cli arguments...>

The job's stdout and exit status are those of ``python -m kmflag.cli`` with
the same arguments; the benchmark checks this against the pinned SHA-256.
Nothing in ``src/`` is edited: the functions below are replaced, at every
module-level name and class attribute they are bound under, by wrappers
that record a span (name, parent, start, end) into in-memory arrays. At exit
the spans and a few size counters are written to TRACE_FILE: one JSON header
line followed by the raw arrays (see ``read_trace``).
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer, module, attribute path, span label). The layer is the metric
# prefix; ``_linalg`` is reported as ``linalg``. KLTable._kl and _inv are the
# memoised entry points every P and Q lookup goes through, including the
# recursive ones, so they stand for kl_polynomial and inverse_kl. Some
# targets have no metric of their own; they are wrapped so that their time
# is not counted as their caller's self time (strata work as cli's, say).
TARGETS = (
    ("cli", "kmflag.cli", "main", "main"),
    ("root_datum", "kmflag.root_datum", "validate_cartan", "validate_cartan"),
    ("weyl", "kmflag.weyl", "multiply", "multiply"),
    ("weyl", "kmflag.weyl", "bruhat_leq", "bruhat_leq"),
    ("weyl", "kmflag.weyl", "is_reflection", "is_reflection"),
    ("weyl", "kmflag.weyl", "enumerate_ideal", "enumerate_ideal"),
    ("weyl", "kmflag.weyl", "inversion_set", "inversion_set"),
    ("weyl", "kmflag.weyl", "stratum_dimension", "stratum_dimension"),
    ("moment_graph", "kmflag.moment_graph", "build_moment_graph", "build_moment_graph"),
    ("moment_graph", "kmflag.moment_graph", "covering_relations", "covering_relations"),
    ("kl", "kmflag.kl", "KLTable._kl", "kl_polynomial"),
    ("kl", "kmflag.kl", "KLTable._inv", "inverse_kl"),
    ("bmp", "kmflag.bmp", "compute_bmp", "compute_bmp"),
    ("bmp", "kmflag.bmp", "verify_against_inverse_kl", "verify_against_inverse_kl"),
    ("graded_algebra", "kmflag.graded_algebra", "ModuleAmbient.mul_var_vec", "mul_var_vec"),
    ("graded_algebra", "kmflag.graded_algebra", "minimal_generators", "minimal_generators"),
    ("linalg", "kmflag._linalg", "RowSpan.add", "RowSpan.add"),
    ("linalg", "kmflag._linalg", "solve_right", "solve_right"),
    ("linalg", "kmflag._linalg", "kernel_basis", "kernel_basis"),
    ("category_o", "kmflag.category_o", "projective_verma_multiplicity",
     "projective_verma_multiplicity"),
)

SPAN_NAMES = tuple(f"{layer}.{label}" for layer, _, _, label in TARGETS)


class Recorder:
    """Spans in flat arrays: name index, parent span index (-1 for a root),
    start and end in perf_counter nanoseconds."""

    def __init__(self):
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counters = {
            "moment_graph.edges": 0,
            "weyl.ideal_elements": 0,
            "bmp.stalk_rank_sum": 0,
        }
        self.bmp_bases = set()
        self.kl_tables = []
        self.graphs = []  # keeps graphs alive so their id() stays unique

    def wrap(self, name_id, fn, on_result=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    # result hooks for the size counters
    def on_graph(self, args, graph):
        self.counters["moment_graph.edges"] += len(graph.edges)

    def on_ideal(self, args, ideal):
        self.counters["weyl.ideal_elements"] += len(ideal)

    def on_bmp(self, args, sheaf):
        graph, base = args[0], args[1]
        self.graphs.append(graph)
        self.bmp_bases.add((id(graph), base))
        self.counters["bmp.stalk_rank_sum"] += sum(len(s) for s in sheaf.stalks.values())

    def write(self, path):
        counters = dict(self.counters)
        counters["bmp.bases"] = len(self.bmp_bases)
        counters["kl.pairs"] = sum(len(t._p) + len(t._q) for t in self.kl_tables)
        header = {"names": list(SPAN_NAMES), "n": len(self.starts), "counters": counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_trace(path):
    """Return (header, names, parents, starts, ends) from a trace file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for _ in range(4):
            arr = array("q")
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def install(recorder: Recorder):
    """Replace every target at each name it is bound under in kmflag."""
    import importlib

    for module_name in sorted({t[1] for t in TARGETS}):
        importlib.import_module(module_name)

    kmflag_modules = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "kmflag" or name.startswith("kmflag."))
    ]
    hooks = {
        "build_moment_graph": recorder.on_graph,
        "enumerate_ideal": recorder.on_ideal,
        "compute_bmp": recorder.on_bmp,
    }
    for name_id, (_, module_name, path, _) in enumerate(TARGETS):
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, recorder.wrap(name_id, original))
            continue
        original = getattr(module, path)
        wrapper = recorder.wrap(name_id, original, hooks.get(path))
        bound = 0
        for mod in kmflag_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    bound += 1
        if bound == 0:
            raise RuntimeError(f"{module_name}.{path} is bound nowhere")

    from kmflag.kl import KLTable

    init = KLTable.__init__

    def recording_init(table, *args, **kwargs):
        init(table, *args, **kwargs)
        recorder.kl_tables.append(table)

    KLTable.__init__ = recording_init


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    import kmflag.cli

    try:
        status = kmflag.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
