"""The package namespace: importing kmflag loads no submodule, and each
public name resolves on first access to the object its submodule defines."""

import json
import os
import subprocess
import sys

import pytest

import kmflag

SUBMODULES = ("bmp", "category_o", "errors", "graded_algebra", "kl", "moment_graph",
              "root_datum", "weyl")


def fresh(code):
    """What a fresh interpreter running code prints, as JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kmflag.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_public_names_are_their_submodules_objects():
    assert len(kmflag.__all__) == len(set(kmflag.__all__)) == 47
    assert not set(kmflag.__all__) & set(SUBMODULES)
    for name in kmflag.__all__:
        value = getattr(kmflag, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("kmflag."), name
        assert getattr(home, name) is value, name
    from kmflag import compute_bmp, validate_cartan

    assert compute_bmp is kmflag.bmp.compute_bmp
    assert validate_cartan is kmflag.root_datum.validate_cartan


def test_dir_lists_every_public_name_and_submodule():
    assert set(kmflag.__all__) | set(SUBMODULES) <= set(dir(kmflag))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kmflag.no_such_name


def test_version():
    assert kmflag.__version__ == "0.1.0"


def test_import_loads_no_submodule():
    loaded, reachable = fresh(
        "import json, sys, kmflag; "
        "loaded = sorted(m for m in sys.modules if m.startswith('kmflag.')); "
        f"reachable = all(getattr(kmflag, m) is sys.modules['kmflag.' + m] for m in {SUBMODULES}); "
        "print(json.dumps([loaded, reachable]))"
    )
    assert loaded == []
    assert reachable


def test_star_import_binds_exactly_all():
    bound = fresh(
        "before = set(globals()); "
        "from kmflag import *; "
        "bound = sorted(set(globals()) - before - {'before'}); "
        "import json; print(json.dumps(bound))"
    )
    assert bound == sorted(kmflag.__all__)


def test_stages_load_without_dataclasses_or_inspect():
    # pytest itself loads these modules, so only a fresh interpreter can
    # tell; fractions and decimal would mean a stage builds rationals
    loaded = fresh(
        "import json, sys; "
        "import kmflag.cli, kmflag.kl, kmflag.moment_graph, kmflag.graded_algebra, "
        "kmflag.bmp, kmflag.category_o; "
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} "
        "& set(sys.modules))))"
    )
    assert loaded == []


@pytest.fixture(scope="module")
def records():
    """Class name -> (instance, equal twin, one field changed)."""
    return {type(v).__name__: (v, t, c) for v, t, c in _triples()}


def _triples():
    from kmflag.category_o import BlockSpec, antidominant_block
    from kmflag.graded_algebra import CyclicPiece
    from kmflag.moment_graph import Edge, MomentGraph, build_moment_graph
    from kmflag.root_datum import RootDatum, validate_cartan
    from kmflag.weyl import BruhatIdeal, WeightCoords, enumerate_ideal, from_word

    a2 = validate_cartan([[2, -1], [-1, 2]])
    twin = RootDatum(a2.cartan, a2.symmetrizer, a2.kind, a2.dual_labels)
    ideal = enumerate_ideal(a2, 2)
    same_ideal = BruhatIdeal(a2, tuple(reversed(ideal.elements)), ideal.description)
    graph = build_moment_graph(a2, ideal)
    s1, s12 = from_word(a2, [0]), from_word(a2, [0, 1])
    block = antidominant_block(a2, ideal)
    yield a2, twin, RootDatum(a2.cartan, a2.symmetrizer, "affine", a2.dual_labels)
    yield ideal, same_ideal, BruhatIdeal(a2, ideal.elements, "other")
    yield (WeightCoords((1, 2), (0, 0)), WeightCoords((1, 2), (0, 0)),
           WeightCoords((1, 2), (0, -1)))
    yield Edge(s1, s12, (0, 1)), Edge(s1, s12, (0, 1)), Edge(s1, s12, (1, 1))
    # equality reads the graph, not its incidence table
    yield (graph,
           MomentGraph(a2, same_ideal, graph.edges, False, (), ()),
           MomentGraph(a2, ideal, graph.edges, True, graph.in_edges, graph.out_edges))
    yield CyclicPiece(2, (1, 0)), CyclicPiece(2, (1, 0)), CyclicPiece(2)
    yield (block,
           BlockSpec(a2, block.pairings, True, True, True, True),
           BlockSpec(a2, block.pairings, True, True, True, False))


@pytest.mark.parametrize("name", ["RootDatum", "BruhatIdeal", "WeightCoords", "Edge",
                                  "MomentGraph", "CyclicPiece", "BlockSpec"])
def test_value_classes_compare_and_hash_by_fields(records, name):
    value, twin, changed = records[name]
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    assert changed != value and type(changed) is type(value)
    assert value != tuple(getattr(value, f) for f in value._fields)


def test_internal_checks_raise_toolkit_errors():
    # an internal check raises a ToolkitError (CrossCheckFailed), which the
    # CLI reports as a JSON error with exit status 2, and which `python -O`
    # keeps; an assert statement or an AssertionError would do neither
    import ast

    root = os.path.dirname(kmflag.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{name}:{node.lineno} raise AssertionError")
            elif isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno} assert")
    assert found == []
